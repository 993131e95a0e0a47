"""Exact scalar arithmetic over the rationals and over prime fields.

Two backends share one interface.  Rational scalars are plain Python
values: an ``int`` when the denominator is 1, and otherwise a
``fractions.Fraction``, which the standard library keeps in reduced form
with positive denominator.  Integer arithmetic is several times cheaper
than Fraction arithmetic, and most tensors hold integers.  Dividing two
ints gives a float, so code that divides rational scalars divides
Fractions (``Fraction(a, b)``).  Prime field scalars are ``Fp``
instances carrying their modulus; operator overloading lets all matrix and
tensor code run unchanged over either backend.

A field object (``QQ`` or ``PrimeField(p)``) is responsible for coercing
ints and Fractions into its scalar type.  Serialized scalars are parsed
and printed in one place, ``jsonio.parse_scalar`` and ``scalar_to_str``.
"""

from __future__ import annotations

from fractions import Fraction

from .errors import FieldMismatchError, SemanticError

_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)


def is_probable_prime(n: int) -> bool:
    """Deterministic Miller-Rabin for n < 3.3e24, ample for 64-bit moduli."""
    if n < 2:
        return False
    for p in _MR_BASES:
        if n % p == 0:
            return n == p
    d, s = n - 1, 0
    while d % 2 == 0:
        d //= 2
        s += 1
    for a in _MR_BASES:
        x = pow(a, d, n)
        if x in (1, n - 1):
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


class Fp:
    """Element of Z/pZ.  Mixing moduli or mixing with Fraction raises."""

    __slots__ = ("val", "p")

    def __init__(self, val: int, p: int):
        self.val = val % p
        self.p = p

    def _lift(self, other) -> "Fp":
        if isinstance(other, Fp):
            if other.p != self.p:
                raise FieldMismatchError(f"moduli differ: {self.p} vs {other.p}")
            return other
        if isinstance(other, int):
            return Fp(other, self.p)
        raise FieldMismatchError(f"cannot mix Fp with {type(other).__name__}")

    def __add__(self, other):
        o = self._lift(other)
        return Fp(self.val + o.val, self.p)

    __radd__ = __add__

    def __sub__(self, other):
        o = self._lift(other)
        return Fp(self.val - o.val, self.p)

    def __rsub__(self, other):
        return self._lift(other).__sub__(self)

    def __mul__(self, other):
        o = self._lift(other)
        return Fp(self.val * o.val, self.p)

    __rmul__ = __mul__

    def __truediv__(self, other):
        o = self._lift(other)
        if o.val == 0:
            raise ZeroDivisionError("division by zero in prime field")
        return Fp(self.val * pow(o.val, -1, self.p), self.p)

    def __rtruediv__(self, other):
        return self._lift(other).__truediv__(self)

    def __neg__(self):
        return Fp(-self.val, self.p)

    def __pow__(self, k: int):
        if k < 0 and not self.val:
            raise ZeroDivisionError("zero has no inverse in a prime field")
        return Fp(pow(self.val, k, self.p), self.p)

    def __eq__(self, other):
        if isinstance(other, Fp):
            return self.p == other.p and self.val == other.val
        if isinstance(other, int):
            return self.val == other % self.p
        return NotImplemented

    def __hash__(self):
        return hash((self.val, self.p))

    def __bool__(self):
        return self.val != 0

    def __repr__(self):
        return f"Fp({self.val}, p={self.p})"


class RationalField:
    """Field of rationals; scalars are ints, or Fractions whose denominator is not 1."""

    name = "rational"
    prime = None
    zero = 0
    one = 1

    def coerce(self, x) -> int | Fraction:
        if type(x) is int:
            return x
        if isinstance(x, Fp):
            raise FieldMismatchError("cannot coerce prime field scalar to rational")
        q = x if isinstance(x, Fraction) else Fraction(x)
        return q.numerator if q.denominator == 1 else q

    def __eq__(self, other):
        return isinstance(other, RationalField)

    def __hash__(self):
        return hash("rational")

    def __repr__(self):
        return "QQ"


class PrimeField:
    """Field Z/pZ for a prime p.  p must exceed 2**30."""

    name = "Fp"

    def __init__(self, p: int):
        if p <= 2**30:
            raise SemanticError(f"prime must exceed 2**30, got {p}")
        if not is_probable_prime(p):
            raise SemanticError(f"{p} is not prime")
        self.prime = p

    def coerce(self, x) -> Fp:
        if isinstance(x, Fp):
            if x.p != self.prime:
                raise FieldMismatchError(f"moduli differ: {self.prime} vs {x.p}")
            return x
        if isinstance(x, int):
            return Fp(x, self.prime)
        if isinstance(x, Fraction):
            if x.denominator % self.prime == 0:
                raise SemanticError(f"denominator of {x} vanishes mod {self.prime}")
            return Fp(x.numerator * pow(x.denominator, -1, self.prime), self.prime)
        raise FieldMismatchError(f"cannot coerce {type(x).__name__} into prime field")

    @property
    def zero(self) -> Fp:
        return Fp(0, self.prime)

    @property
    def one(self) -> Fp:
        return Fp(1, self.prime)

    def __eq__(self, other):
        return isinstance(other, PrimeField) and other.prime == self.prime

    def __hash__(self):
        return hash(("Fp", self.prime))

    def __repr__(self):
        return f"PrimeField({self.prime})"


QQ = RationalField()

# Mersenne prime used when a prime field is requested without a modulus.
DEFAULT_PRIME = 2**31 - 1

Field = RationalField | PrimeField
