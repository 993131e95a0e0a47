"""Exact scalar arithmetic over the rationals and over prime fields.

Scalars are plain Python numbers over both fields, so all matrix and
tensor code runs unchanged over either.  Rational scalars are an ``int``
when the denominator is 1, and otherwise a ``fractions.Fraction``, which
the standard library keeps in reduced form with positive denominator.
Integer arithmetic is several times cheaper than Fraction arithmetic, and
most tensors hold integers.  Dividing two ints gives a float, so code that
divides rational scalars divides Fractions (``Fraction(a, b)``).  A scalar
of Z/pZ is an ``int`` in [0, p).  There is no wrapper class: arithmetic
runs on ints and may leave [0, p), and ``linalg.SparseArray`` reduces
the values mod p, dropping the zeros, where a matrix or tensor stores
them.  A scalar that is not stored in one is reduced by ``coerce``.  The
two fields are kept apart by the containers, which refuse operands over
different fields.

A field object (``QQ`` or ``PrimeField(p)``) is responsible for coercing
ints and Fractions into its scalars.  Serialized scalars are parsed and
printed in one place, ``jsonio.parse_scalar`` and ``scalar_to_str``.
"""

from __future__ import annotations

from fractions import Fraction

from .errors import FieldMismatchError, SemanticError

_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)


def is_probable_prime(n: int) -> bool:
    """Miller-Rabin to the prime bases 2..41: deterministic for n < 3.3e24.

    The bases 2..37 alone are exact only below 3.2e23: 318665857834031151167461
    = 399165290221 * 798330580441 passes all twelve.  Above the bound some
    composites pass any fixed set of bases.
    """
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


class RationalField:
    """Field of rationals; scalars are ints, or Fractions whose denominator is not 1."""

    name = "rational"
    prime = None
    zero = 0
    one = 1

    def coerce(self, x) -> int | Fraction:
        if type(x) is int:
            return x
        q = x if isinstance(x, Fraction) else Fraction(x)
        return q.numerator if q.denominator == 1 else q

    def __eq__(self, other):
        return isinstance(other, RationalField)

    def __hash__(self):
        return hash("rational")

    def __repr__(self):
        return "QQ"


class PrimeField:
    """Field Z/pZ for a prime 2**30 < p < 2**64; scalars are ints in [0, p).

    The upper limit keeps p far below 3.3e24, up to which is_probable_prime
    is exact.
    """

    name = "Fp"
    zero = 0
    one = 1

    def __init__(self, p: int):
        if p <= 2**30:
            raise SemanticError(f"prime must exceed 2**30, got {p}")
        if p >= 2**64:
            raise SemanticError(f"prime must be below 2**64, got {p}")
        if not is_probable_prime(p):
            raise SemanticError(f"{p} is not prime")
        self.prime = p

    def coerce(self, x) -> int:
        if isinstance(x, int):
            return x % self.prime
        if isinstance(x, Fraction):
            if x.denominator % self.prime == 0:
                raise SemanticError(f"denominator of {x} vanishes mod {self.prime}")
            return x.numerator * pow(x.denominator, -1, self.prime) % self.prime
        raise FieldMismatchError(f"cannot coerce {type(x).__name__} into prime field")

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
