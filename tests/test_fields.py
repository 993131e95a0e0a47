from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

from tngeom.errors import FieldMismatchError, SemanticError, SingularMatrixError
from tngeom.fields import DEFAULT_PRIME, QQ, PrimeField, is_probable_prime
from tngeom.linalg import Matrix

from oracles import inverse

P = DEFAULT_PRIME
FP = PrimeField(P)


def test_default_prime_is_prime_and_large():
    assert is_probable_prime(P)
    assert P > 2**30


@pytest.mark.parametrize("n,want", [
    (2, True), (3, True), (4, False), (561, False),  # Carmichael number
    (2**31 - 1, True), (2**31, False), (10**9 + 7, True), (10**9 + 9, True),
    # 399165290221 * 798330580441: a strong pseudoprime to every prime base up to 37
    (318665857834031151167461, False),
])
def test_primality(n, want):
    assert is_probable_prime(n) is want


def test_prime_field_rejects_small_or_composite():
    with pytest.raises(SemanticError):
        PrimeField(97)
    with pytest.raises(SemanticError):
        PrimeField(2**31 + 1)  # 2147483649 = 3 * 715827883


def test_prime_field_rejects_moduli_from_2_64():
    # a prime, but past the range where the primality test is kept exact
    assert is_probable_prime(2**64 + 13)
    with pytest.raises(SemanticError, match=r"below 2\*\*64"):
        PrimeField(2**64 + 13)
    with pytest.raises(SemanticError):
        PrimeField(318665857834031151167461)


@given(st.integers(-10**6, 10**6), st.integers(-10**6, 10**6))
def test_fp_mirrors_integer_arithmetic(a, b):
    # 1 x 1 matrices: the container reduces what the int arithmetic leaves outside [0, P)
    x, y = Matrix(1, 1, [a], FP), Matrix(1, 1, [b], FP)
    assert (x + y).at(0, 0) == (a + b) % P
    assert (x - y).at(0, 0) == (a - b) % P
    assert (x @ y).at(0, 0) == (a * b) % P
    assert (-x).at(0, 0) == (-a) % P
    assert x.scale(b).at(0, 0) == (a * b) % P


@given(st.integers(1, 10**6))
def test_fp_division_inverts(a):
    # division in the prime field is the coercion of a Fraction
    assert FP.coerce(Fraction(a, a)) == 1
    assert FP.coerce(Fraction(1, a)) * a % P == 1
    assert FP.coerce(Fraction(-1, a)) == P - FP.coerce(Fraction(1, a))


def test_fp_division_by_zero():
    for den in (P, -P, 3 * P):
        with pytest.raises(SemanticError):
            FP.coerce(Fraction(1, den))
    with pytest.raises(SingularMatrixError):
        inverse(Matrix(1, 1, [P], FP))


def test_fp_modulus_mixing_rejected():
    # scalars are ints, so the containers keep the moduli apart
    other = PrimeField(2**61 - 1)
    with pytest.raises(SemanticError):
        Matrix.identity(2, FP) + Matrix.identity(2, other)
    with pytest.raises(SemanticError):
        Matrix.identity(2, FP) @ Matrix.identity(2, QQ)
    with pytest.raises(FieldMismatchError):
        FP.coerce(0.5)


def test_rational_coerce_and_strings():
    assert QQ.coerce(3) == Fraction(3)
    assert QQ.coerce(Fraction(-4, 6)) == Fraction(-2, 3)
    assert QQ.coerce("-4/6") == Fraction(-2, 3)


def test_fraction_coercion_into_prime_field():
    half = FP.coerce(Fraction(1, 2))
    assert (half + half) % P == 1 and half == (P + 1) // 2
    with pytest.raises(SemanticError):
        FP.coerce(Fraction(1, P))


def test_prime_field_coerce_returns_canonical_ints():
    cases = [(0, 0), (5, 5), (-1, P - 1), (-P, 0), (P, 0), (P + 3, 3), (2 * P**2 - 7, P - 7),
             (True, 1), (False, 0), (Fraction(-3), P - 3), (Fraction(7, 1), 7)]
    for x, want in cases:
        r = FP.coerce(x)
        assert type(r) is int and r == want and 0 <= r < P
    assert FP.coerce(Fraction(2, 3)) * 3 % P == 2
    assert FP.coerce(Fraction(-1, P + 2)) == P - FP.coerce(Fraction(1, 2))
    assert type(FP.zero) is int and type(FP.one) is int and (FP.zero, FP.one) == (0, 1)
    for bad in (1.0, 0.5, "3", "1/2", None):
        with pytest.raises(FieldMismatchError):
            FP.coerce(bad)
    for den in (P, 2 * P, -P):
        with pytest.raises(SemanticError):
            FP.coerce(Fraction(1, den))


def test_rational_scalars_are_ints_when_integral():
    for x, want in [(3, 3), (Fraction(6, 3), 2), ("4/2", 2), (True, 1), (Fraction(0), 0)]:
        q = QQ.coerce(x)
        assert type(q) is int and q == want
    assert QQ.coerce(Fraction(1, 2)) == Fraction(1, 2) and QQ.coerce("-7/2") == Fraction(-7, 2)
    assert type(QQ.zero) is int and type(QQ.one) is int


def test_field_equality_and_scalars():
    assert QQ == QQ and FP == PrimeField(P)
    assert FP != PrimeField(2**61 - 1) and QQ != FP
    assert not QQ.zero and QQ.one
    assert not FP.zero and FP.one


@given(st.integers(-50, 50), st.integers(-50, 50), st.integers(-50, 50))
def test_fp_ring_axioms(a, b, c):
    # on stored residues: equality of matrices needs every value canonical
    x, y, z = (Matrix(1, 1, [v], FP) for v in (a, b, c))
    assert (x + y) + z == x + (y + z)
    assert (x @ y) @ z == x @ (y @ z)
    assert x @ (y + z) == x @ y + x @ z
    assert x + y == y + x and x @ y == y @ x
    assert x - x == Matrix.zeros(1, 1, FP) and (x - x).is_zero()


def test_fp_power_matches_fraction():
    # a power is raised as a Fraction and coerced, as curves evaluate their terms
    for base in (-3, 2, 5):
        for k in range(-4, 5):
            assert FP.coerce(Fraction(base) ** k) == pow(base, k, P)
    assert FP.coerce(Fraction(0) ** 0) == FP.one
    assert FP.coerce(Fraction(0) ** 3) == FP.zero
    with pytest.raises(ZeroDivisionError):
        Fraction(0) ** -2
