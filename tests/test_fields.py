from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

from tngeom.errors import FieldMismatchError, SemanticError
from tngeom.fields import DEFAULT_PRIME, QQ, Fp, PrimeField, is_probable_prime

P = DEFAULT_PRIME
FP = PrimeField(P)


def test_default_prime_is_prime_and_large():
    assert is_probable_prime(P)
    assert P > 2**30


@pytest.mark.parametrize("n,want", [
    (2, True), (3, True), (4, False), (561, False),  # Carmichael number
    (2**31 - 1, True), (2**31, False), (10**9 + 7, True), (10**9 + 9, True),
])
def test_primality(n, want):
    assert is_probable_prime(n) is want


def test_prime_field_rejects_small_or_composite():
    with pytest.raises(SemanticError):
        PrimeField(97)
    with pytest.raises(SemanticError):
        PrimeField(2**31 + 1)  # 2147483649 = 3 * 715827883


@given(st.integers(-10**6, 10**6), st.integers(-10**6, 10**6))
def test_fp_mirrors_integer_arithmetic(a, b):
    x, y = Fp(a, P), Fp(b, P)
    assert (x + y).val == (a + b) % P
    assert (x - y).val == (a - b) % P
    assert (x * y).val == (a * b) % P
    assert (-x).val == (-a) % P


@given(st.integers(1, 10**6))
def test_fp_division_inverts(a):
    x = Fp(a, P)
    assert (x / x).val == 1
    assert ((Fp(1, P) / x) * x).val == 1


def test_fp_division_by_zero():
    with pytest.raises(ZeroDivisionError):
        Fp(1, P) / Fp(0, P)


def test_fp_modulus_mixing_rejected():
    other = PrimeField(2**61 - 1)
    with pytest.raises(FieldMismatchError):
        Fp(1, P) + other.one
    with pytest.raises(FieldMismatchError):
        Fp(1, P) + Fraction(1, 2)


def test_rational_coerce_and_strings():
    assert QQ.coerce(3) == Fraction(3)
    assert QQ.coerce(Fraction(-4, 6)) == Fraction(-2, 3)
    with pytest.raises(FieldMismatchError):
        QQ.coerce(Fp(1, P))


def test_fraction_coercion_into_prime_field():
    half = FP.coerce(Fraction(1, 2))
    assert (half + half).val == 1
    with pytest.raises(SemanticError):
        FP.coerce(Fraction(1, P))


def test_rational_scalars_are_ints_when_integral():
    for x, want in [(3, 3), (Fraction(6, 3), 2), ("4/2", 2), (True, 1), (Fraction(0), 0)]:
        q = QQ.coerce(x)
        assert type(q) is int and q == want
    assert QQ.coerce(Fraction(1, 2)) == Fraction(1, 2) and QQ.coerce("-7/2") == Fraction(-7, 2)
    assert type(QQ.zero) is int and type(QQ.one) is int
    with pytest.raises(FieldMismatchError):
        QQ.coerce(Fp(1, P))


def test_field_equality_and_scalars():
    assert QQ == QQ and FP == PrimeField(P)
    assert FP != PrimeField(2**61 - 1) and QQ != FP
    assert not QQ.zero and QQ.one
    assert not FP.zero and FP.one


@given(st.integers(-50, 50), st.integers(-50, 50), st.integers(-50, 50))
def test_fp_ring_axioms(a, b, c):
    x, y, z = Fp(a, P), Fp(b, P), Fp(c, P)
    assert (x + y) + z == x + (y + z)
    assert (x * y) * z == x * (y * z)
    assert x * (y + z) == x * y + x * z
    assert x + y == y + x and x * y == y * x


def test_fp_power_matches_fraction():
    for base in (-3, 2, 5):
        for k in range(-4, 5):
            assert Fp(base, P) ** k == FP.coerce(Fraction(base) ** k)
    assert Fp(0, P) ** 0 == FP.one and Fraction(0) ** 0 == 1
    assert Fp(0, P) ** 3 == FP.zero
    with pytest.raises(ZeroDivisionError):
        Fp(0, P) ** -2
    with pytest.raises(ZeroDivisionError):
        Fraction(0) ** -2
