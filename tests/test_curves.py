from fractions import Fraction

import pytest

from tngeom.curves import (
    MatrixCurve,
    TensorLaurent,
    act_curve,
    curve_from_splitting,
    leading_term,
)
from tngeom.errors import SemanticError, ShapeError
from tngeom.linalg import Matrix, random_matrix
from tngeom.tensors import Tensor, apply_end, leibniz_act, random_tensor
from tngeom.zoo import Splitting, diagonal_splitting, mmult

from oracles import interpolate_coefficients, tensor_values, vanishing_check


def test_curve_validation():
    ident = Matrix.identity(2)
    with pytest.raises(SemanticError):
        MatrixCurve(())
    with pytest.raises(SemanticError):
        MatrixCurve(((1, ident), (0, ident)))  # powers must increase
    with pytest.raises(ShapeError):
        MatrixCurve(((0, Matrix.zeros(2, 3)),))
    c = MatrixCurve(((-1, ident), (2, ident.scale(3))))
    assert c.size == 2
    assert c.shifted(2).terms[0][0] == 1


def test_curve_evaluation():
    ident = Matrix.identity(2)
    x = random_matrix(2, 2, seed=1, bound=5)
    c = MatrixCurve(((0, ident), (1, x)))
    assert c.evaluate(0) == ident
    assert c.evaluate(2) == ident + x.scale(2)
    neg = MatrixCurve(((-1, x),))
    assert neg.evaluate(2) == x.scale(Fraction(1, 2))
    with pytest.raises(SemanticError):
        neg.evaluate(0)


def test_negative_powers_stay_exact():
    # an integer t is a rational int, and t**-k must not become a float
    x = Matrix.from_rows([[3, 0], [1, -6]])
    m = MatrixCurve(((-2, x), (0, Matrix.identity(2)))).evaluate(3)
    assert m == Matrix.from_rows([[Fraction(4, 3), 0], [Fraction(1, 9), Fraction(1, 3)]])
    assert all(type(v) in (int, Fraction) for v in m.entries)
    t = Tensor((2,), [3, 9])
    laurent = TensorLaurent(((-1, t), (1, t))).evaluate(2)
    assert laurent == Tensor((2,), [Fraction(15, 2), Fraction(45, 2)])
    assert all(type(v) in (int, Fraction) for v in laurent.entries)


def test_constant_curves_reproduce_tensor():
    t = random_tensor((2, 2, 2), seed=2, bound=9)
    curves = [MatrixCurve.constant(Matrix.identity(2)) for _ in range(3)]
    exp = act_curve(t, curves)
    assert exp.terms == ((0, t),)
    assert leading_term(exp) == (0, t)


def test_single_slot_homogeneity():
    t = random_tensor((2, 2, 2), seed=3, bound=9)
    x = random_matrix(2, 2, seed=4, bound=9)
    curves = [
        MatrixCurve(((1, x),)),
        MatrixCurve.constant(Matrix.identity(2)),
        MatrixCurve.constant(Matrix.identity(2)),
    ]
    exp = act_curve(t, curves)
    assert [p for p, _ in exp.terms] == [1]
    assert exp.terms[0][1] == apply_end(t, [x, None, None])


@pytest.mark.parametrize("seed", range(5))
def test_expansion_matches_interpolation_oracle(seed):
    t = random_tensor((2, 2, 2), seed=seed, bound=9)
    curves = []
    for k in range(3):
        a = random_matrix(2, 2, seed=seed * 10 + k, bound=9)
        b = random_matrix(2, 2, seed=seed * 10 + k + 5, bound=9)
        curves.append(MatrixCurve(((0, a), (1, b))))
    exp = act_curve(t, curves)
    # evaluate the curve action at 4 points and interpolate degree-3 coeffs
    samples = []
    for tv in (1, 2, 3, 4):
        acted = apply_end(t, [c.evaluate(tv) for c in curves])
        samples.append((tv, tensor_values(acted)))
    coeffs = interpolate_coefficients(samples)
    for power in range(4):
        got = exp.coefficient(power)
        want = coeffs[power]
        if got is None:
            assert all(x == 0 for x in want)
        else:
            assert tensor_values(got) == want


@pytest.mark.parametrize("seed", range(5))
def test_expansion_consistency_at_one(seed):
    t = random_tensor((2, 3, 2), seed=seed, bound=9)
    curves = []
    for k, s in enumerate(t.shape):
        a = random_matrix(s, s, seed=seed * 20 + k, bound=9)
        b = random_matrix(s, s, seed=seed * 20 + k + 7, bound=9)
        curves.append(MatrixCurve(((0, a), (2, b))))
    exp = act_curve(t, curves)
    assert exp.evaluate(1) == apply_end(t, [c.evaluate(1) for c in curves])


def test_monomial_scaling_shifts_powers():
    t = random_tensor((2, 2, 2), seed=9, bound=9)
    mk = lambda s: MatrixCurve(((0, random_matrix(2, 2, seed=s, bound=9)),
                                (1, random_matrix(2, 2, seed=s + 1, bound=9))))
    curves = [mk(1), mk(3), mk(5)]
    base = act_curve(t, curves)
    shifted = act_curve(t, [curves[0].shifted(2), curves[1], curves[2]])
    assert [(p + 2, c) for p, c in base.terms] == list(shifted.terms)


@pytest.mark.parametrize("seed", range(20))
def test_first_order_term_is_derivation_action(seed):
    # degree-1 coefficient of (I + tX, I + tY, I + tZ) acting on T
    t = random_tensor((2, 2, 2), seed=seed, bound=9)
    mats = [random_matrix(2, 2, seed=seed * 5 + k, bound=9) for k in range(3)]
    curves = [MatrixCurve(((0, Matrix.identity(2)), (1, x))) for x in mats]
    exp = act_curve(t, curves)
    got = exp.coefficient(1)
    want = leibniz_act(t, mats)
    if got is None:
        assert want.is_zero()
    else:
        assert got == want


def test_leading_term_errors_on_zero():
    with pytest.raises(SemanticError):
        leading_term(TensorLaurent(()))


def test_laurent_validation():
    t = random_tensor((2,), seed=1)
    with pytest.raises(SemanticError):
        TensorLaurent(((0, Tensor.zeros((2,))),))
    with pytest.raises(SemanticError):
        TensorLaurent(((1, t), (0, t)))


def test_splitting_curve_on_trace_tensor():
    s = diagonal_splitting(2)
    m = mmult(2, 2, 2)
    assert vanishing_check(m, s)
    exp = act_curve(m, curve_from_splitting(s))
    power, lim = leading_term(exp)
    assert power == 1
    assert exp.coefficient(0) is None
    assert not lim.is_zero()
    # identity projectors leave the original tensor at power 0
    ident = Matrix.identity(4)
    s_id = Splitting(ident, ident, ident)
    assert not vanishing_check(m, s_id)
    exp_id = act_curve(m, curve_from_splitting(s_id))
    assert leading_term(exp_id) == (0, m)


def test_act_curve_validation():
    t = random_tensor((2, 2), seed=1)
    good = MatrixCurve.constant(Matrix.identity(2))
    with pytest.raises(ShapeError):
        act_curve(t, [good])
    with pytest.raises(ShapeError):
        act_curve(t, [good, MatrixCurve.constant(Matrix.identity(3))])
