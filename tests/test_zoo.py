import itertools
from fractions import Fraction

import pytest

from tngeom.errors import SemanticError, ShapeError
from tngeom.fields import QQ, PrimeField
from tngeom.linalg import Matrix
from tngeom.tensors import apply_end, mlrank, transpose_axes
from tngeom.zoo import (
    Splitting,
    _composition_splitting,
    diagonal_splitting,
    imm_loop,
    m_tilde_formula,
    mmult,
)

from oracles import block_splitting, eval_multilinear, eval_trilinear, mat_apply, random_matrix, trace_product


def as_rows(m, e):
    return [[Fraction(m.at(i, j)) for j in range(e)] for i in range(e)]


def test_mmult_smallest():
    assert mmult(1, 1, 1).entries == (Fraction(1),)


def test_mmult_e2_support():
    m = mmult(2, 2, 2)
    vals = [v for _, v in m.nonzeros()]
    assert len(vals) == 8 and all(v == 1 for v in vals)
    assert m.shape == (4, 4, 4)


@pytest.mark.parametrize("dims", [(2, 2, 2), (2, 3, 4), (3, 2, 2), (1, 2, 3), (3, 1, 2)])
@pytest.mark.parametrize("seed", range(3))
def test_mmult_is_trace_form(dims, seed):
    e2, e3, e1 = dims
    m = mmult(e2, e3, e1)
    p = random_matrix(e2, e3, seed=seed, bound=9)
    q = random_matrix(e3, e1, seed=seed + 10, bound=9)
    r = random_matrix(e1, e2, seed=seed + 20, bound=9)
    got = eval_trilinear(m, p, q, r)
    want = trace_product([
        [[Fraction(p.at(i, j)) for j in range(e3)] for i in range(e2)],
        [[Fraction(q.at(i, j)) for j in range(e1)] for i in range(e3)],
        [[Fraction(r.at(i, j)) for j in range(e2)] for i in range(e1)],
    ])
    assert got == want


@pytest.mark.parametrize("dims", [(2, 2), (2, 2, 2, 2), (2, 3, 2, 3), (1, 3), (2, 1, 3)])
@pytest.mark.parametrize("seed", range(3))
def test_imm_loop_is_cyclic_trace_form(dims, seed):
    t = imm_loop(dims)
    n = len(dims)
    mats = []
    args = []
    for j in range(n):
        rows, cols = dims[(j - 1) % n], dims[j]
        x = random_matrix(rows, cols, seed=seed * 10 + j, bound=9)
        args.append(x)
        mats.append([[Fraction(x.at(a, b)) for b in range(cols)] for a in range(rows)])
    assert eval_multilinear(t, args) == trace_product(mats)


def test_imm_loop_matches_mmult_up_to_factor_naming():
    # both are the triangle trace tensor; the constructors index factors
    # differently, so compare through the shared trilinear form
    a = imm_loop((2, 2, 2))
    b = mmult(2, 2, 2)
    assert a.shape == b.shape
    assert a == b or a == transpose_axes(b, (0, 1, 2))
    assert imm_loop((2, 3, 4)).shape == (4 * 2, 2 * 3, 3 * 4)


def test_imm_loop_needs_two_factors():
    with pytest.raises(SemanticError):
        imm_loop((2,))


def test_m_tilde_formula_e2_entries():
    t = m_tilde_formula(2)
    vals = sorted(v for _, v in t.nonzeros())
    assert vals == [1, 1, 1, 1, 1, 1]
    # each diagonal triple (ii, ii, ii) is present, with coefficient 1
    entries = dict(t.nonzeros())
    for i in range(2):
        assert entries.get((i * 2 + i, i * 2 + i, i * 2 + i)) == 1
    assert mlrank(t) == (4, 4, 4)


def test_m_tilde_formula_requires_e2():
    with pytest.raises(SemanticError):
        m_tilde_formula(1)


@pytest.mark.parametrize("e", [2, 3])
@pytest.mark.parametrize("seed", range(20))
def test_m_tilde_formula_is_projected_trace_sum(e, seed):
    # the explicit tensor evaluates as the three mixed projected traces
    t = m_tilde_formula(e)
    p = random_matrix(e, e, seed=seed, bound=9)
    q = random_matrix(e, e, seed=seed + 100, bound=9)
    r = random_matrix(e, e, seed=seed + 200, bound=9)

    def parts(m):
        diag = [[m.at(i, j) if i == j else Fraction(0) for j in range(e)] for i in range(e)]
        off = [[m.at(i, j) if i != j else Fraction(0) for j in range(e)] for i in range(e)]
        return diag, off

    p0, p1 = parts(p)
    q0, q1 = parts(q)
    r1, r0 = parts(r)  # third factor keeps the off-diagonal part at level 0
    want = (
        trace_product([p0, q0, r1])
        + trace_product([p0, q1, r0])
        + trace_product([p1, q0, r0])
    )
    assert eval_trilinear(t, p, q, r) == want


def test_splitting_validation():
    ident = Matrix.identity(4)
    s = Splitting(ident, ident, ident)
    assert all(p == ident for p in s.projectors())
    assert all(c.is_zero() for c in s.complements())
    with pytest.raises(SemanticError):
        Splitting(ident.scale(2), ident, ident)  # not idempotent
    with pytest.raises(ShapeError):
        Splitting(Matrix.zeros(4, 3), ident, ident)


def test_diagonal_splitting_patterns():
    s = diagonal_splitting(2)
    x0, y0, z0 = s.projectors()
    # factors 1,2 keep the diagonal cells of a 2x2 matrix space
    m = [Fraction(v) for v in (1, 2, 3, 4)]
    assert mat_apply(x0, m) == [1, 0, 0, 4]
    assert mat_apply(y0, m) == [1, 0, 0, 4]
    # factor 3 keeps the off-diagonal cells
    assert mat_apply(z0, m) == [0, 2, 3, 0]
    for p in s.projectors():
        assert p @ p == p
    with pytest.raises(SemanticError):
        diagonal_splitting(1)


def test_block_splitting_patterns():
    s = block_splitting(2, 1, 2, 1, 2, 1)
    for p in s.projectors():
        assert p @ p == p
    x0, _, z0 = s.projectors()
    # factors 1,2 keep the diagonal blocks of a (2+1)-split 3x3 matrix
    m = [Fraction(k + 1) for k in range(9)]
    out = mat_apply(x0, m)
    diag_cells = {(0, 0), (0, 1), (1, 0), (1, 1), (2, 2)}
    for i in range(3):
        for j in range(3):
            want = m[i * 3 + j] if (i, j) in diag_cells else 0
            assert out[i * 3 + j] == want
    # the third factor keeps the complementary anti blocks
    out3 = mat_apply(z0, m)
    for i in range(3):
        for j in range(3):
            want = m[i * 3 + j] if (i, j) not in diag_cells else 0
            assert out3[i * 3 + j] == want
    with pytest.raises(SemanticError):
        block_splitting(2, 0, 1, 1, 1, 1)


def _kept_cells(p, cols):
    """The (row, col) cells a coordinate projector keeps; it must be a 0/1 diagonal."""
    cells = dict(p.nonzeros())
    assert all(i == j and v == 1 for (i, j), v in cells.items())
    return {divmod(k, cols) for k, _ in cells}


def _assert_keeps(s, dims, same_block):
    """Factor j of s acts on rows x cols matrices; compare its kept cells with the predicate."""
    for p, (rows, cols), keep in zip(s.projectors(), dims, same_block):
        want = {(i, j) for i in range(rows) for j in range(cols) if keep(i, j)}
        assert _kept_cells(p, cols) == want


@pytest.mark.parametrize("field", [QQ, PrimeField(2**31 - 1)])
@pytest.mark.parametrize("e", range(2, 9))
def test_diagonal_splitting_keeps_the_diagonal_cells(e, field):
    s = diagonal_splitting(e, field)
    assert s.field == field
    diag = lambda i, j: i == j  # noqa: E731
    _assert_keeps(s, [(e, e)] * 3, [diag, diag, lambda i, j: i != j])


@pytest.mark.parametrize("field", [QQ, PrimeField(2**31 - 1)])
def test_block_splitting_keeps_the_diagonal_blocks(field):
    for e1p, e1pp, e2p, e2pp, e3p, e3pp in itertools.product(range(1, 4), repeat=6):
        s = block_splitting(e1p, e1pp, e2p, e2pp, e3p, e3pp, field)
        e1, e2, e3 = e1p + e1pp, e2p + e2pp, e3p + e3pp
        _assert_keeps(s, [(e2, e3), (e3, e1), (e1, e2)], [
            lambda i, j: (i < e2p) == (j < e3p),
            lambda i, j: (i < e3p) == (j < e1p),
            lambda i, j: (i < e1p) != (j < e2p),
        ])


@pytest.mark.parametrize("parts", [
    ((1, 2, 1), (2, 1, 1), (1, 1, 3)),
    ((3, 1, 1), (1, 1, 1), (1, 2, 2)),
    ((1, 1, 1, 1), (2, 1, 1, 1), (1, 2, 1, 2)),
    ((1, 2, 1, 1), (1, 1, 1, 1), (2, 1, 1, 1)),
])
def test_composition_splitting_annihilates_rectangular_mmult(parts):
    # the power-0 term of the splitting curve vanishes for k = 3 and 4 parts
    e1, e2, e3 = map(sum, parts)
    s = _composition_splitting(*parts)
    m = mmult(e2, e3, e1)
    assert apply_end(m, list(s.projectors())).is_zero()
    assert not apply_end(m, list(s.complements())).is_zero()


def test_block_splitting_e2_coincides_with_diagonal():
    assert block_splitting(1, 1, 1, 1, 1, 1).projectors() == diagonal_splitting(2).projectors()


@pytest.mark.parametrize("make", [
    lambda: diagonal_splitting(2),
    lambda: diagonal_splitting(3),
    lambda: block_splitting(1, 1, 1, 1, 1, 1),
    lambda: block_splitting(2, 1, 2, 1, 2, 1),
    lambda: block_splitting(2, 2, 2, 2, 2, 2),
])
def test_projected_trace_vanishes(make):
    s = make()
    e2 = s.projectors()[0].rows
    e = int(e2**Fraction(1, 2))
    assert e * e == e2
    m = mmult(e, e, e)
    assert apply_end(m, list(s.projectors())).is_zero()


def test_all_identity_projectors_do_not_vanish():
    ident = Matrix.identity(4)
    s = Splitting(ident, ident, ident)
    m = mmult(2, 2, 2)
    assert not apply_end(m, list(s.projectors())).is_zero()
