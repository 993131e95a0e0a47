import itertools
from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

from tngeom.errors import SemanticError, ShapeError
from tngeom.fields import QQ, PrimeField
from tngeom.linalg import Matrix, random_invertible, random_matrix, rank
from tngeom.tensors import (
    Tensor,
    apply_end,
    contract_pair,
    eval_multilinear,
    flatten,
    leibniz_act,
    lin_index,
    mlrank,
    mode_apply,
    multi_index,
    outer,
    random_tensor,
    transpose_axes,
)
from tngeom.zoo import mmult

from oracles import eval_trilinear, merge_axes, trace_product


@given(st.lists(st.integers(1, 5), min_size=1, max_size=4), st.data())
def test_index_round_trip(shape, data):
    shape = tuple(shape)
    total = 1
    for s in shape:
        total *= s
    flat = data.draw(st.integers(0, total - 1))
    assert lin_index(multi_index(flat, shape), shape) == flat


def test_lin_index_rejects_out_of_range():
    with pytest.raises(ShapeError):
        lin_index((2, 0), (2, 3))


def test_outer_examples():
    a = Tensor((2,), [1, 0])
    b = Tensor((2,), [0, 1])
    assert outer(a, b) == Tensor.from_nonzeros((2, 2), {(0, 1): 1})
    one = Tensor((1,), [1])
    t = random_tensor((2, 3), seed=1)
    assert outer(one, t).entries == t.entries
    c = outer(Tensor((2,), [1, 1]), Tensor((2,), [1, -1]))
    assert c == Tensor((2, 2), [1, -1, 1, -1])


def test_contract_pair_trace():
    ident = Tensor((2, 2), [1, 0, 0, 1])
    assert contract_pair(ident, 0, 1) == Tensor((1,), [2])


def test_contract_pair_pairing_pattern():
    # sum_a u_a (x) e_a paired against sum_a w_a (x) e_a gives sum u_a (x) w_a
    u = [random_tensor((3,), seed=s) for s in (1, 2)]
    w = [random_tensor((3,), seed=s) for s in (3, 4)]
    t1 = sum((outer(u[a], Tensor.from_nonzeros((2,), {(a,): 1})) for a in range(2)),
             Tensor.zeros((3, 2)))
    t2 = sum((outer(w[a], Tensor.from_nonzeros((2,), {(a,): 1})) for a in range(2)),
             Tensor.zeros((3, 2)))
    big = outer(t1, t2)
    got = contract_pair(big, 1, 3)
    want = outer(u[0], w[0]) + outer(u[1], w[1])
    assert got == want


def test_contract_pair_orthogonal_slots_vanish():
    a = outer(random_tensor((2,), seed=5), Tensor((2,), [1, 0]))
    b = outer(random_tensor((2,), seed=6), Tensor((2,), [0, 1]))
    assert contract_pair(outer(a, b), 1, 3).is_zero()


@pytest.mark.parametrize("seed", range(5))
def test_contraction_order_independence(seed):
    t = random_tensor((2, 2, 2, 2, 2, 2), seed=seed, bound=9)
    pairs = [(0, 3), (1, 4), (2, 5)]
    results = set()
    for order in itertools.permutations(range(3)):
        cur = t
        # translate axis labels as axes drop out
        remaining = list(range(6))
        for k in order:
            a, b = pairs[k]
            cur = contract_pair(cur, remaining.index(a), remaining.index(b))
            remaining.remove(a)
            remaining.remove(b)
        results.add(cur)
    assert len(results) == 1


def test_mode_apply_matches_direct_sum():
    t = random_tensor((2, 3, 2), seed=3, bound=9)
    m = random_matrix(4, 3, seed=4, bound=9)
    got = mode_apply(t, m, 1)
    assert got.shape == (2, 4, 2)
    for i in range(2):
        for j in range(4):
            for k in range(2):
                want = sum(m.at(j, l) * t.at((i, l, k)) for l in range(3))
                assert got.at((i, j, k)) == want


def test_flatten_and_mlrank():
    u = random_tensor((3,), seed=1)
    v = random_tensor((4,), seed=2)
    w = random_tensor((2,), seed=3)
    t = outer(outer(u, v), w)
    assert mlrank(t) == (1, 1, 1)
    for j in range(3):
        assert rank(flatten(t, j)) == 1
    assert mlrank(Tensor.zeros((2, 2))) == (0, 0)
    m = mmult(2, 2, 2)
    assert flatten(m, 0).rows == 4 and flatten(m, 0).cols == 16
    assert mlrank(m) == (4, 4, 4)


def test_flatten_column_order_keeps_remaining_axes():
    t = Tensor.from_nonzeros((2, 3, 4), {(1, 2, 3): 7})
    f = flatten(t, 1)
    assert f.at(2, 1 * 4 + 3) == 7


def test_apply_end_identity_and_scaling():
    t = random_tensor((2, 3, 2), seed=9, bound=9)
    ids = [Matrix.identity(s) for s in t.shape]
    assert apply_end(t, ids) == t
    ids2 = [Matrix.identity(2).scale(2), None, None]
    assert apply_end(t, ids2) == t.scale(2)


@pytest.mark.parametrize("seed", range(20))
def test_mmult_action_is_trace_of_products(seed):
    # (X,Y,Z) acting on the trace tensor evaluates like trace(X^T P ...)
    # checked through the trilinear pairing with random arguments
    e = 2
    m = mmult(e, e, e)
    rng_args = [random_matrix(e, e, seed=seed * 3 + k, bound=9) for k in range(3)]
    p, q, r = rng_args
    got = eval_trilinear(m, p, q, r)
    want = trace_product([[ [Fraction(x.at(i, j)) for j in range(e)] for i in range(e)] for x in (p, q, r)])
    assert got == want


def test_eval_multilinear_validation():
    t = random_tensor((2, 2), seed=1)
    with pytest.raises(ShapeError):
        eval_multilinear(t, ([1, 0],))
    with pytest.raises(ShapeError):
        eval_multilinear(t, ([1, 0, 0], [0, 1]))
    assert eval_multilinear(Tensor.zeros((2, 2)), ([1, 2], [3, 4])) == 0


def test_leibniz_single_slot_and_scalar_identity():
    u = Tensor((2,), [1, 2])
    v = Tensor((2,), [3, 4])
    w = Tensor((2,), [5, 6])
    t = outer(outer(u, v), w)
    x = random_matrix(2, 2, seed=1, bound=5)
    got = leibniz_act(t, [x, None, None])
    want = outer(outer(Tensor((2,), x.apply([1, 2])), v), w)
    assert got == want
    a, b, c = Fraction(2), Fraction(-1, 3), Fraction(5)
    scalars = [Matrix.identity(2).scale(s) for s in (a, b, c)]
    assert leibniz_act(t, scalars) == t.scale(a + b + c)


def test_leibniz_requires_square_maps():
    t = random_tensor((2, 2), seed=1)
    with pytest.raises(ShapeError):
        leibniz_act(t, [random_matrix(3, 2, seed=0), None])


def test_transpose_and_merge_axes():
    t = random_tensor((2, 3, 4), seed=11, bound=9)
    tt = transpose_axes(t, (2, 0, 1))
    assert tt.shape == (4, 2, 3)
    assert tt.at((3, 1, 2)) == t.at((1, 2, 3))
    fused = merge_axes(t, 1, 2)
    assert fused.shape == (2, 12)
    assert fused.at((1, 2 * 4 + 3)) == t.at((1, 2, 3))


def test_transpose_moves_every_entry_and_returns_the_identity_as_is():
    t = random_tensor((2, 3, 4), seed=11, bound=9)
    for perm in itertools.permutations(range(3)):
        tt = transpose_axes(t, perm)
        assert tt.shape == tuple(t.shape[p] for p in perm)
        for idx in itertools.product(*map(range, t.shape)):
            assert tt.at(tuple(idx[p] for p in perm)) == t.at(idx)
    same = transpose_axes(t, [0, 1, 2])
    assert same is t and same == random_tensor((2, 3, 4), seed=11, bound=9)
    with pytest.raises(ShapeError):
        transpose_axes(t, (0, 1))


@pytest.mark.parametrize("seed", range(20))
def test_mlrank_invariant_under_invertible_action(seed):
    t = mmult(2, 2, 2) if seed % 2 else random_tensor((3, 2, 2), seed=seed, bound=9)
    maps = [random_invertible(s, seed=seed * 7 + k, bound=9) for k, s in enumerate(t.shape)]
    assert mlrank(apply_end(t, maps)) == mlrank(t)


def test_tensor_validation_and_field_mix():
    with pytest.raises(ShapeError):
        Tensor((2, 2), [1, 2, 3])
    with pytest.raises(ShapeError):
        Tensor((0, 2), [])
    fp = PrimeField(2**31 - 1)
    with pytest.raises(SemanticError):
        random_tensor((2,), seed=1) + random_tensor((2,), seed=1, field=fp)
    with pytest.raises(SemanticError):
        mode_apply(random_tensor((2,), seed=1), random_matrix(2, 2, seed=0, field=fp), 0)


def test_sparse_tensor_far_too_large_to_hold_densely():
    n = 10**4
    shape = (n, n, n)
    items = {(0, 0, 5): 2, (7, 7, 1): 3, (n - 1, 3, 0): -1}
    t = Tensor.from_nonzeros(shape, items)
    swap = Matrix.from_nonzeros(n, n, {(0, 7): 1, (7, 0): 1, (n - 1, n - 1): 4})
    assert dict(mode_apply(t, swap, 0).nonzeros()) == {(7, 0, 5): 2, (0, 7, 1): 3, (n - 1, 3, 0): -4}
    tt = transpose_axes(t, (2, 0, 1))
    assert tt.shape == shape and dict(tt.nonzeros()) == {(5, 0, 0): 2, (1, 7, 7): 3, (0, n - 1, 3): -1}
    traced = contract_pair(t, 0, 1)
    assert traced.shape == (n,) and dict(traced.nonzeros()) == {(5,): 2, (1,): 3}
    f = flatten(t, 2)
    assert (f.rows, f.cols) == (n, n * n)
    assert dict(f.nonzeros()) == {(5, 0): 2, (1, 7 * n + 7): 3, (0, (n - 1) * n + 3): -1}
    same = Tensor.from_nonzeros(shape, dict(reversed(list(items.items()))))
    assert t == same and hash(t) == hash(same)
    assert t != tt and t != t.scale(2)


def test_matrix_and_two_axis_tensor_differ():
    m = Matrix.from_rows([[1, 2], [0, 3]])
    t = Tensor((2, 2), [1, 2, 0, 3])
    assert m.shape == t.shape and m.entries == t.entries
    assert m != t and t != m
    assert flatten(t, 0) == m
