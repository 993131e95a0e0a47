import itertools
import os
import tracemalloc
from fractions import Fraction
from math import prod

import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from tngeom import jsonio
from tngeom.errors import SemanticError, ShapeError
from tngeom.fields import QQ, PrimeField
from tngeom.linalg import Matrix, multi_index, rank
from tngeom.tensors import (
    Tensor,
    _offsets,
    apply_end,
    contract_pair,
    flatten,
    lin_index,
    mlrank,
    mode_apply,
    outer,
    random_tensor,
    tensordot,
    transpose_axes,
)
from tngeom.zoo import mmult

from oracles import (
    eval_multilinear,
    eval_trilinear,
    identity_trace,
    leibniz_act,
    mat_apply,
    merge_axes,
    naive_tensordot,
    random_invertible,
    random_matrix,
    trace_product,
)


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


FP = PrimeField(2**31 - 1)


@st.composite
def contractions(draw):
    """Two tensors of order 0 to 5, axes of size 1 to 4, and pairs of axes to contract, over either
    field.  Entries are sparse, often zero, and in {-1, 0, 1} one time in two, so sums cancel."""
    field = draw(st.sampled_from([QQ, FP]))
    shape_a = draw(st.lists(st.integers(1, 4), max_size=5))
    npairs = draw(st.integers(0, len(shape_a)))
    axes_a = draw(st.permutations(range(len(shape_a))))[:npairs]
    order_b = draw(st.integers(npairs, 5))
    axes_b = draw(st.permutations(range(order_b)))[:npairs]
    shape_b = [shape_a[axes_a[axes_b.index(k)]] if k in axes_b else 1 for k in range(order_b)]
    room = 4096 // prod(shape_a)  # the dense sum visits prod(shape_a) * (b's free cells) products
    for k in range(len(shape_b)):
        if k not in axes_b:
            shape_b[k] = draw(st.integers(1, max(1, min(4, room))))
            room //= shape_b[k]
    scalars = draw(st.sampled_from([st.integers(-1, 1), st.integers(-5, 5) | st.fractions(max_denominator=7)]))
    tensors = []
    for shape in (shape_a, shape_b):
        cells = list(itertools.product(*map(range, shape)))
        items = draw(st.dictionaries(st.sampled_from(cells), scalars, max_size=min(len(cells), 40)))
        tensors.append(Tensor.from_nonzeros(shape, items, field))
    return *tensors, list(zip(axes_a, axes_b))


@given(contractions())
@example((Tensor((2, 2), [1, 1, 2, 2]), Tensor((2,), [1, -1]), [(1, 0)]))  # cancels to zero, the larger one first
@example((Tensor((2,), [1, -1]), Tensor((2, 2), [1, 2, 1, 2]), [(0, 0)]))  # and the larger one second
@example((Tensor.zeros((3, 2), FP), Tensor((2, 3), [1, 2, 3, 4, 5, 6], FP), []))
@example((Tensor((), [3]), Tensor((2,), [5, 0]), []))
@example((Tensor((2, 3), [1, 2, 3, 4, 5, 6]), Tensor((3, 2), [1, 0, 2, 1, 0, 7]), [(1, 0), (0, 1)]))
def test_tensordot_matches_a_dense_sum(case):
    a, b, pairs = case
    got = tensordot(a, b, pairs)
    assert got == naive_tensordot(a, b, pairs)
    # with the operands swapped, the grouped one is the other one, and the result's axes move
    free_b = b.order - len(pairs)
    swapped = tensordot(b, a, [(j, i) for i, j in pairs])
    assert got == transpose_axes(swapped, [*range(free_b, got.order), *range(free_b)])


@given(st.lists(st.integers(1, 6), max_size=7), st.data())
def test_offsets_decode_every_index(shape, data):
    # a run of axes shares one table, an axis longer than the tensor's nonzeros has none
    shape = tuple(shape)
    weights = data.draw(st.lists(st.integers(1, 50), min_size=len(shape), max_size=len(shape)))
    nnz = data.draw(st.integers(0, prod(shape)))
    decode = _offsets(shape, nnz, weights)
    for flat in data.draw(st.lists(st.integers(0, prod(shape) - 1), max_size=20)):
        assert decode(flat) == sum(i * w for i, w in zip(multi_index(flat, shape), weights))


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


@st.composite
def traces(draw):
    """A tensor of order 2 to 5, axes of size 1 to 4, two of them equal, and that pair, over either field.
    Entries are sparse and often zero, and the diagonal often cancels."""
    field = draw(st.sampled_from([QQ, FP]))
    shape = draw(st.lists(st.integers(1, 4), min_size=2, max_size=5))
    axis_a, axis_b = draw(st.permutations(range(len(shape))))[:2]
    shape[axis_b] = shape[axis_a]
    scalars = st.integers(-1, 1) | st.integers(-5, 5) | st.fractions(max_denominator=7)
    cells = list(itertools.product(*map(range, shape)))
    items = draw(st.dictionaries(st.sampled_from(cells), scalars, max_size=min(len(cells), 40)))
    return Tensor.from_nonzeros(shape, items, field), axis_a, axis_b


@given(traces())
@example((Tensor((2, 2), [1, 0, 0, -1]), 0, 1))  # the trace cancels to zero
@example((Tensor((2, 2), [1, 0, 0, 2], FP), 1, 0))
def test_contract_pair_matches_the_identity_contraction(case):
    t, axis_a, axis_b = case
    assert contract_pair(t, axis_a, axis_b) == identity_trace(t, axis_a, axis_b)


def test_contract_pair_holds_no_identity():
    # three nonzeros on axes of 10^5: the trace reads them once, where a d x d identity took 11 MB
    d = 10**5
    t = Tensor.from_nonzeros((d, 3, d), {(0, 1, 0): 2, (7, 2, 7): 3, (5, 0, 4): 1})
    tracemalloc.start()
    try:
        traced = contract_pair(t, 2, 0)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert dict(traced.nonzeros()) == {(1,): 2, (2,): 3}
    assert peak < 2**16


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
    want = outer(outer(Tensor((2,), mat_apply(x, [1, 2])), v), w)
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
    # each step allocates in proportion to the nonzeros, not to the 10^12 cells or the axes of 10^4
    tracemalloc.start()
    try:
        _far_too_large_steps(10**4)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2**20


def _far_too_large_steps(n):
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
    small = Tensor.from_nonzeros((2, n), {(0, 5): 1, (1, 1): 10, (1, 0): 7})
    dot = tensordot(t, small, [(2, 1)])
    assert dot.shape == (n, n, 2)
    assert dict(dot.nonzeros()) == {(0, 0, 0): 2, (7, 7, 1): 30, (n - 1, 3, 1): -7}
    jsonio.dump({"tensor": t, "dot": dot}, os.devnull)


def test_matrix_and_two_axis_tensor_differ():
    m = Matrix.from_rows([[1, 2], [0, 3]])
    t = Tensor((2, 2), [1, 2, 0, 3])
    assert m.shape == t.shape and m.entries == t.entries
    assert m != t and t != m
    assert flatten(t, 0) == m
