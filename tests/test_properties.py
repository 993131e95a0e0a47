"""Randomized invariance suite.

Each family below runs twenty seeded cases over a rotating pool of small
graphs so the invariants get exercised on loops, chains, and mixed
dimensions rather than a single lucky topology.
"""
from __future__ import annotations

import itertools
import random
from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

from tngeom import (
    QQ,
    PrimeField,
    Matrix,
    act_curve,
    apply_end,
    chain_graph,
    contract_network,
    flatten,
    loop_graph,
    mlrank,
    random_instance,
    random_tensor,
    rank,
)
from tngeom.curves import MatrixCurve
from tngeom.networks import NetworkGraph, contraction_plan
from tngeom.tensors import Tensor, mode_apply, tensordot

from oracles import (
    coefficient,
    contract_in_order,
    eval_multilinear,
    evaluate_curve,
    flip_edge,
    gauge_transform,
    inverse,
    kernel_basis,
    kron,
    leibniz_act,
    mat_apply,
    mat_transpose,
    random_invertible,
    random_matrix,
    rank_modulo_primes,
)

# graph pool shared by the network-level families; seed picks one
GRAPHS = [
    loop_graph((2, 2, 2)),
    loop_graph((2, 3, 2)),
    loop_graph((3, 2, 2, 3)),
    chain_graph((2, 4, 3), (2, 2)),
    chain_graph((3, 6, 2), (3, 2)),
    chain_graph((2, 4, 4, 2), (2, 2, 2)),
]

TENSOR_SHAPES = [(2, 2, 2), (2, 3, 2), (3, 3, 3), (2, 2, 3, 2), (4, 2, 3)]

PRIMES = [2**31 - 1, 4294967311]


def _case(seed: int):
    g = GRAPHS[seed % len(GRAPHS)]
    return g, random_instance(g, seed=seed)


@pytest.mark.parametrize("seed", range(20))
def test_orientation_flip_preserves_contraction(seed):
    g, inst = _case(seed)
    base = contract_network(inst)
    for e in g.edges:
        assert contract_network(flip_edge(inst, e.id)) == base


@pytest.mark.parametrize("seed", range(20))
def test_edge_gauge_preserves_contraction(seed):
    g, inst = _case(seed)
    base = contract_network(inst)
    for i, e in enumerate(g.edges):
        gm = random_invertible(e.dim, seed=7_000 + 31 * seed + i)
        assert contract_network(gauge_transform(inst, e.id, gm)) == base


@pytest.mark.parametrize("seed", range(20))
def test_first_order_term_matches_leibniz(seed):
    shape = TENSOR_SHAPES[seed % len(TENSOR_SHAPES)]
    t = random_tensor(shape, seed=seed)
    maps = [random_matrix(n, n, seed=500 + 13 * seed + j) for j, n in enumerate(shape)]
    curves = [
        MatrixCurve(((0, Matrix.identity(n, QQ)), (1, maps[j])))
        for j, n in enumerate(shape)
    ]
    expansion = act_curve(t, curves)
    assert coefficient(expansion, 0) == t
    first = coefficient(expansion, 1)
    want = leibniz_act(t, maps)
    if want.is_zero():
        assert first is None
    else:
        assert first == want


# graphs that contract_network splits into a prefix and a suffix of graph order: loops, chains, trees with extra edges
SPLIT_GRAPHS = [
    loop_graph((2,) * 5),
    loop_graph((2,) * 6),
    chain_graph((2, 4, 4, 4, 2), (2, 2, 2, 2)),
    chain_graph((3, 2, 4, 2, 3, 2), (3, 2, 2, 2, 2)),
    NetworkGraph.build([(3, 2), (1, 3), (4, 2), (2, 2), (5, 3), (6, 2)],
                       [(1, 3, 1, 2), (2, 1, 4, 2), (3, 4, 2, 2), (4, 1, 5, 3), (5, 5, 6, 2), (6, 6, 3, 2), (7, 2, 5, 1)]),
    NetworkGraph.build([(1, 2), (2, 3), (3, 2), (4, 2), (5, 2)],
                       [(1, 1, 2, 2), (2, 2, 3, 2), (3, 2, 4, 3), (4, 4, 5, 2), (5, 5, 1, 2), (6, 3, 4, 2)]),
]


@pytest.mark.parametrize("seed", range(20 + 2 * len(SPLIT_GRAPHS)))
def test_contraction_order_independence(seed):
    if seed < 20:
        g, inst = _case(seed)
    else:  # each split graph over Q and over Fp
        g = SPLIT_GRAPHS[(seed - 20) // 2]
        assert contraction_plan(g)[0] < len(g.vertices)
        inst = random_instance(g, seed=seed, field=(QQ, PrimeField(PRIMES[0]))[seed % 2])
    vids = [v.id for v in g.vertices]
    orders = list(itertools.permutations(vids))
    if len(orders) > 6:
        orders = orders[:: len(orders) // 6]
    results = {contract_in_order(inst, o) for o in orders} | {contract_network(inst)}
    assert len(results) == 1


@pytest.mark.parametrize("seed", range(20))
def test_mlrank_invariant_under_invertible_maps(seed):
    shape = TENSOR_SHAPES[seed % len(TENSOR_SHAPES)]
    t = random_tensor(shape, seed=100 + seed)
    maps = [random_invertible(n, seed=900 + 17 * seed + j) for j, n in enumerate(shape)]
    moved = apply_end(t, maps)
    assert mlrank(moved) == mlrank(t)
    undone = apply_end(moved, [inverse(m) for m in maps])
    assert undone == t


@pytest.mark.parametrize("seed", range(20))
def test_rank_agrees_with_two_modular_ranks(seed):
    rows = 2 + seed % 5
    cols = 2 + (seed * 3) % 6
    m = random_matrix(rows, cols, seed=seed, bound=999)
    r = rank(m)
    assert rank_modulo_primes(m, PRIMES) == [r, r]


# a few hypothesis-driven cross checks on top of the seeded grids


@given(st.integers(min_value=0, max_value=10**6), st.sampled_from(range(len(GRAPHS))))
def test_flip_then_flip_is_identity(seed, gi):
    g = GRAPHS[gi]
    inst = random_instance(g, seed=seed)
    eid = g.edges[seed % len(g.edges)].id
    assert flip_edge(flip_edge(inst, eid), eid).tensors == inst.tensors


@given(st.integers(min_value=0, max_value=10**6))
def test_modular_flatten_ranks_match_rational(seed):
    t = random_tensor((2, 3, 2), seed=seed, bound=99)
    for axis in range(3):
        m = flatten(t, axis)
        r = rank(m)
        assert rank_modulo_primes(m, PRIMES) == [r, r]


@given(st.integers(min_value=0, max_value=10**6))
def test_gauge_then_inverse_gauge_restores_instance(seed):
    g = GRAPHS[seed % len(GRAPHS)]
    inst = random_instance(g, seed=seed)
    e = g.edges[seed % len(g.edges)]
    gm = random_invertible(e.dim, seed=seed + 1)
    back = gauge_transform(gauge_transform(inst, e.id, gm), e.id, inverse(gm))
    assert back.tensors == inst.tensors


def test_prime_field_contraction_matches_rational_reduction():
    # same seed gives structurally matching instances; contraction then
    # reduces entrywise mod p
    p = PRIMES[0]
    fp = PrimeField(p)
    g = GRAPHS[1]
    for seed in range(5):
        over_q = contract_network(random_instance(g, seed=seed))
        over_p = contract_network(random_instance(g, seed=seed, field=fp))
        lifted = {idx: fp.coerce(val) for idx, val in over_q.nonzeros()}
        got = dict(over_p.nonzeros())
        assert {k: v for k, v in lifted.items() if v != fp.zero} == got


def _entries(rng, n: int) -> list[int]:
    """n ints, a third of them zero, the others of up to 40 bits of either sign, so most pass the prime."""
    return [0 if rng.random() < 1 / 3 else rng.randint(-2**40, 2**40) for _ in range(n)]


def _assert_residues(over_p, over_q, fp):
    """over_p stores canonical residues only, and they are over_q's values reduced mod p."""
    assert over_p.field == fp and type(over_p) is type(over_q) and over_p.shape == over_q.shape
    assert all(type(v) is int and 0 < v < fp.prime for v in over_p._nz.values())
    assert over_p._nz == {k: r for k, v in over_q._nz.items() if (r := fp.coerce(v))}


def _assert_scalars(over_p, over_q, fp):
    assert len(over_p) == len(over_q)
    for x, y in zip(over_p, over_q):
        assert type(x) is int and 0 <= x < fp.prime and x == fp.coerce(y)


@given(st.integers(min_value=0, max_value=10**6), st.sampled_from(PRIMES))
def test_prime_field_values_stay_canonical_residues(seed, p):
    # the packed elimination's slot width assumes every slot starts below the prime
    rng = random.Random(seed)
    fp = PrimeField(p)

    def both(build, n):
        """The same ints read over Fp and over Q."""
        ents = _entries(rng, n)
        return build(ents, fp), build(ents, QQ)

    pairs = {
        "a": both(lambda e, f: Matrix(3, 4, e, f), 12),
        "b": both(lambda e, f: Matrix(3, 4, e, f), 12),
        "c": both(lambda e, f: Matrix(4, 2, e, f), 8),
        "s": both(lambda e, f: Matrix(3, 3, e, f), 9),
        "t": both(lambda e, f: Tensor((4, 2, 3), e, f), 24),
        "u": both(lambda e, f: Tensor((3, 2), e, f), 6),
    }
    frac = Fraction(rng.randint(1, 10**6), rng.randint(2, 10**6))
    t_value = rng.randint(1, p - 1) + p * rng.randint(0, 2**9)  # nonzero mod p
    ops = [
        lambda a, b, **_: a + b,
        lambda a, b, **_: a - b,
        lambda a, **_: -a,
        lambda a, **_: a.scale(2**45 + 3),
        lambda a, **_: a.scale(frac),
        lambda a, c, **_: a @ c,
        lambda a, c, **_: kron(a, c),
        lambda a, **_: mat_transpose(a),
        lambda t, u, **_: tensordot(t, u, [(2, 0)]),
        lambda t, a, **_: mode_apply(t, a, 0),
        lambda t, s, **_: leibniz_act(t, [None, None, s]),
        lambda t, **_: flatten(t, 1),
        lambda s, **_: evaluate_curve(MatrixCurve(((-2, s), (0, mat_transpose(s)), (1, s @ s))), t_value),
    ]
    for op in ops:
        _assert_residues(op(**{k: v[0] for k, v in pairs.items()}), op(**{k: v[1] for k, v in pairs.items()}), fp)
    # a unit lower times a unit upper triangular matrix has determinant 1 over Q and mod p
    lower = [[int(i == j) or (rng.randint(-2**40, 2**40) if i > j else 0) for j in range(4)] for i in range(4)]
    upper = [[int(i == j) or (rng.randint(-2**40, 2**40) if i < j else 0) for j in range(4)] for i in range(4)]
    unimodular = [Matrix.from_rows(lower, f) @ Matrix.from_rows(upper, f) for f in (fp, QQ)]
    _assert_residues(inverse(unimodular[0]), inverse(unimodular[1]), fp)
    wide = both(lambda e, f: Matrix(2, 5, e, f), 10)
    basis = [kernel_basis(m) for m in wide]
    assert len(basis[0]) == len(basis[1]) == 5 - rank(wide[1])
    for vp, vq in zip(*basis):
        _assert_scalars(vp, vq, fp)
    vec = [rng.randint(-2**40, 2**40), frac, -frac, 0]
    _assert_scalars(mat_apply(pairs["a"][0], vec), mat_apply(pairs["a"][1], vec), fp)
    args = [_entries(rng, n) for n in (4, 2, 3)]
    _assert_scalars([eval_multilinear(pairs["t"][0], args)], [eval_multilinear(pairs["t"][1], args)], fp)
