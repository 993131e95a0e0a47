import random
import time
from fractions import Fraction
from math import prod

import pytest
from hypothesis import example, given, strategies as st

from tngeom.errors import SemanticError, ShapeError
from tngeom.linalg import Matrix
from tngeom.networks import (
    MergeStep,
    NetworkGraph,
    TNSInstance,
    chain_graph,
    classify_vertex,
    contract_network,
    contraction_peak,
    contraction_plan,
    expected_dim,
    identity_instance,
    loop_dim_formula,
    loop_graph,
    random_instance,
    reduce_valence_one,
    reduction_preimage,
    supercritical_truncate,
)
from tngeom.tensors import Tensor, mlrank, transpose_axes
from tngeom.jacobian import tns_dim
from tngeom.zoo import imm_loop

from oracles import (
    brute_force_contract,
    contract_in_order,
    flip_edge,
    gauge_transform,
    merge_axes,
    naive_valence_one_reduction,
    random_invertible,
    secant_formula,
    split_cost,
)


def two_vertex_graph(v1=3, v2=3, e=2):
    return NetworkGraph.build([(1, v1), (2, v2)], [(1, 1, 2, e)])


def test_graph_validation():
    with pytest.raises(SemanticError):
        NetworkGraph.build([(1, 2), (1, 3)], [])  # duplicate vertex id
    with pytest.raises(SemanticError):
        NetworkGraph.build([(1, 2)], [(1, 1, 2, 2)])  # dangling endpoint
    with pytest.raises(SemanticError):
        NetworkGraph.build([(1, 2)], [(1, 1, 1, 2)])  # self loop
    with pytest.raises(SemanticError):
        NetworkGraph.build([(1, 0)], [])  # nonpositive dim


def test_classification():
    g = NetworkGraph.build([(1, 4), (2, 3), (3, 5)],
                           [(1, 1, 2, 2), (2, 2, 3, 2), (3, 3, 1, 2)])
    assert classify_vertex(g, 1) == "critical"
    assert classify_vertex(g, 2) == "strictly_sub"
    assert classify_vertex(g, 3) == "strictly_super"


def test_loop_and_chain_constructors():
    g = loop_graph((2, 3, 4))
    assert [v.dim for v in g.vertices] == [8, 6, 12]
    assert all(classify_vertex(g, v.id) == "critical" for v in g.vertices)
    c = chain_graph((2, 4, 2), (2, 2))
    assert len(c.edges) == 2
    with pytest.raises(ShapeError):
        chain_graph((2, 2), (2, 2))


@pytest.mark.parametrize("seed", range(6))
def test_contraction_matches_brute_force_triangle(seed):
    inst = random_instance(loop_graph((2, 2, 2)), seed=seed, bound=9)
    got = contract_network(inst)
    want = brute_force_contract(inst)
    assert {idx: Fraction(v) for idx, v in got.nonzeros()} == want


@pytest.mark.parametrize("seed", range(6))
def test_contraction_matches_brute_force_chain(seed):
    inst = random_instance(chain_graph((2, 4, 3), (2, 3)), seed=seed, bound=9)
    want = brute_force_contract(inst)
    # [1, 3, 2] absorbs vertex 3 while it shares no edge with vertex 1
    for got in (contract_network(inst), contract_in_order(inst, [1, 3, 2])):
        assert {idx: Fraction(v) for idx, v in got.nonzeros()} == want


@pytest.mark.parametrize("seed", range(4))
def test_contraction_matches_brute_force_parallel_edges(seed):
    # two vertices joined by two edges, both contracted in one pass
    inst = random_instance(loop_graph((2, 3)), seed=seed, bound=9)
    got = contract_network(inst)
    want = brute_force_contract(inst)
    assert {idx: Fraction(v) for idx, v in got.nonzeros()} == want


def test_contraction_vertex_order_irrelevant():
    inst = random_instance(loop_graph((2, 2, 2, 2)), seed=3, bound=9)
    base = contract_network(inst)
    assert contract_in_order(inst, [3, 1, 4, 2]) == base


def _connected_multigraph(rng: random.Random) -> NetworkGraph:
    """2-7 vertices with shuffled ids on a random spanning tree, 0-3 extra edges that close
    a cycle or double an edge, random orientations and dims 1..5."""
    n = rng.randint(2, 7)
    vids = rng.sample(range(1, n + 1), n)
    pairs = [(vids[k], vids[rng.randrange(k)]) for k in range(1, n)]
    pairs += [tuple(rng.sample(vids, 2)) for _ in range(rng.randint(0, 3))]
    pairs = [p if rng.random() < 0.5 else p[::-1] for p in pairs]
    rng.shuffle(pairs)
    return NetworkGraph.build([(vid, rng.randint(1, 5)) for vid in vids],
                              [(i + 1, tail, head, rng.randint(1, 5)) for i, (tail, head) in enumerate(pairs)])


def test_the_contraction_plan_admits_what_graph_order_admits():
    # the plan holds no tensor larger than graph order does, so MAX_CONTRACTION_ENTRIES admits the same
    # networks, and it holds no more entries at once; it is the cheapest such split, the latest on a tie
    splits = binding = 0
    for seed in range(1500):
        g = _connected_multigraph(random.Random(seed))
        n, peak = len(g.vertices), contraction_peak(g)
        costs = {k: split_cost(g, k) for k in range(1, n + 1)}
        k, largest, held = contraction_plan(g)
        assert (largest, held) == costs[k] and peak == costs[n][0]
        assert largest <= peak and held <= costs[n][1]
        assert held == min(h for big, h in costs.values() if big <= peak)
        assert k == max(j for j, (big, h) in costs.items() if big <= peak and h == held)
        splits += k < n
        binding += min(h for _, h in costs.values()) < held
    # the cases cover splits, and graphs where a cheaper split would hold a tensor larger than graph order's
    assert splits > 300 and binding > 10


def test_two_vertex_contraction_has_bounded_rank():
    inst = random_instance(two_vertex_graph(), seed=0, bound=9)
    t = contract_network(inst)
    assert t.shape == (3, 3)
    assert mlrank(t) == (2, 2)


def test_identity_instance_gives_loop_tensor():
    g = loop_graph((2, 2, 2))
    assert contract_network(identity_instance(g)) == imm_loop((2, 2, 2))
    g4 = loop_graph((2, 3, 2, 3))
    assert contract_network(identity_instance(g4)) == imm_loop((2, 3, 2, 3))


def test_identity_instance_needs_loop():
    with pytest.raises(SemanticError):
        identity_instance(chain_graph((2, 4, 2), (2, 2)))


def test_zero_slot_kills_contraction():
    g = loop_graph((2, 2, 2))
    inst = random_instance(g, seed=1, bound=9)
    tensors = dict(inst.tensors)
    tensors[2] = Tensor.zeros(g.tensor_shape(2))
    assert contract_network(TNSInstance(g, tensors)).is_zero()


def test_instance_validation():
    g = loop_graph((2, 2, 2))
    inst = random_instance(g, seed=0)
    bad = dict(inst.tensors)
    bad[1] = Tensor.zeros((3, 2, 2))
    with pytest.raises(ShapeError):
        TNSInstance(g, bad)
    missing = dict(inst.tensors)
    del missing[2]
    with pytest.raises(SemanticError):
        TNSInstance(g, missing)


@pytest.mark.parametrize("edge_id", [1, 2, 3])
def test_flip_edge_preserves_contraction(edge_id):
    inst = random_instance(loop_graph((2, 3, 2)), seed=4, bound=9)
    assert contract_network(flip_edge(inst, edge_id)) == contract_network(inst)


def test_flip_edge_is_involution():
    inst = random_instance(two_vertex_graph(), seed=2, bound=9)
    twice = flip_edge(flip_edge(inst, 1), 1)
    assert twice.graph == inst.graph
    assert twice.tensors == inst.tensors


def test_flip_every_edge_of_triangle():
    inst = random_instance(loop_graph((2, 2, 2)), seed=5, bound=9)
    flipped = inst
    for eid in (1, 2, 3):
        flipped = flip_edge(flipped, eid)
    assert contract_network(flipped) == contract_network(inst)


@pytest.mark.parametrize("seed", range(5))
def test_gauge_transform_preserves_contraction(seed):
    inst = random_instance(loop_graph((2, 2, 2)), seed=seed, bound=9)
    g_mat = random_invertible(2, seed=seed + 50, bound=9)
    assert contract_network(gauge_transform(inst, 2, g_mat)) == contract_network(inst)


def test_gauge_transform_identity_and_scalar():
    inst = random_instance(two_vertex_graph(), seed=7, bound=9)
    same = gauge_transform(inst, 1, Matrix.identity(2))
    assert same.tensors == inst.tensors
    scaled = gauge_transform(inst, 1, Matrix.identity(2).scale(2))
    assert scaled.tensors != inst.tensors
    assert contract_network(scaled) == contract_network(inst)


def test_reduce_chain_four_to_two_vertices():
    g = chain_graph((2, 4, 4, 2), (2, 2, 2))
    reduced, log = reduce_valence_one(g)
    assert len(reduced.vertices) == 2
    assert len(reduced.edges) == 1
    assert sorted(v.dim for v in reduced.vertices) == [8, 8]
    assert reduced.edges[0].dim == 2
    assert len(log) == 2
    assert {m.removed for m in log} == {1, 4}


def test_reduce_chain_five_to_three():
    g = chain_graph((2, 4, 5, 4, 2), (2, 2, 2, 2))
    reduced, log = reduce_valence_one(g)
    assert len(reduced.vertices) == 3
    assert len(log) == 2


def test_reduce_no_candidates():
    g = loop_graph((2, 2, 2))
    reduced, log = reduce_valence_one(g)
    assert reduced == g and log == ()


@st.composite
def multigraphs(draw):
    """1-10 vertices with shuffled ids, a random forest, and extra edges that
    close cycles or double an edge."""
    n = draw(st.integers(1, 10))
    vids = draw(st.permutations(range(1, n + 1)))
    pairs = [(vids[k], vids[draw(st.integers(0, k - 1))]) for k in range(1, n) if draw(st.integers(0, 4))]
    if n > 1:
        pairs += draw(st.lists(st.tuples(st.sampled_from(vids), st.sampled_from(vids)).filter(lambda p: p[0] != p[1]),
                               max_size=4))
    eids = draw(st.permutations(range(1, len(pairs) + 1)))
    edges = [(eid, t, h, draw(st.integers(1, 3))) for eid, (t, h) in zip(eids, pairs)]
    return NetworkGraph.build([(vid, draw(st.integers(1, 3))) for vid in vids], edges)


def _assert_reduces_like_the_oracle(g):
    reduced, log = reduce_valence_one(g)
    dims, edges, want = naive_valence_one_reduction({v.id: v.dim for v in g.vertices},
                                                    {e.id: (e.tail, e.head, e.dim) for e in g.edges})
    assert [(m.removed, m.edge, m.target, m.new_dim) for m in log] == want
    assert reduced == NetworkGraph.build(dims.items(), [(eid, *edges[eid]) for eid in sorted(edges)])


@given(multigraphs())
def test_reduce_valence_one_matches_the_rescanning_oracle(g):
    _assert_reduces_like_the_oracle(g)


def test_reduce_valence_one_is_fast_on_a_long_chain():
    # only the last vertex folds at first, and each fold frees the vertex before it
    n = 2000
    g = chain_graph((3,) + (1,) * (n - 1), (2,) * (n - 1))
    start = time.perf_counter()
    reduced, log = reduce_valence_one(g)
    assert time.perf_counter() - start < 1.0
    assert log == tuple(MergeStep(k, k - 1, k - 1, 3 if k == 2 else 1) for k in range(n, 1, -1))
    assert reduced == NetworkGraph.build([(1, 3)], [])
    _assert_reduces_like_the_oracle(chain_graph((3,) + (1,) * 59, (2,) * 59))


def _fold_like_log(t, g, reduced, merges):
    # fuse the contracted axes the way the merge log fused vertices
    owner = [v.id for v in g.vertices]
    for m in merges:
        pz, pw = owner.index(m.removed), owner.index(m.target)
        t = merge_axes(t, pz, pw)
        owner[min(pz, pw)] = m.target
        owner.pop(max(pz, pw))
    return transpose_axes(t, [owner.index(v.id) for v in reduced.vertices])


@pytest.mark.parametrize("seed", range(8))
def test_reduction_preimage_reproduces_contraction(seed):
    # reduction preserves the contracted set: any reduced instance lifts
    # to an instance of the original graph with the same contraction
    graphs = [
        chain_graph((2, 4, 4, 2), (2, 2, 2)),
        chain_graph((2, 6, 3), (2, 3)),
        chain_graph((1, 8, 1, 2, 2), (2, 4, 2, 2)),
    ]
    g = graphs[seed % len(graphs)]
    reduced, merges = reduce_valence_one(g)
    inst = random_instance(reduced, seed=seed)
    lifted = reduction_preimage(g, merges, inst)
    assert lifted.graph == g
    folded = _fold_like_log(contract_network(lifted), g, reduced, merges)
    assert folded == contract_network(inst)


def test_reduction_preimage_rejects_mismatched_instance():
    g = chain_graph((2, 4, 4, 2), (2, 2, 2))
    _, merges = reduce_valence_one(g)
    other = chain_graph((3, 5, 3), (2, 2))
    inst = random_instance(other, seed=0)
    with pytest.raises(SemanticError):
        reduction_preimage(g, merges, inst)


# chain 1(3) -e1-> 2(2) -e2-> 3(2); each log below folds it, or tries to, down to one vertex
_CHAIN_322 = chain_graph((3, 2, 2), (2, 2))


@pytest.mark.parametrize("merges", [
    [MergeStep(removed=3, edge=9, target=2, new_dim=4)],  # unknown edge
    [MergeStep(removed=3, edge=1, target=2, new_dim=4)],  # edge 1 joins 1 and 2, not 3 and 2
    [MergeStep(removed=3, edge=2, target=2, new_dim=5)],  # new_dim is not 2 * 2
    [MergeStep(removed=2, edge=2, target=3, new_dim=4)],  # vertex 2 keeps edge 1
    [MergeStep(removed=3, edge=2, target=2, new_dim=4),
     MergeStep(removed=1, edge=1, target=2, new_dim=12)],  # vertex 1 (dim 3) does not fit in edge 1 (dim 2)
], ids=["unknown-edge", "edge-off-the-pair", "wrong-new-dim", "removed-keeps-an-edge", "removed-larger-than-edge"])
def test_reduction_preimage_refuses_a_malformed_merge_log(merges):
    inst = random_instance(NetworkGraph.build([(2, 12)], []), seed=0)
    with pytest.raises(SemanticError):
        reduction_preimage(_CHAIN_322, merges, inst)


@st.composite
def trees(draw):
    """A tree on 1-9 vertices with shuffled vertex and edge ids, listed out of
    id order, and with random edge orientations."""
    n = draw(st.integers(1, 9))
    vids = draw(st.permutations(range(1, n + 1)))
    eids = draw(st.permutations(range(1, n)))
    vertices = [(vid, draw(st.integers(1, 3))) for vid in vids]
    edges = []
    for k in range(1, n):
        ends = (vids[k], vids[draw(st.integers(0, k - 1))])
        tail, head = ends if draw(st.booleans()) else ends[::-1]
        edges.append((eids[k - 1], tail, head, draw(st.integers(1, 3))))
    return NetworkGraph.build(draw(st.permutations(vertices)), draw(st.permutations(edges)))


@given(trees(), st.integers(0, 10**6))
# nothing folds, and the edges are listed out of id order
@example(NetworkGraph.build([(1, 3), (2, 3), (3, 3)], [(2, 2, 3, 2), (1, 1, 2, 2)]), 0)
def test_reduction_preimage_lifts_any_instance_on_a_tree(g, seed):
    reduced, merges = reduce_valence_one(g)
    inst = random_instance(reduced, seed=seed, bound=9)
    lifted = reduction_preimage(g, merges, inst)
    assert lifted.graph == g
    assert _fold_like_log(contract_network(lifted), g, reduced, merges) == contract_network(inst)


def test_supercritical_truncate():
    g = NetworkGraph.build([(1, 5), (2, 4), (3, 4)],
                           [(1, 1, 2, 2), (2, 2, 3, 2), (3, 3, 1, 2)])
    g2, offset = supercritical_truncate(g)
    assert [v.dim for v in g2.vertices] == [4, 4, 4]
    assert offset == 4
    crit = loop_graph((2, 2, 2))
    same, off0 = supercritical_truncate(crit)
    assert same == crit and off0 == 0
    g3, off3 = supercritical_truncate(two_vertex_graph(5, 7, 2))
    assert [v.dim for v in g3.vertices] == [2, 2]
    assert off3 == 2 * 3 + 2 * 5


def test_expected_dim_loops():
    assert expected_dim(loop_graph((2, 2, 2))) == 37
    assert expected_dim(loop_graph((2, 2, 2, 2))) == 49
    assert loop_dim_formula((2, 2, 2)) == 37
    assert loop_dim_formula((2, 3, 4)) == (4 * 9 + 9 * 16 + 16 * 4) - (4 + 9 + 16 - 1)


def test_expected_dim_two_vertex_secant():
    assert expected_dim(two_vertex_graph(3, 3, 2)) == secant_formula(3, 3, 2)
    assert expected_dim(two_vertex_graph(3, 3, 2)) == 8
    # rank cap: huge edge gives the full matrix space
    assert expected_dim(two_vertex_graph(3, 3, 9)) == 9


@pytest.mark.parametrize("edges", [(2, 2), (1, 3), (2, 3), (1, 1, 2)])
def test_expected_dim_two_vertex_grid_matches_the_jacobian(edges):
    # two vertices joined by several edges (no valence-one fold) give a x b matrices of rank at most
    # r = prod(edges); once r passes min(a, b) every matrix is reached, and the count must not fall
    for a in range(1, 5):
        for b in range(1, 5):
            g = NetworkGraph.build([(1, a), (2, b)], [(k, 1, 2, d) for k, d in enumerate(edges, 1)])
            assert expected_dim(g) == secant_formula(a, b, prod(edges)) == tns_dim(g, seed=0)[0]


def test_expected_dim_reduces_first():
    # both ends fold into the middle: full space, not a truncated chain
    g = chain_graph((1, 8, 1), (2, 2))
    assert expected_dim(g) == 8
    full = chain_graph((2, 4, 2), (2, 2))
    assert expected_dim(full) == 16


def test_expected_dim_supercritical_loop():
    g = loop_graph((2, 2, 2), vertex_dims=(5, 4, 4))
    assert expected_dim(g) == 41


def test_expected_dim_unknown():
    # a 3-chain that neither folds nor is a cycle
    g = chain_graph((3, 5, 3), (2, 2))
    assert expected_dim(g) is None
