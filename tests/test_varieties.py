import random
from itertools import islice
from math import prod

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from tngeom import jacobian, linalg
from tngeom.contraction import contract_network
from tngeom.errors import SemanticError, ShapeError, check_peak
from tngeom.fields import QQ, PrimeField
from tngeom.linalg import Matrix, SparseArray, pivot_columns, rank
from tngeom.networks import (
    NetworkGraph,
    TNSInstance,
    chain_graph,
    expected_dim,
    identity_instance,
    loop_dim_formula,
    loop_graph,
    random_instance,
    reduce_valence_one,
)
from tngeom.tensors import Tensor, apply_end, mlrank, outer, random_tensor
from tngeom.jacobian import contraction_jacobian, gauge_rows, tns_dim
from tngeom.varieties import certify_not_closed, sub_membership
from tngeom.zoo import Splitting, diagonal_splitting, imm_loop, mmult

from oracles import (
    annihilates,
    block_splitting,
    end_orbit_consistency,
    flip_edge,
    gauge_transform,
    is_concise,
    kron,
    loop_endomorphisms,
    mat_row,
    mat_transpose,
    orbit_dim,
    per_coordinate_jacobian,
    random_invertible,
    rank_mod_p,
)

FP = PrimeField(2**31 - 1)


def _random_tree(seed):
    """Tree on five vertices with random edge orientations and small dimensions."""
    rng = random.Random(seed)
    vertices = [(1, rng.randint(1, 3))]
    edges = []
    for vid in range(2, 6):
        parent = rng.randint(1, vid - 1)
        tail, head = (parent, vid) if rng.random() < 0.5 else (vid, parent)
        vertices.append((vid, rng.randint(1, 3)))
        edges.append((vid - 1, tail, head, rng.randint(1, 2)))
    return NetworkGraph.build(vertices, edges)


JACOBIAN_GRAPHS = {
    "loop222": loop_graph((2, 2, 2)),
    "loop232": loop_graph((2, 3, 2)),
    "loop2222": loop_graph((2, 2, 2, 2)),
    "chain3663": chain_graph((3, 6, 6, 3), (3, 2, 3)),
    "chain353": chain_graph((3, 5, 3), (2, 2)),
    "tree": _random_tree(7),
    "parallel": loop_graph((2, 3)),
    "superloop": loop_graph((2, 2, 2), vertex_dims=(5, 4, 4)),
    "isolated": NetworkGraph.build([(1, 3), (2, 2), (3, 4)], [(1, 1, 3, 2)]),
}


def test_sub_membership_basics():
    t = outer(outer(Tensor((2,), [1, 2]), Tensor((2,), [1, 1])), Tensor((2,), [0, 1]))
    assert sub_membership(t, (1, 1, 1))
    assert not sub_membership(mmult(2, 2, 2), (3, 4, 4))
    assert sub_membership(mmult(2, 2, 2), (4, 4, 4))
    with pytest.raises(ShapeError):
        sub_membership(t, (1, 1))
    with pytest.raises(ShapeError):
        sub_membership(t, (1, 1, 3))


@pytest.mark.parametrize("seed", range(10))
def test_chain_contractions_live_in_subspace_variety(seed):
    g = chain_graph((3, 5, 3), (2, 2))
    t = contract_network(random_instance(g, seed=seed, bound=9))
    assert sub_membership(t, (2, 4, 2))


def test_is_concise():
    assert is_concise(mmult(2, 2, 2))
    padded = Tensor.from_nonzeros((3, 2, 2), {(0, 0, 0): 1, (1, 1, 1): 1})
    assert not is_concise(padded)


def test_singular_slot_breaks_conciseness():
    # a rank-deficient action on one factor leaves a non-concise tensor
    m = mmult(2, 2, 2)
    x4 = kron(Matrix.from_rows([[1, 0], [0, 0]]), Matrix.identity(2))
    y4 = random_invertible(4, seed=1, bound=9)
    z4 = random_invertible(4, seed=2, bound=9)
    t = apply_end(m, [x4, y4, z4])
    assert not is_concise(t)
    assert is_concise(apply_end(m, [random_invertible(4, seed=3, bound=9), y4, z4]))


def test_jacobian_shape():
    g = loop_graph((2, 2, 2))
    jac = contraction_jacobian(random_instance(g, seed=0, bound=9))
    assert jac.rows == 64 and jac.cols == 48
    assert rank(jac) == 37


@pytest.mark.parametrize("field", [QQ, FP], ids=["rational", "fp"])
@pytest.mark.parametrize("name", JACOBIAN_GRAPHS)
def test_jacobian_matches_per_coordinate_oracle(name, field):
    inst = random_instance(JACOBIAN_GRAPHS[name], seed=3, field=field, bound=9)
    assert contraction_jacobian(inst) == per_coordinate_jacobian(inst)


def _sketch(inst, nrows, rng):
    """The first nrows rows of the sketch stream, as a matrix."""
    ncols = sum(prod(inst.graph.tensor_shape(v.id)) for v in inst.graph.vertices)
    rows = islice(jacobian._sketch_rows(inst, inst.field.prime, rng), nrows)
    return Matrix._from_flat((nrows, ncols), {k * ncols + c: v for k, row in enumerate(rows) for c, v in row.items()},
                             inst.field)


@pytest.mark.parametrize("name", JACOBIAN_GRAPHS)
def test_sketch_rows_are_product_covectors_times_jacobian(name):
    g = JACOBIAN_GRAPHS[name]
    inst = random_instance(g, seed=1, field=FP)
    sketch = _sketch(inst, 3, random.Random(5))
    # the covectors as the sketch draws them: row by row, vertex by vertex
    rng = random.Random(5)
    rows = []
    for _ in range(3):
        row = [1]
        for v in g.vertices:
            w = [rng.randrange(FP.prime) for _ in range(v.dim)]
            row = [x * y for x in row for y in w]
        rows.append(row)
    assert sketch == Matrix.from_rows(rows, FP) @ contraction_jacobian(inst)


@pytest.mark.parametrize("name", JACOBIAN_GRAPHS)
def test_sketch_rank_bounded_by_jacobian_rank(name):
    g = JACOBIAN_GRAPHS[name]
    for seed in range(3):
        inst = random_instance(g, seed=seed, field=FP)
        jac = contraction_jacobian(inst)
        full = rank(jac)
        sketch = _sketch(inst, min(jac.shape) + 4, random.Random(seed))
        assert sketch.shape == (min(jac.shape) + 4, jac.cols)
        assert rank(sketch) == full
        # too few rows to reach the rank: still never above it
        assert rank(_sketch(inst, full // 2, random.Random(seed))) <= full


SEGRE6 = chain_graph((2,) * 6, (1,) * 5)  # sketch 16 x 12 = 192 cells, as many as its environments hold


@pytest.mark.parametrize("g, field, want, tag", [
    (loop_graph((2,) * 5), FP, 61, True),
    (SEGRE6, FP, 7, True),
    (SEGRE6, QQ, 7, False),
    (loop_graph((2,) * 4), FP, 49, False),
    (loop_graph((2, 3, 2)), FP, 72, False),
])
def test_sketch_only_over_fp_when_smaller(monkeypatch, g, field, want, tag):
    # each sample reads the rows of the source the plan picks, and only those; tag only names the case.
    # The plan is the graph's alone, so SEGRE6 is sketched over both fields
    source = "sketch" if jacobian._jacobian_plan(g)[0] else "environment"
    assert (source == "sketch") == (g is SEGRE6)
    used = []
    sketch, blocks = jacobian._sketch_rows, jacobian._jacobian_blocks
    monkeypatch.setattr(jacobian, "_sketch_rows", lambda *a: used.append("sketch") or sketch(*a))
    monkeypatch.setattr(jacobian, "_jacobian_blocks", lambda *a: used.append("environment") or blocks(*a))
    monkeypatch.setattr(jacobian, "contraction_jacobian", _boom)
    # the bounds meet, so one sample is drawn
    assert tns_dim(g, seed=0, field=field) == (want, want)
    assert used == [source]


@pytest.mark.parametrize("name", JACOBIAN_GRAPHS)
def test_gauge_rows_lie_in_jacobian_kernel(name):
    inst = random_instance(JACOBIAN_GRAPHS[name], seed=3, bound=9)
    jac, gauge = per_coordinate_jacobian(inst), gauge_rows(inst)
    assert gauge.rows == sum(e.dim**2 for e in inst.graph.edges) and gauge.cols == jac.cols
    assert (jac @ mat_transpose(gauge)).is_zero()
    assert annihilates(jac, gauge)


def test_gauge_rows_are_gauge_transform_tangents():
    # for a != b, I + E_ab acts on the tail and its inverse transpose
    # I - E_ba on the head, so the instance moves by exactly its gauge row
    g = JACOBIAN_GRAPHS["tree"]
    inst = random_instance(g, seed=2, bound=9)
    gauge = gauge_rows(inst)
    row = 0
    for e in g.edges:
        for a in range(e.dim):
            for b in range(e.dim):
                if a != b:
                    act = Matrix.from_nonzeros(e.dim, e.dim, {**{(i, i): 1 for i in range(e.dim)}, (a, b): 1})
                    moved = gauge_transform(inst, e.id, act)
                    step = [x for v in g.vertices for x in (moved.tensors[v.id] - inst.tensors[v.id]).entries]
                    assert step == mat_row(gauge, row)
                row += 1
    assert row == gauge.rows


@pytest.mark.parametrize("name", JACOBIAN_GRAPHS)
def test_mod_p_instance_is_the_reduction_of_the_q_instance(name):
    g = JACOBIAN_GRAPHS[name]
    q, p = random_instance(g, seed=4, field=QQ), random_instance(g, seed=4, field=FP)
    for v in g.vertices:
        assert [FP.coerce(x) for x in q.tensors[v.id].entries] == list(p.tensors[v.id].entries)
    assert [FP.coerce(x) for x in contraction_jacobian(q).entries] == list(contraction_jacobian(p).entries)


def _boom(*args):
    raise AssertionError("called")


def _count_exact_ranks(monkeypatch) -> list:
    """(rows, columns) of each exact rank (``linalg._rank``) taken from here on; a sample takes none."""
    calls = []
    exact = linalg._rank
    monkeypatch.setattr(linalg, "_rank", lambda cols, rows, *a: calls.append((len(rows), len(cols)))
                        or exact(cols, rows, *a))
    return calls


@pytest.mark.parametrize("name", ["loop222", "loop232", "loop2222", "chain3663", "superloop"])
def test_rank_over_q_closes_on_the_gauge_bound(monkeypatch, name):
    g = JACOBIAN_GRAPHS[name]
    calls = _count_exact_ranks(monkeypatch)
    got = jacobian._jacobian_rank(g, 5, QQ)
    assert calls == []
    want = rank(contraction_jacobian(random_instance(g, seed=5)))
    assert got == (want, want)


def test_corrupted_gauge_row_fails_the_check_and_falls_back(monkeypatch):
    # the oracle rejects the corrupted T; no sample checks T, so over Q, as over Fp, a sample reads
    # C off its pivots and gives the pair Fp gives.  J T^T = 0 is checked on gauge_rows by
    # test_gauge_rows_annihilate_the_jacobian
    g = loop_graph((2, 2, 2))
    good = gauge_rows

    def corrupted(inst):
        # row 1 is edge 1 with (a, b) = (0, 1), outside the one relation among
        # the rows (the sum of the identities over the loop's edges is zero),
        # so moving one of its entries keeps the rank but leaves the kernel
        m = good(inst)
        nz = dict(m._nz)
        k = min(c for c in nz if c // m.cols == 1)
        nz[k] = nz[k] + 1
        return Matrix._from_flat(m.shape, nz, m.field)

    monkeypatch.setattr(jacobian, "gauge_rows", corrupted)
    inst = random_instance(g, seed=0)
    assert rank_mod_p(corrupted(inst)) == rank_mod_p(good(inst))
    assert not annihilates(contraction_jacobian(inst), corrupted(inst))
    assert (rank(contraction_jacobian(inst)), min(jacobian._layout(g)[::2])) == (37, 48)
    calls = _count_exact_ranks(monkeypatch)
    assert jacobian._jacobian_rank(g, 0, QQ) == jacobian._jacobian_rank(g, 0, FP)
    assert calls == []


def test_a_tangent_row_off_the_kernel_fails_the_check(monkeypatch):
    # a unit row at a column off the gauge pivots drops that column from C; J|C keeps full
    # column rank, one below the rank 37 of J.  The oracle rejects that T, and no sample checks
    # it: over either field the rank of a column submatrix of J is returned as the lower bound
    # it is, and the upper bound |C| holds only for rows that lie in the kernel, as gauge_rows'
    # do (test_gauge_rows_annihilate_the_jacobian)
    g = loop_graph((2, 2, 2))

    def with_a_unit_row(inst):
        gauge = gauge_rows(inst)
        col = min(c for c in range(gauge.cols) if c not in pivot_columns(gauge))
        return Matrix._from_flat((gauge.rows + 1, gauge.cols), {**gauge._nz, gauge.rows * gauge.cols + col: 1},
                                 inst.field)

    monkeypatch.setattr(jacobian, "gauge_rows", with_a_unit_row)
    inst = random_instance(g, seed=0)
    assert not annihilates(contraction_jacobian(inst), with_a_unit_row(inst))
    assert (rank(contraction_jacobian(inst)), min(jacobian._layout(g)[::2])) == (37, 48)
    calls = _count_exact_ranks(monkeypatch)
    assert jacobian._jacobian_rank(g, 0, QQ) == jacobian._jacobian_rank(g, 0, FP) == (36, 36)
    assert calls == []


def _tree_with_subcritical_leaves(seed):
    """Tree on five vertices, random orientations, each leaf one dimension below its edge."""
    rng = random.Random(seed)
    dims, edges = {1: rng.randint(2, 4)}, []
    for vid in range(2, 6):
        parent = rng.randint(1, vid - 1)
        tail, head = (parent, vid) if rng.random() < 0.5 else (vid, parent)
        dims[vid] = rng.randint(2, 4)
        edges.append((vid - 1, tail, head, rng.randint(2, 3)))
    for _, tail, head, d in edges:
        for v in (tail, head):
            if sum(v in (t, h) for _, t, h, _ in edges) == 1:
                dims[v] = d - 1
    return NetworkGraph.build(list(dims.items()), edges)


# _jacobian_rank of each tree over Q at its seed, the rank of its J at that instance
TREE_RANKS = {0: 33, 1: 12, 2: 36, 3: 33, 4: 8, 5: 22}
FULL_ROW_RANK_TREES = (1, 4)


@pytest.mark.parametrize("seed", range(6))
def test_trees_with_subcritical_leaves_fall_back_to_the_exact_rank(monkeypatch, seed):
    # each tree has no more rows than columns, so no tangent row is built; a sample below full row
    # rank takes no exact rank, and its rank mod p is the rank of J
    g = _tree_with_subcritical_leaves(seed)
    monkeypatch.setattr(jacobian, "gauge_rows", _boom)
    calls = _count_exact_ranks(monkeypatch)
    nrows, _, ncols = jacobian._layout(g)
    assert jacobian._jacobian_rank(g, seed, QQ) == (TREE_RANKS[seed], nrows)
    assert nrows <= ncols
    assert calls == []
    assert rank(contraction_jacobian(random_instance(g, seed=seed))) == TREE_RANKS[seed]
    assert (TREE_RANKS[seed] == nrows) == (seed in FULL_ROW_RANK_TREES)


@pytest.mark.parametrize("seed", range(6))
def test_trees_with_subcritical_leaves_close_on_witness_rows(monkeypatch, seed):
    # the fold closes what the witness rows closed: on the unfolded tree the gauge rows leave a gap
    # below cols - rank(J), and on the folded one, whose every leaf is larger than its edge, the exact
    # rank meets their bound cols - rank_p(T); a sample of either takes no exact rank
    g = _tree_with_subcritical_leaves(seed)
    calls = _count_exact_ranks(monkeypatch)
    want = TREE_RANKS[seed]
    assert jacobian._jacobian_rank(g, seed, QQ)[0] == want
    assert tns_dim(g, seed)[0] == want
    assert calls == []
    inst = random_instance(g, seed=seed)
    jac = contraction_jacobian(inst)
    folded = random_instance(reduce_valence_one(g)[0], seed=seed)
    fjac, fgauge = contraction_jacobian(folded), gauge_rows(folded)
    if seed in FULL_ROW_RANK_TREES:
        assert want == jac.rows == fjac.rows == fjac.cols  # one vertex is left
    else:
        assert want + rank_mod_p(fgauge) == fjac.cols
        assert rank_mod_p(gauge_rows(inst)) + want < jac.cols
        assert annihilates(fjac, fgauge)


def test_witness_rows_close_the_gauge_gap_on_a_chain():
    # unfolded, each leaf, of dim 2 on an edge of dim 3, moves its neighbour (6, 3, 4) within a kernel
    # of dim 1 in 6 * 4 = 24 directions, 3 of which the gauge holds: the kernel of J, of dim 76, is 42
    # more than the gauge rows span.  Folded to (12, 12) on an edge of 4, the gauge rows span it
    g = chain_graph((2, 6, 6, 2), (3, 4, 3))
    inst = random_instance(g, seed=3, bound=9)
    jac, gauge = per_coordinate_jacobian(inst), gauge_rows(inst)
    assert rank_mod_p(gauge) == gauge.rows == 34
    assert rank(jac) == 80 and jac.cols - 80 == 76 == 34 + 42 and jac.cols == 156
    folded = reduce_valence_one(g)[0]
    assert [v.dim for v in folded.vertices] == [12, 12] and [e.dim for e in folded.edges] == [4]
    finst = random_instance(folded, seed=3, bound=9)
    fjac, fgauge = per_coordinate_jacobian(finst), gauge_rows(finst)
    assert (fjac @ mat_transpose(fgauge)).is_zero()
    assert rank(fjac) == 80 and rank_mod_p(fgauge) + 80 == fjac.cols == 96
    assert tns_dim(g, seed=3) == (80, 80)


def test_loop_with_subcritical_vertices_takes_one_exact_rank(monkeypatch):
    # no leaf, and the kernel of J is larger than the gauge orbit: 36 columns, gauge rank 11, rank 22.
    # The bounds do not meet, and the sample takes no exact rank: its rank mod p is the rank of J
    g = loop_graph((2, 2, 2), vertex_dims=(2, 3, 4))
    calls = _count_exact_ranks(monkeypatch)
    assert jacobian._jacobian_rank(g, 0, QQ) == (22, 24)
    assert tns_dim(g, seed=0) == (22, 24)
    assert calls == []
    assert rank(contraction_jacobian(random_instance(g, seed=0))) == 22


def test_chain_with_subcritical_leaves_over_q():
    g = chain_graph((3, 9, 9, 3), (4, 4, 4))
    assert tns_dim(g, seed=0) == tns_dim(g, seed=0, field=FP) == (expected_dim(g),) * 2 == (200, 200)


STREAMED_GRAPHS = {
    **JACOBIAN_GRAPHS,
    "loop222-234": loop_graph((2, 2, 2), vertex_dims=(2, 3, 4)),  # rank 22 < |C|: no early stop
    "loop2222-2424": loop_graph((2,) * 4, vertex_dims=(2, 4, 2, 4)),  # gauge-fixed, rank 32 < |C|
    "chain2662": chain_graph((2, 6, 6, 2), (3, 4, 3)),
    **{f"tree{seed}": _random_tree(seed) for seed in range(3)},
    **{f"leaftree{seed}": _tree_with_subcritical_leaves(seed) for seed in range(3)},
}


@pytest.mark.parametrize("source", ["environment", "sketch"])
@pytest.mark.parametrize("name", STREAMED_GRAPHS)
def test_streamed_rank_is_the_rank_of_the_jacobian_mod_p(monkeypatch, name, source):
    # rank_p(J|C) = rank_p(J), C the columns off the pivots of the gauge rows
    g = STREAMED_GRAPHS[name]
    monkeypatch.setattr(jacobian, "_jacobian_plan", lambda g: (source == "sketch", True, 0))
    for seed in range(3):
        want = rank_mod_p(contraction_jacobian(random_instance(g, seed=seed, field=FP)))
        assert jacobian._jacobian_rank(g, seed, FP)[0] == want


def _count_streamed_rows(monkeypatch) -> list:
    """(rows read, columns) of each elimination of a Jacobian's rows."""
    calls = []
    eliminate = jacobian._packed_eliminate

    def counted(rows, cols, prime, pivots):
        read = [0]

        def stream():
            for row in rows:
                read[0] += 1
                yield row

        r = eliminate(stream(), cols, prime, pivots)
        calls.append((read[0], len(cols)))
        return r

    monkeypatch.setattr(jacobian, "_packed_eliminate", counted)
    return calls


@pytest.mark.parametrize("field", [QQ, FP], ids=["rational", "fp"])
@pytest.mark.parametrize("n", [3, 4, 5])
def test_loops_read_exactly_as_many_rows_as_kept_columns(monkeypatch, n, field):
    # every column of C gets a pivot, so the elimination stops after |C| of the 4^n rows, and the
    # sample closes there over either field, with no exact rank
    g = loop_graph((2,) * n)
    calls, exact = _count_streamed_rows(monkeypatch), _count_exact_ranks(monkeypatch)
    assert jacobian._jacobian_rank(g, 0, field) == (loop_dim_formula((2,) * n),) * 2
    inst = random_instance(g, seed=0, field=field)
    kept = 16 * n - rank_mod_p(gauge_rows(inst))
    assert calls == [(kept, kept)] and kept == loop_dim_formula((2,) * n)
    assert exact == []


def test_loop_below_the_gauge_bound_reads_every_row(monkeypatch):
    calls = _count_streamed_rows(monkeypatch)
    # 24 rows and 36 columns: not gauge-fixed, every row is read on every column
    assert jacobian._jacobian_rank(loop_graph((2, 2, 2), vertex_dims=(2, 3, 4)), 0, FP) == (22, 24)
    # 64 rows and 48 columns, 15 of them gauge pivots: J|C has rank 32 < |C| = 33
    assert jacobian._jacobian_rank(loop_graph((2,) * 4, vertex_dims=(2, 4, 2, 4)), 0, FP) == (32, 33)
    assert calls == [(24, 36), (64, 33)]


@pytest.mark.parametrize("g, want", [
    (loop_graph((30, 30, 30), vertex_dims=(2, 2, 2)), 8),  # J is 8 x 5400
    # two vertices on two parallel edges, which no fold reaches; J is 8 x 5400
    (loop_graph((30, 30), vertex_dims=(2, 4)), 8),
], ids=["loop30", "chain100"])
def test_wide_jacobians_build_no_tangent_rows(monkeypatch, g, want):
    # with no more rows than columns, C is every column and J has full row rank, so neither
    # field builds T, whose elimination would dwarf the rank of J's few rows
    def boom(inst):
        raise AssertionError("built the tangent rows")

    monkeypatch.setattr(jacobian, "gauge_rows", boom)
    calls = _count_streamed_rows(monkeypatch)
    assert tns_dim(g, seed=0, field=FP) == tns_dim(g, seed=0) == (want, want)
    # J has full row rank, so each draws one sample
    assert calls == [(8, jacobian.contraction_jacobian(random_instance(g, 0, FP)).cols)] * 2


def test_a_chain_of_leaves_inside_their_edges_folds_to_one_vertex(monkeypatch):
    # chain (2, 2, 2) on edges of 100 folds to one vertex of dim 8, whose J is 8 x 8, where the
    # unfolded J is 8 x 20400.  The network set of a lone vertex is its whole space, so neither field
    # draws a sample; one drawn on the folded graph reads 8 rows of the 8 x 8 J and has rank 8
    g = chain_graph((2, 2, 2), (100, 100))
    assert jacobian._layout(g)[::2] == (8, 20400)
    monkeypatch.setattr(jacobian, "gauge_rows", _boom)
    calls = _count_streamed_rows(monkeypatch)
    assert tns_dim(g, seed=0, field=FP) == tns_dim(g, seed=0) == (8, 8) == (expected_dim(g),) * 2
    assert calls == []
    assert jacobian._jacobian_rank(reduce_valence_one(g)[0], 0, FP) == (8, 8)
    assert calls == [(8, 8)]


def test_triangle_444_over_q_is_721():
    # 768 columns less the 47 of the gauge orbit: J|C has full column rank
    assert jacobian._jacobian_rank(loop_graph((4, 4, 4)), 0, QQ) == (721, 721)


@pytest.mark.parametrize("name", ["loop222", "loop2222", "chain3663", "superloop", "parallel", "loop222-234",
                                  "loop2222-2424", "chain2662", "leaftree0"])
def test_each_exact_sample_sweeps_the_environments_once(monkeypatch, name):
    # the rank mod p reads J's rows off one sweep of environments, and no matrix of J's shape is built
    g = STREAMED_GRAPHS[name]
    want = rank(contraction_jacobian(random_instance(g, seed=0)))
    nrows, _, ncols = jacobian._layout(g)
    sweeps, shapes = [], []
    environments, from_flat = jacobian._environments, SparseArray._from_flat.__func__

    def recorded(cls, shape, nz, field):
        shapes.append((cls, shape))
        return from_flat(cls, shape, nz, field)

    monkeypatch.setattr(jacobian, "_environments", lambda pieces: sweeps.append(len(pieces)) or environments(pieces))
    monkeypatch.setattr(SparseArray, "_from_flat", classmethod(recorded))
    monkeypatch.setattr(jacobian, "contraction_jacobian", _boom)
    assert jacobian._jacobian_rank(g, 0, QQ)[0] == want
    assert sweeps == [len(g.vertices)]
    assert (Matrix, (nrows, ncols)) not in shapes


def _random_loop(draw):
    n = draw(st.integers(2, 4))
    edges = tuple(draw(st.integers(1, 2)) for _ in range(n))
    # near critical: one below, at or one above the product of the vertex's two edge dimensions
    dims = tuple(draw(st.integers(max(1, edges[i - 1] * edges[i] - 1), edges[i - 1] * edges[i] + 1)) for i in range(n))
    return loop_graph(edges, vertex_dims=dims)


def _random_small_tree(draw):
    n = draw(st.integers(2, 4))
    vertices, edges = [], []
    for vid in range(1, n + 1):
        vertices.append((vid, draw(st.integers(1, 4))))
        if vid > 1:
            parent = draw(st.integers(1, vid - 1))
            tail, head = (parent, vid) if draw(st.booleans()) else (vid, parent)
            edges.append((vid - 1, tail, head, draw(st.integers(1, 3))))
    return NetworkGraph.build(vertices, edges)


@st.composite
def small_graphs(draw):
    return _random_loop(draw) if draw(st.booleans()) else _random_small_tree(draw)


@settings(max_examples=30)
@given(small_graphs(), st.integers(0, 10**6))
@example(_tree_with_subcritical_leaves(0), 0)  # subcritical leaves, wide J below full row rank
@example(loop_graph((2, 2, 2), vertex_dims=(5, 4, 4)), 3)  # a supercritical vertex, gauge-fixed
@example(loop_graph((2, 2, 2), vertex_dims=(2, 3, 4)), 1)  # subcritical vertices, wide J
@example(chain_graph((2, 6, 6, 2), (3, 4, 3)), 2)  # subcritical leaves
@example(loop_graph((2,) * 4, vertex_dims=(2, 4, 2, 4)), 0)  # gauge-fixed, below full column rank on C
def test_exact_sample_rank_is_the_rank_of_the_jacobian(g, seed):
    assert jacobian._jacobian_rank(g, seed, QQ)[0] == rank(contraction_jacobian(random_instance(g, seed)))


@settings(max_examples=30)
@given(small_graphs(), st.booleans(), st.integers(0, 10**6))
@example(_tree_with_subcritical_leaves(0), False, 0)  # wide J
@example(_tree_with_subcritical_leaves(0), True, 0)
@example(loop_graph((2, 2, 2), vertex_dims=(5, 4, 4)), False, 3)  # gauge-fixed
@example(loop_graph((2, 2, 2), vertex_dims=(2, 3, 4)), False, 1)  # wide J
@example(chain_graph((2, 6, 6, 2), (3, 4, 3)), True, 2)  # folds to a gauge-fixed (12, 12)
@example(loop_graph((2,) * 4, vertex_dims=(2, 4, 2, 4)), False, 0)  # gauge-fixed
def test_gauge_rows_annihilate_the_jacobian(g, folded, seed):
    # J T^T = 0, exactly over Q, at the integer instance a sample draws: the identity the upper bound
    # rests on, which no sample checks.  T has e^2 rows per edge e, in graph order
    if folded:
        g = reduce_valence_one(g)[0]
    inst = random_instance(g, seed, QQ)
    gauge = gauge_rows(inst)
    assert annihilates(contraction_jacobian(inst), gauge)
    # edge e's rows touch only the column blocks of its tail and head
    _, offsets, ncols = jacobian._layout(g)
    blocks = {v.id: range(offsets[v.id], offsets[v.id] + prod(g.tensor_shape(v.id))) for v in g.vertices}
    first = 0
    for e in g.edges:
        cols = {k % ncols for k in gauge._nz if first <= k // ncols < first + e.dim**2}
        assert all(c in blocks[e.tail] or c in blocks[e.head] for c in cols)
        first += e.dim**2
    assert gauge.rows == first


def test_jacobian_plan_counts_the_rows_a_sample_builds():
    # environment entries or sketch cells, whichever is fewer; then, when gauge-fixed, the nonzeros
    # of T and the pivot rows of its elimination.  The plan is the graph's, the same over both fields
    loop5 = loop_graph((2,) * 5)  # 1024 x 80; T: 20 rows, 5 * 2 * (16 + 16) nonzeros
    assert jacobian._jacobian_plan(loop5) == (False, True, 5 * 4**4 * 4 + 320 + 20 * 80)
    loop7 = loop_graph((2,) * 7)
    assert jacobian._jacobian_plan(loop7) == (True, True, (112 + 4) * 112 + 448 + 28 * 112)
    loop8 = loop_graph((2,) * 8)
    assert jacobian._jacobian_plan(loop8) == (True, True, (128 + 4) * 128 + 512 + 32 * 128)
    triangle = loop_graph((4, 4, 4))  # 4096 x 768; T: 48 rows, 3 * 4 * (256 + 256) nonzeros
    assert jacobian._jacobian_plan(triangle) == (False, True, 3 * 256 * 16 + 6144 + 48 * 768)
    # 64 x 12, five gauge rows of four nonzeros
    assert jacobian._jacobian_plan(SEGRE6) == (True, True, 192 + 20 + 5 * 12)
    # a chain with two subcritical leaves: 8 x 20400, not gauge-fixed, and T is not counted
    wide = chain_graph((2, 2, 2), (100, 100))
    assert jacobian._jacobian_plan(wide) == (False, False, 4 * 100 + 4 * 10**4 + 4 * 100)
    assert jacobian._tangent_size(wide) == (2 * 10**4, 2 * 100 * (200 + 20000))
    for g in STREAMED_GRAPHS.values():
        gauge = gauge_rows(random_instance(g, seed=0))
        assert jacobian._tangent_size(g) == (gauge.rows, len(gauge._nz))


def test_tns_dim_pins_over_q_and_fp():
    assert tns_dim(loop_graph((3, 3, 3)), seed=0) == (217, 217) == (loop_dim_formula((3, 3, 3)),) * 2
    assert tns_dim(loop_graph((3,) * 4), seed=0, field=FP) == (289, 289) == (loop_dim_formula((3,) * 4),) * 2
    assert tns_dim(loop_graph((2,) * 6), seed=0) == (73, 73) == (loop_dim_formula((2,) * 6),) * 2


# a centre of dim 600, an edge of 10 to a vertex of dim 26 and an edge of 3 to a leaf of dim 1: the
# leaf folds into the centre, and the folded J, 15600 x 6260, is gauge-fixed
FOLDED_TREE = NetworkGraph.build([(1, 600), (2, 26), (3, 1)], [(1, 1, 2, 10), (2, 1, 3, 3)])


def test_jacobian_size_budget(monkeypatch):
    # the plan is the graph's, and the prediction prices its cells and up to min(rows, columns) packed
    # pivot rows of J|C, whose slots are 10 bytes mod 2^31 - 1 over either field
    folded = reduce_valence_one(FOLDED_TREE)[0]
    assert jacobian._jacobian_plan(folded) == (False, True, 694860)
    assert jacobian._layout(folded)[::2] == (15600, 6260)
    assert jacobian._jacobian_bytes(folded, FP.prime) == 100 * 694860 + 6260 * 6260 * 10
    for g in [loop_graph((2,) * 6), loop_graph((2,) * 7), loop_graph((4, 4, 4)), loop_graph((3,) * 4),
              chain_graph((3, 9, 9, 3), (4, 4, 4)), chain_graph((3, 9, 9, 9, 3), (4, 4, 4, 4)), SEGRE6,
              *JACOBIAN_GRAPHS.values(), loop_graph((2,) * 8), loop_graph((5, 5, 5)), folded]:
        check_peak(jacobian._jacobian_bytes(g, FP.prime), "sampling it")
    with pytest.raises(SemanticError, match="over the budget"):
        check_peak(jacobian._jacobian_bytes(loop_graph((8,) * 4), FP.prime), "sampling it")
    # tns_dim admits them over both fields: each reaches its (stubbed) sample
    monkeypatch.setattr(jacobian, "_jacobian_rank", lambda g, seed, field: (1, 1))
    for field in (QQ, FP):
        for g in [loop_graph((2,) * 8), loop_graph((5, 5, 5)), FOLDED_TREE]:
            assert tns_dim(g, field=field) == (1, 1)


def test_tns_dim_refuses_a_graph_over_budget_before_drawing(monkeypatch):
    def boom(*args):
        raise AssertionError("drew an instance for a refused size")

    monkeypatch.setattr(jacobian, "random_instance", boom)
    for field in (QQ, FP):
        with pytest.raises(SemanticError, match="over the budget"):
            tns_dim(loop_graph((8,) * 4), field=field)


def test_tns_dim_loop_of_nine_over_q():
    # sketched, 27072 planned cells over either field; about 0.13 s
    assert tns_dim(loop_graph((2,) * 9), field=QQ) == (109, 109) == (loop_dim_formula((2,) * 9),) * 2


@pytest.mark.parametrize("n", [6, 7, 8])
def test_tns_dim_long_loops_over_fp(n):
    assert tns_dim(loop_graph((2,) * n), seed=0, field=FP) == (loop_dim_formula((2,) * n),) * 2


def test_tns_dim_frozen_loop_values():
    assert tns_dim(loop_graph((2, 2, 2)), seed=0) == (37, 37)
    assert tns_dim(loop_graph((2, 2, 2, 2)), seed=0) == (49, 49)


def test_tns_dim_matches_orbit_dim():
    assert tns_dim(loop_graph((2, 2, 2)), seed=2) == (orbit_dim(imm_loop((2, 2, 2))),) * 2


def test_tns_dim_two_vertex():
    g = NetworkGraph.build([(1, 3), (2, 3)], [(1, 1, 2, 2)])
    # J is 9 x 12, so the upper bound is its 9 rows
    assert tns_dim(g, seed=0) == (8, 9)
    assert expected_dim(g) == 8


def test_tns_dim_supercritical_triangle():
    g = loop_graph((2, 2, 2), vertex_dims=(5, 4, 4))
    assert tns_dim(g, seed=0) == (41, 41)


@pytest.mark.parametrize("samples", [
    ((37, 48), (36, 40), (37, 40)),
    ((36, 40), (37, 48), (37, 40)),
    ((36, 40), (37, 37), (37, 37)),
    ((37, 37), None, (37, 37)),
])
def test_tns_dim_returns_the_larger_sample(monkeypatch, samples):
    # a sampled rank never exceeds the generic rank, so the larger lower bound wins, and every upper
    # bound holds, so the smaller one does; a sample whose bounds meet draws no second one
    *drawn, want = samples
    bounds = iter(drawn)
    monkeypatch.setattr(jacobian, "_jacobian_rank", lambda g, seed, field: next(bounds))
    assert tns_dim(loop_graph((2, 2, 2)), seed=0) == want


def test_loop_endomorphism_readout():
    g = loop_graph((2, 2, 2))
    inst = identity_instance(g)
    walk, maps = loop_endomorphisms(inst)
    assert walk == [1, 2, 3]
    assert all(m == Matrix.identity(4) for m in maps)


def test_loop_walk_follows_edge_directions():
    # vertex 1's lowest-id edge comes in, so the walk must leave by the other one
    g = NetworkGraph.build([(1, 4), (2, 4), (3, 4)], [(1, 3, 1, 2), (2, 1, 2, 2), (3, 2, 3, 2)])
    walk, _ = loop_endomorphisms(random_instance(g, seed=0, bound=9))
    assert walk == [1, 2, 3]
    assert expected_dim(g) == 37


@pytest.mark.parametrize("seed", range(20))
def test_end_orbit_consistency_random_triangles(seed):
    inst = random_instance(loop_graph((2, 2, 2)), seed=seed, bound=9)
    assert end_orbit_consistency(inst)


def test_end_orbit_consistency_zero_slot():
    g = loop_graph((2, 2, 2))
    inst = random_instance(g, seed=1, bound=9)
    tensors = dict(inst.tensors)
    tensors[1] = Tensor.zeros(g.tensor_shape(1))
    assert end_orbit_consistency(TNSInstance(g, tensors))


def test_end_orbit_consistency_rejects_non_loop():
    with pytest.raises(SemanticError):
        end_orbit_consistency(random_instance(chain_graph((2, 4, 2), (2, 2)), seed=0))
    # flipping an edge breaks the one-in one-out orientation
    flipped = flip_edge(random_instance(loop_graph((2, 2, 2)), seed=0), 1)
    with pytest.raises(SemanticError):
        end_orbit_consistency(flipped)


def test_certificate_diagonal_e2():
    cert = certify_not_closed(diagonal_splitting(2), 2)
    assert cert.conclusion == "not_closed_certified"
    assert cert.certified
    assert (cert.stab_mmult, cert.stab_mtilde) == (11, 12)
    assert cert.mlrank_mtilde == (4, 4, 4)
    assert cert.leading_power == 1
    assert cert.reason is None


def test_certificate_diagonal_e6_over_fp():
    # the stabilizers 3e^2 - 1 and 4e^2 - 2e of the paper's table, one size further
    cert = certify_not_closed(diagonal_splitting(6, PrimeField(2**31 - 1)), 6)
    assert cert.certified
    assert (cert.stab_mmult, cert.stab_mtilde) == (107, 132)
    assert cert.mlrank_mtilde == (36, 36, 36)
    assert cert.leading_power == 1


@pytest.mark.parametrize("e", range(2, 7))
def test_certificate_stabilizer_pair_over_q(e):
    # exact over Q: lifted from one prime and checked, or eliminated fraction-free
    cert = certify_not_closed(diagonal_splitting(e, QQ), e)
    assert cert.certified
    assert (cert.stab_mmult, cert.stab_mtilde) == (3 * e * e - 1, 4 * e * e - 2 * e)


def test_certificate_identity_splitting_inconclusive():
    ident = Matrix.identity(4)
    cert = certify_not_closed(Splitting(ident, ident, ident), 2)
    assert cert.conclusion == "inconclusive"
    assert not cert.certified
    assert "power-0 term nonzero" in cert.reason


def test_certificate_block_splitting_e3():
    cert = certify_not_closed(block_splitting(2, 1, 2, 1, 2, 1), 3)
    assert cert.certified
    assert cert.stab_mmult == 26
    assert cert.stab_mtilde == 27
    assert cert.leading_power == 1
    assert not cert.leading_matches_formula


def test_certificate_validation():
    with pytest.raises(SemanticError):
        certify_not_closed(diagonal_splitting(2), 1)
    with pytest.raises(ShapeError):
        certify_not_closed(diagonal_splitting(2), 3)


def test_certificate_deterministic():
    a = certify_not_closed(diagonal_splitting(2), 2)
    b = certify_not_closed(diagonal_splitting(2), 2)
    assert a == b
