import random
from itertools import islice
from math import prod

import pytest

from tngeom import varieties
from tngeom.errors import SemanticError, ShapeError
from tngeom.fields import QQ, PrimeField
from tngeom.linalg import Matrix, annihilates, pivot_columns, rank, rank_mod_p
from tngeom.networks import (
    NetworkGraph,
    TNSInstance,
    chain_graph,
    contract_network,
    expected_dim,
    identity_instance,
    loop_dim_formula,
    loop_graph,
    random_instance,
)
from tngeom.tensors import Tensor, apply_end, mlrank, outer, random_tensor
from tngeom.varieties import (
    certify_not_closed,
    check_jacobian_size,
    contraction_jacobian,
    gauge_rows,
    sub_membership,
    tns_dim,
    witness_rows,
)
from tngeom.zoo import Splitting, diagonal_splitting, imm_loop, mmult

from oracles import (
    block_splitting,
    end_orbit_consistency,
    flip_edge,
    gauge_transform,
    is_concise,
    kron,
    loop_endomorphisms,
    mat_row,
    mat_rows,
    mat_transpose,
    orbit_dim,
    per_coordinate_jacobian,
    random_invertible,
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
    rows = islice(varieties._sketch_rows(inst, inst.field.prime, rng), nrows)
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
    # each sample reads the rows of the source the plan picks, and only those; tag only names the case
    source = "sketch" if varieties._jacobian_plan(g, field)[0] else "environment"
    assert (source == "sketch") == (g is SEGRE6)
    used = []
    sketch, environment, jacobian = varieties._sketch_rows, varieties._environment_rows, varieties.contraction_jacobian
    monkeypatch.setattr(varieties, "_sketch_rows", lambda *a: used.append("sketch") or sketch(*a))
    monkeypatch.setattr(varieties, "_environment_rows", lambda *a: used.append("environment") or environment(*a))
    monkeypatch.setattr(varieties, "contraction_jacobian", lambda *a: used.append("full") or jacobian(*a))
    assert tns_dim(g, seed=0, field=field) == want
    # the full Jacobian is built only over Q, for the check of the tangent rows
    assert used == ([source, "full"] if field is QQ else [source]) * 2


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


def _count_exact_ranks(monkeypatch) -> list:
    calls = []
    monkeypatch.setattr(varieties, "rank", lambda m: calls.append(m.shape) or rank(m))
    return calls


@pytest.mark.parametrize("name", ["loop222", "loop232", "loop2222", "chain3663", "superloop"])
def test_rank_over_q_closes_on_the_gauge_bound(monkeypatch, name):
    g = JACOBIAN_GRAPHS[name]
    calls = _count_exact_ranks(monkeypatch)
    got = varieties._jacobian_rank(g, 5, QQ)
    assert calls == []
    assert got == rank(contraction_jacobian(random_instance(g, seed=5)))


def test_corrupted_gauge_row_fails_the_check_and_falls_back(monkeypatch):
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

    monkeypatch.setattr(varieties, "gauge_rows", corrupted)
    inst = random_instance(g, seed=0)
    assert rank_mod_p(corrupted(inst)) == rank_mod_p(good(inst))
    assert not annihilates(contraction_jacobian(inst), corrupted(inst))
    calls = _count_exact_ranks(monkeypatch)
    assert varieties._jacobian_rank(g, 0, QQ) == rank(contraction_jacobian(inst)) == 37
    assert calls == [(64, 48)]


def test_a_tangent_row_off_the_kernel_fails_the_check(monkeypatch):
    # a unit row at a column off the gauge pivots drops that column from C; J|C keeps full
    # column rank, one below the rank of J, so over Q only the exact check J T^T = 0 stands
    # between the sample and a wrong rank, while over Fp the rank of a column submatrix of J
    # is returned as the lower bound it is
    g = loop_graph((2, 2, 2))

    def unit_row(inst):
        ncols = gauge_rows(inst).cols
        col = min(c for c in range(ncols) if c not in pivot_columns(gauge_rows(inst)))
        return Matrix.from_nonzeros(1, ncols, {(0, col): 1}, inst.field)

    monkeypatch.setattr(varieties, "witness_rows", unit_row)
    calls = _count_exact_ranks(monkeypatch)
    assert varieties._jacobian_rank(g, 0, QQ) == 37
    assert calls == [(64, 48)]
    assert varieties._jacobian_rank(g, 0, FP) == 36


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


# _jacobian_rank of each tree over Q at its seed, as the exact elimination over Q found it
TREE_RANKS = {0: 33, 1: 12, 2: 36, 3: 33, 4: 8, 5: 22}
FULL_ROW_RANK_TREES = (1, 4)


@pytest.mark.parametrize("seed", range(6))
def test_trees_with_subcritical_leaves_fall_back_to_the_exact_rank(monkeypatch, seed):
    # without the witness rows the gauge bounds cannot close on such a leaf,
    # so a sample below full row rank takes the exact rank of J
    g = _tree_with_subcritical_leaves(seed)
    monkeypatch.setattr(varieties, "witness_rows", lambda inst: Matrix.zeros(0, gauge_rows(inst).cols))
    calls = _count_exact_ranks(monkeypatch)
    assert varieties._jacobian_rank(g, seed, QQ) == TREE_RANKS[seed]
    assert len(calls) == (seed not in FULL_ROW_RANK_TREES)


@pytest.mark.parametrize("seed", range(6))
def test_trees_with_subcritical_leaves_close_on_witness_rows(monkeypatch, seed):
    g = _tree_with_subcritical_leaves(seed)
    calls = _count_exact_ranks(monkeypatch)
    want = TREE_RANKS[seed]
    assert varieties._jacobian_rank(g, seed, QQ) == want
    assert calls == []
    inst = random_instance(g, seed=seed)
    jac = contraction_jacobian(inst)
    if seed in FULL_ROW_RANK_TREES:
        assert want == jac.rows
    else:
        gauge, witness = gauge_rows(inst), witness_rows(inst)
        tangent = Matrix.from_rows(mat_rows(gauge) + mat_rows(witness))
        assert want + rank_mod_p(tangent) == jac.cols
        assert rank_mod_p(gauge) + want < jac.cols
        assert annihilates(jac, witness)


def test_witness_rows_close_the_gauge_gap_on_a_chain():
    # each leaf, of dim 2 on an edge of dim 3, has a kernel of dim 1; its
    # neighbour (6, 3, 4) gives 6 * 4 = 24 rows, 3 of which the gauge holds
    inst = random_instance(chain_graph((2, 6, 6, 2), (3, 4, 3)), seed=3, bound=9)
    jac, gauge, witness = per_coordinate_jacobian(inst), gauge_rows(inst), witness_rows(inst)
    assert witness.shape == (48, 156)
    assert (jac @ mat_transpose(witness)).is_zero()
    assert annihilates(jac, witness)
    assert rank_mod_p(gauge) == gauge.rows == 34
    assert rank_mod_p(Matrix.from_rows(mat_rows(gauge) + mat_rows(witness))) == 76 == 34 + 42
    assert rank(jac) == 80 and 76 + 80 == jac.cols == 156


def test_loop_with_subcritical_vertices_takes_one_exact_rank(monkeypatch):
    # no leaf, and the kernel of J is larger than the gauge orbit: 36 columns, gauge rank 11, rank 22
    g = loop_graph((2, 2, 2), vertex_dims=(2, 3, 4))
    calls = _count_exact_ranks(monkeypatch)
    assert varieties._jacobian_rank(g, 0, QQ) == 22
    assert calls == [(24, 36)]
    assert tns_dim(g, seed=0) == 22


def test_chain_with_subcritical_leaves_over_q():
    g = chain_graph((3, 9, 9, 3), (4, 4, 4))
    assert tns_dim(g, seed=0) == tns_dim(g, seed=0, field=FP) == expected_dim(g) == 200


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
    # rank_p(J|C) = rank_p(J), C the columns off the pivots of the gauge and witness rows
    g = STREAMED_GRAPHS[name]
    monkeypatch.setattr(varieties, "_jacobian_plan", lambda g, field: (source == "sketch", True, 0))
    for seed in range(3):
        want = rank_mod_p(contraction_jacobian(random_instance(g, seed=seed, field=FP)))
        assert varieties._jacobian_rank(g, seed, FP) == want


def _count_streamed_rows(monkeypatch) -> list:
    """(rows read, columns) of each elimination of a Jacobian's rows."""
    calls = []
    eliminate = varieties._packed_eliminate

    def counted(rows, cols, prime, pivots):
        read = [0]

        def stream():
            for row in rows:
                read[0] += 1
                yield row

        r = eliminate(stream(), cols, prime, pivots)
        calls.append((read[0], len(cols)))
        return r

    monkeypatch.setattr(varieties, "_packed_eliminate", counted)
    return calls


@pytest.mark.parametrize("field", [QQ, FP], ids=["rational", "fp"])
@pytest.mark.parametrize("n", [3, 4, 5])
def test_loops_read_exactly_as_many_rows_as_kept_columns(monkeypatch, n, field):
    # every column of C gets a pivot, so the elimination stops after |C| of the 4^n rows
    g = loop_graph((2,) * n)
    calls = _count_streamed_rows(monkeypatch)
    assert varieties._jacobian_rank(g, 0, field) == loop_dim_formula((2,) * n)
    inst = random_instance(g, seed=0, field=field)
    kept = 16 * n - rank_mod_p(gauge_rows(inst))
    assert calls == [(kept, kept)] and kept == loop_dim_formula((2,) * n)


def test_loop_below_the_gauge_bound_reads_every_row(monkeypatch):
    calls = _count_streamed_rows(monkeypatch)
    # 24 rows and 36 columns: not gauge-fixed, every row is read on every column
    assert varieties._jacobian_rank(loop_graph((2, 2, 2), vertex_dims=(2, 3, 4)), 0, FP) == 22
    # 64 rows and 48 columns, 15 of them gauge pivots: J|C has rank 32 < |C| = 33
    assert varieties._jacobian_rank(loop_graph((2,) * 4, vertex_dims=(2, 4, 2, 4)), 0, FP) == 32
    assert calls == [(24, 36), (64, 33)]


@pytest.mark.parametrize("g, want", [
    (loop_graph((30, 30, 30), vertex_dims=(2, 2, 2)), 8),  # J is 8 x 5400
    (chain_graph((2, 2, 2), (100, 100)), 8),  # J is 8 x 20400
], ids=["loop30", "chain100"])
def test_wide_jacobians_build_no_tangent_rows(monkeypatch, g, want):
    # with no more rows than columns, C is every column and J has full row rank, so neither
    # field builds T, whose elimination would dwarf the rank of J's few rows
    def boom(inst):
        raise AssertionError("built the tangent rows")

    monkeypatch.setattr(varieties, "gauge_rows", boom)
    monkeypatch.setattr(varieties, "witness_rows", boom)
    calls = _count_streamed_rows(monkeypatch)
    assert tns_dim(g, seed=0, field=FP) == tns_dim(g, seed=0) == want
    assert calls == [(8, varieties.contraction_jacobian(random_instance(g, 0, FP)).cols)] * 4


def test_triangle_444_over_q_is_721():
    # 768 columns less the 47 of the gauge orbit: J|C has full column rank
    assert varieties._jacobian_rank(loop_graph((4, 4, 4)), 0, QQ) == 721


def test_jacobian_plan_counts_the_rows_a_sample_builds():
    # environment entries, or sketch cells; then, when gauge-fixed, the nonzeros of T and the
    # pivot rows of its elimination; plus the full Jacobian over Q
    loop5 = loop_graph((2,) * 5)  # 1024 x 80; T: 20 rows, 5 * 2 * (16 + 16) nonzeros
    assert varieties._jacobian_plan(loop5, FP) == (False, True, 5 * 4**4 * 4 + 320 + 20 * 80)
    assert varieties._jacobian_plan(loop5, QQ) == (False, True, 5 * 4**4 * 4 + 320 + 20 * 80 + 4**5 * 5 * 4)
    loop7 = loop_graph((2,) * 7)
    assert varieties._jacobian_plan(loop7, FP) == (True, True, (112 + 4) * 112 + 448 + 28 * 112)
    assert varieties._jacobian_plan(loop7, QQ) == (True, True, (112 + 4) * 112 + 448 + 28 * 112 + 4**7 * 7 * 4)
    loop8 = loop_graph((2,) * 8)
    assert varieties._jacobian_plan(loop8, FP) == (True, True, (128 + 4) * 128 + 512 + 32 * 128)
    assert varieties._jacobian_plan(loop8, QQ) == (True, True, (128 + 4) * 128 + 512 + 32 * 128 + 4**8 * 8 * 4)
    triangle = loop_graph((4, 4, 4))  # 4096 x 768; T: 48 rows, 3 * 4 * (256 + 256) nonzeros
    assert varieties._jacobian_plan(triangle, FP) == (False, True, 3 * 256 * 16 + 6144 + 48 * 768)
    # 64 x 12, five gauge rows of four nonzeros
    assert varieties._jacobian_plan(SEGRE6, FP) == (True, True, 192 + 20 + 5 * 12)
    # a chain with two subcritical leaves: 8 x 20400, not gauge-fixed, and T is not counted
    wide = chain_graph((2, 2, 2), (100, 100))
    assert varieties._jacobian_plan(wide, FP) == (False, False, 4 * 100 + 4 * 10**4 + 4 * 100)
    assert varieties._tangent_size(wide) == (2 * 10**4 + 2 * 98 * 200,
                                             2 * 100 * (200 + 20000) + 2 * 98 * 20000)
    for g in STREAMED_GRAPHS.values():
        inst = random_instance(g, seed=0)
        tangent = varieties._tangent_rows(inst)
        assert varieties._tangent_size(g) == (tangent.rows, len(tangent._nz))


def test_tns_dim_pins_over_q_and_fp():
    assert tns_dim(loop_graph((3, 3, 3)), seed=0) == 217 == loop_dim_formula((3, 3, 3))
    assert tns_dim(loop_graph((3,) * 4), seed=0, field=FP) == 289 == loop_dim_formula((3,) * 4)
    assert tns_dim(loop_graph((2,) * 6), seed=0) == 73 == loop_dim_formula((2,) * 6)


def test_jacobian_size_budget():
    for g in [loop_graph((2,) * 7), loop_graph((4, 4, 4)), SEGRE6, *JACOBIAN_GRAPHS.values()]:
        check_jacobian_size(g, QQ)
        check_jacobian_size(g, FP)
    check_jacobian_size(loop_graph((2,) * 8), FP)
    with pytest.raises(SemanticError, match="over the budget"):
        check_jacobian_size(loop_graph((2,) * 8), QQ)


def test_tns_dim_refuses_a_graph_over_budget_before_drawing(monkeypatch):
    def boom(*args):
        raise AssertionError("drew an instance for a refused size")

    monkeypatch.setattr(varieties, "random_instance", boom)
    for field in (QQ, FP):
        with pytest.raises(SemanticError, match="over the budget"):
            tns_dim(loop_graph((8,) * 4), field=field)


@pytest.mark.parametrize("n", [6, 7, 8])
def test_tns_dim_long_loops_over_fp(n):
    assert tns_dim(loop_graph((2,) * n), seed=0, field=FP) == loop_dim_formula((2,) * n)


def test_tns_dim_frozen_loop_values():
    assert tns_dim(loop_graph((2, 2, 2)), seed=0) == 37
    assert tns_dim(loop_graph((2, 2, 2, 2)), seed=0) == 49


def test_tns_dim_matches_orbit_dim():
    assert tns_dim(loop_graph((2, 2, 2)), seed=2) == orbit_dim(imm_loop((2, 2, 2)))


def test_tns_dim_two_vertex():
    g = NetworkGraph.build([(1, 3), (2, 3)], [(1, 1, 2, 2)])
    assert tns_dim(g, seed=0) == 8
    assert expected_dim(g) == 8


def test_tns_dim_supercritical_triangle():
    g = loop_graph((2, 2, 2), vertex_dims=(5, 4, 4))
    assert tns_dim(g, seed=0) == 41


@pytest.mark.parametrize("samples", [(37, 36), (36, 37)])
def test_tns_dim_returns_the_larger_sample(monkeypatch, samples):
    # a sampled rank never exceeds the generic rank, so the larger one wins
    ranks = iter(samples)
    monkeypatch.setattr(varieties, "_jacobian_rank", lambda g, seed, field: next(ranks))
    assert tns_dim(loop_graph((2, 2, 2)), seed=0) == 37


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
