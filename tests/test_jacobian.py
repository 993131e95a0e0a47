"""The two bounds each Jacobian sample gives on a network set's dimension,
and the one sample `dim` draws where they meet."""

import json
import os
import tempfile

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from tngeom import cli, jacobian, jsonio
from tngeom.fields import QQ, PrimeField
from tngeom.linalg import Matrix, rank
from tngeom.networks import (
    NetworkGraph,
    TNSInstance,
    chain_graph,
    expected_dim,
    loop_graph,
    random_instance,
    reduce_valence_one,
)
from tngeom.tensors import Tensor

from oracles import annihilates, rank_mod_p

FP = PrimeField(2**31 - 1)
FIELDS = {"rational": QQ, "fp": FP}


def _dim_report(g: NetworkGraph, field: str, seed: int) -> dict:
    """The report of `tngeom dim` on g, run in-process."""
    with tempfile.TemporaryDirectory() as tmp:
        path, out = os.path.join(tmp, "graph.json"), os.path.join(tmp, "report.json")
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(jsonio.dumps(jsonio.graph_to_obj(g)))
        assert cli.main(["dim", path, "--field", field, "--seed", str(seed), "--out", out]) == 0
        with open(out, encoding="utf-8") as fh:
            return json.load(fh)


@st.composite
def trees(draw):
    """Trees of up to five vertices, random orientations, vertex dims 1..4 and edge dims 1..3."""
    n = draw(st.integers(2, 5))
    vertices, edges = [], []
    for vid in range(1, n + 1):
        vertices.append((vid, draw(st.integers(1, 4))))
        if vid > 1:
            parent = draw(st.integers(1, vid - 1))
            tail, head = (parent, vid) if draw(st.booleans()) else (vid, parent)
            edges.append((vid - 1, tail, head, draw(st.integers(1, 3))))
    return NetworkGraph.build(vertices, edges)


@st.composite
def loops(draw):
    """Loops of 3 or 4 edges of dims 1..2, each vertex dim within one of its two edges' product."""
    n = draw(st.integers(3, 4))
    edges = tuple(draw(st.integers(1, 2)) for _ in range(n))
    dims = tuple(draw(st.integers(max(1, edges[i - 1] * edges[i] - 1), edges[i - 1] * edges[i] + 1))
                 for i in range(n))
    return loop_graph(edges, vertex_dims=dims)


@settings(max_examples=40)
@given(st.one_of(trees(), loops()), st.sampled_from(sorted(FIELDS)), st.integers(0, 10**6))
@example(loop_graph((2, 2, 2), vertex_dims=(2, 4, 4)), "rational", 0)  # the bounds leave a gap
@example(chain_graph((3, 9, 9, 3), (4, 4, 4)), "fp", 0)  # subcritical leaves, folded to two vertices
def test_the_bounds_hold_the_formula_and_meet_exactly_where_labelled(g, field, seed):
    report = _dim_report(g, field, seed)
    lower, upper = report["jacobian_dim"], report["jacobian_dim_upper"]
    assert (lower, upper) == jacobian.tns_dim(g, seed, FIELDS[field])
    formula = expected_dim(g)
    if formula is not None:
        assert lower <= formula <= upper
    assert lower <= upper
    assert report["jacobian_dim_bound"] == ("exact" if lower == upper else "lower")


@st.composite
def folding_trees(draw):
    """Trees of up to six vertices, vertex and edge dims 1..3; in about half, every leaf is one below its edge."""
    n = draw(st.integers(2, 6))
    dims, edges = {}, []
    for vid in range(1, n + 1):
        dims[vid] = draw(st.integers(1, 3))
        if vid > 1:
            parent = draw(st.integers(1, vid - 1))
            tail, head = (parent, vid) if draw(st.booleans()) else (vid, parent)
            edges.append((vid - 1, tail, head, draw(st.integers(1, 3))))
    if draw(st.booleans()):
        for _, tail, head, d in edges:
            for v in (tail, head):
                if d > 1 and sum(v in (t, h) for _, t, h, _ in edges) == 1:
                    dims[v] = d - 1
    return NetworkGraph.build(list(dims.items()), edges)


@settings(max_examples=50)
@given(folding_trees(), st.sampled_from(sorted(FIELDS)), st.integers(0, 10**6))
@example(chain_graph((2, 6, 6, 2), (3, 4, 3)), "rational", 0)  # folds to (12, 12) on an edge of 4
@example(chain_graph((2, 3, 2), (3, 3)), "fp", 0)  # folds to one vertex
def test_the_folded_lower_bound_is_the_rank_of_the_unfolded_jacobian(g, field, seed):
    # the fold is exact, so the lower bound tns_dim reads off the folded graph is the generic rank of
    # the unfolded graph's Jacobian, which its rank at a random instance reaches (mod p over Fp)
    lower, upper = jacobian.tns_dim(g, seed, FIELDS[field])
    jac = jacobian.contraction_jacobian(random_instance(g, seed + 1, FIELDS[field]))
    assert lower == (rank(jac) if field == "rational" else rank_mod_p(jac))
    formula = expected_dim(g)
    assert lower <= upper and (formula is None or lower <= formula <= upper)


def _count_samples(monkeypatch) -> list:
    calls = []
    sample = jacobian._jacobian_rank
    monkeypatch.setattr(jacobian, "_jacobian_rank", lambda *a: calls.append(a) or sample(*a))
    return calls


@pytest.mark.parametrize("field", sorted(FIELDS))
@pytest.mark.parametrize("dims, want", [((2, 4, 4), (26, 32)), ((2, 3, 4), (22, 24))], ids=["244", "234"])
def test_loops_with_subcritical_vertices_stay_lower_after_two_samples(monkeypatch, field, dims, want):
    # J has fewer rows than columns (32 x 40 and 24 x 36), so C is every column and the upper bound is
    # the row count; the rank falls short of it at both samples
    g = loop_graph((2, 2, 2), vertex_dims=dims)
    calls = _count_samples(monkeypatch)
    report = _dim_report(g, field, 0)
    assert (report["jacobian_dim"], report["jacobian_dim_upper"]) == want
    assert report["jacobian_dim_bound"] == "lower"
    assert len(calls) == 2


_gauge_rows = jacobian.gauge_rows


def _corrupted_gauge_rows(inst) -> Matrix:
    """The gauge rows with one entry of row 1 moved: the same rank, and off the Jacobian's kernel."""
    m = _gauge_rows(inst)
    nz = dict(m._nz)
    k = min(c for c in nz if c // m.cols == 1)
    nz[k] = nz[k] + 1
    return Matrix._from_flat(m.shape, nz, m.field)


@pytest.mark.parametrize("g", [loop_graph((2, 2, 2)), loop_graph((2,) * 4),
                               loop_graph((2, 2, 2), vertex_dims=(5, 4, 4)), chain_graph((3, 6, 6, 3), (3, 2, 3))],
                         ids=["loop222", "loop2222", "superloop", "chain"])
def test_a_corrupted_gauge_row_over_q_is_never_exact(monkeypatch, g):
    # the oracle rejects the corrupted T at the instance a sample draws, on these gauge-fixed graphs;
    # the chain is sampled folded, on (18, 18).  No sample checks T (the identity J T^T = 0 is
    # test_gauge_rows_annihilate_the_jacobian's), so over Q a sample gives the pair Fp gives.  T keeps
    # its rank, so the upper bound is still the dimension; on the loops C moves off the gauge pivots
    # and the lower bound falls one short, so no sample reads as exact at a wrong number
    folded = reduce_valence_one(g)[0]
    nrows, _, ncols = jacobian._layout(folded)
    assert nrows > ncols
    for seed in range(3):
        inst = random_instance(folded, seed, QQ)
        assert not annihilates(jacobian.contraction_jacobian(inst), _corrupted_gauge_rows(inst))
    monkeypatch.setattr(jacobian, "gauge_rows", _corrupted_gauge_rows)
    for seed in range(3):
        lower, upper = jacobian.tns_dim(g, seed, QQ)
        assert (lower, upper) == jacobian.tns_dim(g, seed, FP)
        assert lower <= upper == expected_dim(g)


def _subcritical_leaves(g: NetworkGraph) -> list[int]:
    """The leaves of g whose dimension is below their edge's."""
    return [v.id for v in g.vertices if g.degree(v.id) == 1 and v.dim < g.incident(v.id)[0].dim]


def _with_a_rank_deficient_leaf(inst: TNSInstance) -> TNSInstance:
    """The instance with the first subcritical leaf's last row made the sum of its others."""
    leaf = _subcritical_leaves(inst.graph)[0]
    t = inst.tensors[leaf]
    rows, cols = t.shape
    entries = list(t.entries)
    entries[(rows - 1) * cols:] = [sum(entries[r * cols + c] for r in range(rows - 1)) for c in range(cols)]
    return TNSInstance(inst.graph, {**inst.tensors, leaf: Tensor(t.shape, entries, t.field)})


@pytest.mark.parametrize("field", sorted(FIELDS))
def test_a_rank_deficient_subcritical_leaf_is_never_exact(monkeypatch, field):
    # a leaf of dim 3 on an edge of dim 4 is a special point of the unfolded network when its tensor
    # drops rank: there J falls below the dimension 200, and a sample could report no more.  tns_dim
    # draws on the folded graph, (27, 27) on an edge of 4, which has no such leaf, so no sample is
    # ever drawn with one, and the sample is exact at 200 whatever a leaf tensor could be
    g = chain_graph((3, 9, 9, 3), (4, 4, 4))
    nrows, _, ncols = jacobian._layout(g)
    assert nrows > ncols  # gauge-fixed
    drawn, draw = [], jacobian.random_instance

    def special(h, *args):
        drawn.append(h)
        inst = draw(h, *args)
        return _with_a_rank_deficient_leaf(inst) if _subcritical_leaves(h) else inst

    monkeypatch.setattr(jacobian, "random_instance", special)
    # a sample of the unfolded graph at the special point (over Fp, where the rank of J|C is cheap)
    lower, upper = jacobian._jacobian_rank(g, 0, FP)
    assert lower < 200 < upper
    del drawn[:]
    assert jacobian.tns_dim(g, 0, FIELDS[field]) == (200, 200)
    assert drawn and not any(_subcritical_leaves(h) for h in drawn)
    assert {tuple(v.dim for v in h.vertices) for h in drawn} == {(27, 27)}


def test_dim_of_a_loop_of_eight_over_q_is_the_fp_report():
    # a sample is the same over both fields, so only the field's label differs
    g = loop_graph((2,) * 8)
    rational, fp = _dim_report(g, "rational", 0), _dim_report(g, "fp", 0)
    assert (rational["jacobian_dim"], rational["jacobian_dim_upper"], rational["jacobian_dim_bound"]) == (97, 97, "exact")
    assert rational["field"] != fp["field"]
    drop = ("field", "prime")
    assert {k: v for k, v in rational.items() if k not in drop} == {k: v for k, v in fp.items() if k not in drop}


# the graphs and fields of the benchmark's `dim` workload
WORKLOAD = [
    (loop_graph((2, 2, 2)), "rational"), (loop_graph((2, 2, 2)), "fp"),
    (loop_graph((2,) * 4), "rational"), (loop_graph((2,) * 4), "fp"),
    (loop_graph((2,) * 5), "fp"),
    (loop_graph((2, 3, 2)), "rational"),
    (loop_graph((2,) * 4, vertex_dims=(6, 4, 4, 4)), "rational"),
    (chain_graph((3, 6, 6, 3), (3, 2, 3)), "rational"),
]


@pytest.mark.parametrize("seed", [0, 1])
@pytest.mark.parametrize("g, field", WORKLOAD, ids=["loop2x3-q", "loop2x3-fp", "loop2x4-q", "loop2x4-fp",
                                                    "loop2x5-fp", "loop232-q", "superloop6444-q", "chain3663-q"])
def test_each_graph_of_the_dim_workload_draws_one_sample(monkeypatch, g, field, seed):
    calls = _count_samples(monkeypatch)
    report = _dim_report(g, field, seed)
    assert report["jacobian_dim_bound"] == "exact"
    assert report["jacobian_dim"] == report["jacobian_dim_upper"] == report["formula_dim"]
    assert len(calls) == 1
