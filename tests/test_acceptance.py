"""Acceptance gate.

One test per shipping criterion; `pytest -v` prints one pass/fail line
for each.  Criterion 3 checks that the leading term of the
diagonal-splitting curve equals the closed-form boundary tensor
`m_tilde_formula` entry for entry at e = 2 and 3.  If they ever differ,
the failure message carries the full diff and the invariants the two
tensors still share.
"""
from __future__ import annotations

import json
import time

import pytest

import test_properties as props
from tngeom import (
    QQ,
    act_curve,
    chain_graph,
    contract_network,
    curve_from_splitting,
    diagonal_splitting,
    expected_dim,
    flatten,
    is_concise,
    leading_term,
    loop_graph,
    m_tilde_formula,
    mlrank,
    mmult,
    random_instance,
    rank,
    reduce_valence_one,
    stabilizer_dim,
    sub_membership,
    tns_dim,
)
from tngeom.cli import main


def test_criterion_01_matrix_multiplication_stabilizer_dims():
    for e, want in ((2, 11), (3, 26)):
        start = time.perf_counter()
        got = stabilizer_dim(mmult(e, e, e, QQ))
        elapsed = time.perf_counter() - start
        assert got == want == 3 * e * e - 1
        assert elapsed < 10.0, f"e={e} took {elapsed:.1f}s"


def test_criterion_02_boundary_tensor_stabilizer_dims():
    for e, want in ((2, 12), (3, 30)):
        assert stabilizer_dim(m_tilde_formula(e, QQ)) == want == 4 * e * e - 2 * e


def test_criterion_03_curve_limit_equals_closed_form_entrywise():
    for e in (2, 3):
        expansion = act_curve(
            mmult(e, e, e, QQ), curve_from_splitting(diagonal_splitting(e, QQ))
        )
        assert expansion.coefficient(0) is None, "power-0 coefficient must vanish"
        power, limit = leading_term(expansion)
        assert power == 1
        formula = m_tilde_formula(e, QQ)
        if limit != formula:
            lim = dict(limit.nonzeros())
            frm = dict(formula.nonzeros())
            diff = {
                idx: (str(lim.get(idx, 0)), str(frm.get(idx, 0)))
                for idx in sorted(set(lim) | set(frm))
                if lim.get(idx, 0) != frm.get(idx, 0)
            }
            pytest.fail(
                f"e={e}: curve limit and closed form differ on {len(diff)} "
                f"entries (limit value, closed-form value): {diff}. "
                f"Shared invariants: stabilizer_dim {stabilizer_dim(limit)} == "
                f"{stabilizer_dim(formula)}, mlrank {mlrank(limit)} == "
                f"{mlrank(formula)}. The limit must equal m_tilde_formula "
                f"entry for entry: the sum of the three mixed projected "
                f"traces, each coefficient 1 on disjoint supports."
            )


def _run_cli(argv, capsys):
    code = main(argv)
    out = capsys.readouterr().out
    return code, out


def test_criterion_04_certify_cli_both_sizes(capsys):
    for e, pair in ((2, (11, 12)), (3, (26, 30))):
        code, out = _run_cli(["certify", "--e", str(e)], capsys)
        assert code == 0, f"e={e} exited {code}"
        rep = json.loads(out)
        assert rep["conclusion"] == "not_closed_certified"
        assert (rep["stab_mmult"], rep["stab_mtilde"]) == pair


def test_criterion_05_critical_loop_dimensions():
    for n, want in ((3, 37), (4, 49)):
        g = loop_graph((2,) * n)
        for seed in range(5):
            assert tns_dim(g, seed=seed) == want == 12 * n + 1


def test_criterion_06_supercritical_triangle_dimension():
    g = loop_graph((2, 2, 2), vertex_dims=(5, 4, 4))
    # offset over the critical core: sum f_j*(v_j-f_j) = 4*(5-4) = 4
    assert tns_dim(g) == 41 == 37 + 4
    assert expected_dim(g) == 41


def test_criterion_07_two_vertex_rank_law():
    g = chain_graph((3, 3), (2,))
    rank_two = 0
    for seed in range(200):
        t = contract_network(random_instance(g, seed=seed))
        r = rank(flatten(t, 0))
        assert r <= 2, f"seed {seed} gave rank {r}"
        rank_two += r == 2
    assert rank_two >= 195, f"only {rank_two}/200 hit rank 2"
    assert tns_dim(g) == 8


def test_criterion_08_invariance_families_cover_twenty_cases():
    families = [
        props.test_orientation_flip_preserves_contraction,
        props.test_edge_gauge_preserves_contraction,
        props.test_first_order_term_matches_leibniz,
        props.test_contraction_order_independence,
        props.test_mlrank_invariant_under_invertible_maps,
        props.test_rank_agrees_with_two_modular_ranks,
    ]
    for fn in families:
        marks = [m for m in fn.pytestmark if m.name == "parametrize"]
        assert marks, f"{fn.__name__} is not parametrized"
        assert len(list(marks[0].args[1])) >= 20, f"{fn.__name__} has <20 cases"
        fn(0)  # smoke-run one case here; the full grid runs in its own module


def test_criterion_09_chain_reductions():
    # supercritical middle vertex: contraction fills the ambient space
    full = chain_graph((2, 4, 2), (2, 2))
    for seed in range(5):
        t = contract_network(random_instance(full, seed=seed))
        assert mlrank(t) == (2, 4, 2)
    assert tns_dim(full) == 2 * 4 * 2

    # non-supercritical: contractions live in the subspace variety with
    # bounds (e1, e1*e2, e2)
    sub = chain_graph((3, 5, 3), (2, 2))
    for seed in range(50):
        t = contract_network(random_instance(sub, seed=seed))
        assert sub_membership(t, (2, 4, 2)), f"seed {seed} escaped Sub_(2,4,2)"

    # valence-one merging collapses a 4-chain to the two-vertex graph
    g4 = chain_graph((2, 4, 4, 2), (2, 2, 2))
    reduced, merges = reduce_valence_one(g4)
    assert len(reduced.vertices) == 2
    assert len(reduced.edges) == 1
    assert len(merges) == 2
