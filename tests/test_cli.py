import hashlib
import json
import os
import resource
import subprocess
import sys
import time
from pathlib import Path

import pytest

from tngeom import cli, jacobian, jsonio, networks, stabilizer, varieties, zoo
from tngeom.cli import main
from tngeom.curves import TensorLaurent, act_curve, curve_from_splitting
from tngeom.errors import SemanticError
from tngeom.fields import DEFAULT_PRIME, QQ, PrimeField
from tngeom.linalg import Matrix
from tngeom.networks import chain_graph, contract_network, identity_instance, loop_graph, random_instance
from tngeom.tensors import Tensor
from tngeom.zoo import Splitting, diagonal_splitting, mmult

from oracles import block_splitting, instance_to_obj, matrix_to_obj, splitting_to_obj


@pytest.fixture
def triangle_files(tmp_path):
    g = loop_graph((2, 2, 2))
    paths = {}
    paths["graph"] = tmp_path / "graph.json"
    paths["graph"].write_text(jsonio.dumps(jsonio.graph_to_obj(g)))
    paths["instance"] = tmp_path / "instance.json"
    paths["instance"].write_text(jsonio.dumps(instance_to_obj(identity_instance(g))))
    paths["tensor"] = tmp_path / "tensor.json"
    paths["tensor"].write_text(jsonio.dumps(jsonio.tensor_to_obj(mmult(2, 2, 2))))
    ident = Matrix.identity(4)
    paths["idsplit"] = tmp_path / "idsplit.json"
    paths["idsplit"].write_text(jsonio.dumps(splitting_to_obj(Splitting(ident, ident, ident))))
    return paths


def run(args, capsys):
    code = main([str(a) for a in args])
    out = capsys.readouterr()
    return code, out.out, out.err


def test_contract_identity_instance(triangle_files, capsys):
    code, out, _ = run(["contract", triangle_files["instance"]], capsys)
    assert code == 0
    assert json.loads(out) == jsonio.tensor_to_obj(mmult(2, 2, 2))


def test_contract_writes_file(triangle_files, tmp_path, capsys):
    target = tmp_path / "out.json"
    code, out, _ = run(["contract", triangle_files["instance"], "--out", target], capsys)
    assert code == 0 and out == ""
    assert json.loads(target.read_text())["shape"] == [4, 4, 4]


def test_stabilizer_report(triangle_files, capsys):
    code, out, _ = run(["stabilizer", triangle_files["tensor"]], capsys)
    assert code == 0
    rep = json.loads(out)
    assert rep == {"stab_dim": 11, "orbit_dim": 37, "field": "rational", "prime": None}


def test_stabilizer_prime_backend(triangle_files, capsys):
    code, out, _ = run(["stabilizer", triangle_files["tensor"], "--field", "fp"], capsys)
    assert code == 0
    rep = json.loads(out)
    assert rep["stab_dim"] == 11
    assert rep["field"] == "Fp" and rep["prime"] == 2**31 - 1


def test_certify_default_splitting(capsys):
    code, out, _ = run(["certify", "--e", "2"], capsys)
    assert code == 0
    rep = json.loads(out)
    assert rep["conclusion"] == "not_closed_certified"
    assert (rep["stab_mmult"], rep["stab_mtilde"]) == (11, 12)


def test_certify_is_exact_by_default(capsys):
    # 3e^4 = 1875 unknowns at e = 5; the default field stays Q at every size
    code, out, _ = run(["certify", "--e", "5"], capsys)
    assert code == 0
    rep = json.loads(out)
    assert (rep["field"], rep["prime"]) == ("rational", None)
    assert (rep["stab_mmult"], rep["stab_mtilde"], rep["conclusion"]) == (74, 90, "not_closed_certified")


@pytest.mark.parametrize("argv", [["contract", "x"], ["stabilizer", "x"], ["certify", "--e", "2"], ["dim", "x"],
                                  ["reduce", "x"], ["limit", "--e", "2"]])
def test_field_defaults_to_rational(argv):
    assert cli.make_parser().parse_args(argv).field == "rational"


def test_certify_refuses_a_system_over_budget_before_building(monkeypatch, capsys):
    def boom(*args, **kwargs):
        raise AssertionError("built a tensor for a refused size")

    for mod, name in ((cli, "mmult"), (varieties, "mmult"), (zoo, "mmult"), (cli, "diagonal_splitting")):
        monkeypatch.setattr(mod, name, boom)
    code, out, err = run(["certify", "--e", "1000"], capsys)
    assert code == 3 and out == ""
    assert "nonzeros" in err


def test_stabilizer_is_exact_by_default_on_a_large_tensor(tmp_path, capsys):
    # the unit tensor of size 17: group dimension 3 * 17^2 = 867, stabilizer the 2n-dimensional torus
    path = tmp_path / "unit17.json"
    path.write_text(json.dumps({"shape": [17, 17, 17], "entries": [{"idx": [i, i, i], "val": "1"} for i in range(17)]}))
    code, out, _ = run(["stabilizer", path], capsys)
    assert code == 0
    assert json.loads(out) == {"stab_dim": 34, "orbit_dim": 833, "field": "rational", "prime": None}


def test_stabilizer_refuses_a_system_over_budget(tmp_path, monkeypatch, capsys):
    # n nonzeros of a 100x100x100 tensor give n * 300 system nonzeros, one past the budget's worth
    n = stabilizer.MAX_SYSTEM_NNZ // 300 + 1
    assert n * 300 > stabilizer.MAX_SYSTEM_NNZ
    path = tmp_path / "big.json"
    entries = [{"idx": [i % 100, i // 100 % 100, i // 10**4], "val": "1"} for i in range(n)]
    path.write_text(json.dumps({"shape": [100, 100, 100], "entries": entries}))
    monkeypatch.setattr(stabilizer, "Matrix", None)  # building the system would raise
    code, out, err = run(["stabilizer", path], capsys)
    assert code == 3 and out == ""
    assert "over the budget" in err


def test_stabilizer_refuses_a_system_that_could_fill_over_budget(tmp_path, monkeypatch, capsys):
    # a dense 2x2x200 tensor: 163200 system nonzeros, under their budget, but
    # one component of 800 rows and 40008 columns that elimination can fill
    n = 200
    assert 4 * n * (n + 4) <= stabilizer.MAX_SYSTEM_NNZ < 800 * 40008
    path = tmp_path / "thin.json"
    entries = [{"idx": [a, b, k], "val": "1"} for a in range(2) for b in range(2) for k in range(n)]
    path.write_text(json.dumps({"shape": [2, 2, n], "entries": entries}))
    monkeypatch.setattr(stabilizer, "Matrix", None)  # building the system would raise
    code, out, err = run(["stabilizer", path], capsys)
    assert code == 3 and out == ""
    assert f"fill {800 * 40008} cells" in err


def _run_in_address_space(args: list, limit: int) -> subprocess.CompletedProcess:
    """`python -m tngeom ARGS` in a child process held to `limit` bytes of address space (RLIMIT_AS)."""
    root = Path(__file__).resolve().parents[1]
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(root / "src"), env.get("PYTHONPATH")]))
    return subprocess.run([sys.executable, "-m", "tngeom", *map(str, args)], capture_output=True, text=True,
                          env=env, timeout=120,
                          preexec_fn=lambda: resource.setrlimit(resource.RLIMIT_AS, (limit, limit)))


def test_stabilizer_on_a_wide_sparse_tensor_holds_little_memory(tmp_path):
    # shape (300, 300, 1) with one nonzero: 90000 rows and 180001 columns, of which 600 are held
    path = tmp_path / "wide.json"
    path.write_text(json.dumps({"shape": [300, 300, 1], "entries": [{"idx": [0, 0, 0], "val": "1"}]}))
    proc = _run_in_address_space(["stabilizer", path], 2**30)
    assert proc.returncode == 0, proc.stderr
    # the orbit of a rank-one tensor has dimension 1 + sum(n_j - 1) = 599
    assert json.loads(proc.stdout) == {"stab_dim": 179402, "orbit_dim": 599, "field": "rational", "prime": None}


def test_stabilizer_of_one_nonzero_in_a_cube_holds_no_object_per_free_column(tmp_path):
    # shape (400, 400, 400) with one nonzero: 480000 columns, 1199 held.  Each column that no row holds
    # is free and costs nothing but its label: about 80 MB of address space, where building the system
    # and eliminating it took 580 MB (2-core host, Python 3.11)
    path = tmp_path / "cube.json"
    path.write_text(json.dumps({"shape": [400, 400, 400], "entries": [{"idx": [0, 0, 0], "val": "1"}]}))
    proc = _run_in_address_space(["stabilizer", path], 256 * 2**20)
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout) == {"stab_dim": 480000 - 1198, "orbit_dim": 1198, "field": "rational",
                                       "prime": None}


def test_certify_ranks_one_component_at_a_time(tmp_path):
    # over Q at e = 10 the trace tensor's system has 3e^5 = 300000 nonzeros, its largest component
    # 300 columns: about 30 MB of address space, where building the system whole took 140 MB
    # (2-core host, Python 3.11)
    proc = _run_in_address_space(["certify", "--e", "10"], 96 * 2**20)
    assert proc.returncode == 0, proc.stderr
    report = json.loads(proc.stdout)
    assert (report["stab_mmult"], report["stab_mtilde"], report["conclusion"]) == (299, 380, "not_closed_certified")
    assert (report["field"], report["prime"]) == ("rational", None)


def test_stabilizer_refuses_a_system_over_its_column_budget_from_the_shape(tmp_path, monkeypatch, capsys):
    # (800, 800, 1) gives 1280001 columns; mmult at e = 16 gives 3 * 16^4 = 196608 and fits
    assert 3 * 16**4 <= stabilizer.MAX_SYSTEM_COLS < 2 * 800**2 + 1
    path = tmp_path / "wide.json"
    path.write_text(json.dumps({"shape": [800, 800, 1], "entries": [{"idx": [0, 0, 0], "val": "1"}]}))

    def boom(*args, **kwargs):
        raise AssertionError("built a system for a refused shape")

    monkeypatch.setattr(cli, "build_system", boom)
    target = tmp_path / "out.json"
    code, out, err = run(["stabilizer", path, "--out", target], capsys)
    assert code == 3 and out == "" and not target.exists()
    assert err == f"error: stabilizer system would have 1280001 columns, over the budget of {stabilizer.MAX_SYSTEM_COLS}\n"
    monkeypatch.setattr(stabilizer, "Matrix", None)  # building the system would raise
    with pytest.raises(SemanticError, match="1280001 columns"):
        stabilizer.build_system(Tensor.from_nonzeros((800, 800, 1), {(0, 0, 0): 1}))


BIG = 10**4000  # 4001 digits: readable, but a product of two is past Python's 4300-digit limit for text


def _big_input(command: str) -> dict:
    """An input with 4001-digit dimensions whose run meets an integer of about 8000 digits."""
    if command == "dim-vertex":
        return jsonio.graph_to_obj(chain_graph((BIG, 2, BIG), (2, 2)))
    if command == "dim-edge":
        return jsonio.graph_to_obj(loop_graph((BIG, BIG, 2), (2, 2, 2)))
    if command == "contract":
        g = chain_graph((BIG, BIG), (BIG,))
        return {**jsonio.graph_to_obj(g), "tensors": {"1": {"shape": [BIG, BIG], "entries": []},
                                                      "2": {"shape": [BIG, BIG], "entries": []}}}
    return jsonio.graph_to_obj(chain_graph((BIG, BIG), (BIG,)))  # reduce: the fold has dimension 10^8000


@pytest.mark.parametrize("command", ["dim-vertex", "dim-edge", "contract", "reduce"])
def test_exit_3_on_an_integer_past_the_digit_limit(tmp_path, capsys, command):
    path = tmp_path / "big.json"
    path.write_text(json.dumps(_big_input(command)))
    target = tmp_path / "out.json"
    code, out, err = run([command.split("-")[0], path, "--out", target], capsys)
    assert code == 3 and out == "" and not target.exists()
    assert err.startswith("error: ") and err.count("\n") == 1
    if command != "reduce":
        assert "over 10^" in err and "over the budget" in err


def test_dim_folds_leaves_on_edges_past_the_digit_limit(tmp_path, capsys):
    # each leaf of chain (2, 2, 2) fits inside its 4001-digit edge, so the chain folds to one vertex
    # of dimension 8 before any budget is counted
    path = tmp_path / "big.json"
    path.write_text(json.dumps(jsonio.graph_to_obj(chain_graph((2, 2, 2), (BIG, BIG)))))
    code, out, err = run(["dim", path], capsys)
    assert code == 0 and err == ""
    report = json.loads(out)
    assert (report["jacobian_dim"], report["jacobian_dim_upper"], report["formula_dim"]) == (8, 8, 8)
    assert report["jacobian_dim_bound"] == "exact"


@pytest.mark.parametrize("command", ["certify", "limit"])
def test_exit_3_on_an_e_whose_budget_count_is_past_the_digit_limit(capsys, command):
    code, out, err = run([command, "--e", "9" * 2000], capsys)
    assert code == 3 and out == ""
    assert "over 10^" in err and "over the budget" in err and err.count("\n") == 1


def test_certify_identity_splitting_inconclusive(triangle_files, capsys):
    code, out, _ = run(["certify", "--e", "2", "--splitting", triangle_files["idsplit"]], capsys)
    assert code == 1
    rep = json.loads(out)
    assert rep["conclusion"] == "inconclusive"
    assert "power-0" in rep["reason"]


def test_dim_report(triangle_files, capsys):
    code, out, _ = run(["dim", triangle_files["graph"], "--seed", "3"], capsys)
    assert code == 0
    assert json.loads(out) == {"jacobian_dim": 37, "formula_dim": 37, "agree": True,
                               "field": "rational", "prime": None, "seed": 3, "jacobian_dim_bound": "exact",
                               "jacobian_dim_upper": 37}
    assert list(json.loads(out))[-3:] == ["seed", "jacobian_dim_bound", "jacobian_dim_upper"]


@pytest.mark.parametrize("field", ["rational", "fp"])
def test_dim_refuses_a_graph_over_budget_before_drawing(tmp_path, monkeypatch, capsys, field):
    p = tmp_path / "loop8.json"
    p.write_text(jsonio.dumps(jsonio.graph_to_obj(loop_graph((8,) * 4))))
    monkeypatch.setattr(jacobian, "random_instance", None)  # drawing an instance would raise
    code, out, err = run(["dim", p, "--field", field], capsys)
    assert code == 3 and out == ""
    assert "over the budget" in err


def test_reports_stream_the_bytes_of_dumps(tmp_path, triangle_files, capsys):
    # each report against the dict it was written from before tensors were streamed
    out = tmp_path / "report.json"
    for field, f in (("rational", QQ), ("fp", PrimeField(DEFAULT_PRIME))):
        inst = random_instance(loop_graph((2, 3, 2)), seed=3, field=f)
        inst_path = tmp_path / f"loop232-{field}.json"
        inst_path.write_text(jsonio.dumps(instance_to_obj(inst)))
        cases = [(["contract", triangle_files["instance"]], jsonio.tensor_to_obj(mmult(2, 2, 2))),
                 (["contract", inst_path], jsonio.tensor_to_obj(contract_network(inst)))]
        for e in (2, 3, 4):
            expansion = act_curve(mmult(e, e, e, f), curve_from_splitting(diagonal_splitting(e, f)))
            terms = [{"power": p, "tensor": jsonio.tensor_to_obj(t)} for p, t in expansion.terms]
            cases.append((["limit", "--e", e], {"e": e, "leading_power": terms[0]["power"],
                                                "leading_term": terms[0]["tensor"], "terms": terms}))
        for args, obj in cases:
            assert run([*args, "--field", field, "--out", out], capsys)[0] == 0
            _, stdout, _ = run([*args, "--field", field], capsys)
            assert out.read_text() == stdout == jsonio.dumps(obj), (field, args)


def test_dim_unknown_formula(tmp_path, capsys):
    g = chain_graph((3, 5, 3), (2, 2))
    p = tmp_path / "chain.json"
    p.write_text(jsonio.dumps(jsonio.graph_to_obj(g)))
    code, out, _ = run(["dim", p], capsys)
    assert code == 0
    rep = json.loads(out)
    assert rep["formula_dim"] == "unknown" and rep["agree"] is None
    assert isinstance(rep["jacobian_dim"], int)


def test_reduce_chain(tmp_path, capsys):
    g = chain_graph((2, 4, 4, 2), (2, 2, 2))
    p = tmp_path / "chain4.json"
    p.write_text(jsonio.dumps(jsonio.graph_to_obj(g)))
    code, out, _ = run(["reduce", p], capsys)
    assert code == 0
    rep = json.loads(out)
    assert len(rep["graph"]["vertices"]) == 2
    assert len(rep["merges"]) == 2
    assert rep["merges"][0] == {"removed": 1, "edge": 1, "target": 2, "new_dim": 8}


def test_limit_report(capsys):
    code, out, _ = run(["limit", "--e", "2"], capsys)
    assert code == 0
    rep = json.loads(out)
    assert rep["leading_power"] == 1
    # degree-2 coefficient vanishes: any combination with exactly two
    # off-diagonal projections has a zero trace when e = 2
    assert [t["power"] for t in rep["terms"]] == [1, 3]
    assert rep["leading_term"] == rep["terms"][0]["tensor"]


def test_limit_refuses_an_e_over_budget_before_building(monkeypatch, capsys):
    def boom(*args, **kwargs):
        raise AssertionError("built a tensor for a refused size")

    for name in ("mmult", "diagonal_splitting"):
        monkeypatch.setattr(cli, name, boom)
    assert 1000**3 > cli.MAX_LIMIT_NNZ
    code, out, err = run(["limit", "--e", "1000"], capsys)
    assert code == 3 and out == ""
    assert "over the budget" in err


def test_exit_2_on_bad_json(tmp_path, capsys):
    p = tmp_path / "bad.json"
    p.write_text("not json")
    code, _, err = run(["contract", p], capsys)
    assert code == 2 and "error" in err


def test_exit_2_on_bad_prime(triangle_files, capsys):
    code, _, err = run(["stabilizer", triangle_files["tensor"], "--field", "fp", "--prime", "10"], capsys)
    assert code == 2 and "prime" in err


@pytest.mark.parametrize("command", [["dim", "graph"], ["certify", "--e", "2"]])
def test_exit_2_on_a_strong_pseudoprime_modulus(triangle_files, capsys, command):
    # 399165290221 * 798330580441 passes Miller-Rabin to every prime base up to 37
    args = [triangle_files.get(a, a) for a in command]
    code, out, err = run([*args, "--field", "fp", "--prime", "318665857834031151167461"], capsys)
    assert code == 2 and out == ""
    assert "prime" in err and "Traceback" not in err


def test_exit_2_on_a_json_integer_past_the_digit_limit(tmp_path, capsys):
    # json.loads raises a ValueError that is not a JSONDecodeError past 4300 digits
    p = tmp_path / "huge.json"
    p.write_text('{"shape": [1], "entries": [{"idx": [0], "val": ' + "7" * 5001 + "}]}")
    for field in ("rational", "fp"):
        start = time.perf_counter()
        code, out, err = run(["stabilizer", p, "--field", field], capsys)
        assert code == 2 and out == "" and "invalid JSON" in err
        assert time.perf_counter() - start < 1


@pytest.mark.parametrize("val", ["1e30000000", "1E30000000", "-2e-3", "1/1e9"])
def test_exit_2_at_once_on_a_scalar_with_an_exponent(tmp_path, capsys, val):
    # Fraction would read "1e30000000" as an int of 30 million digits
    p = tmp_path / "exp.json"
    p.write_text(json.dumps({"shape": [2], "entries": [{"idx": [0], "val": "1"}, {"idx": [1], "val": val}]}))
    start = time.perf_counter()
    code, out, err = run(["stabilizer", p], capsys)
    assert code == 2 and out == "" and "exponent" in err
    assert time.perf_counter() - start < 1


@pytest.mark.parametrize("val", [
    "0.5", "1_000", " 3", "+4", "\u0663",  # the last is the Arabic-Indic digit three
    pytest.param("0." + "0" * 3_000_000, id="a-decimal-of-three-million-zeros"),
])
def test_exit_2_at_once_on_a_scalar_outside_the_grammar(tmp_path, capsys, val):
    # Fraction reads each of these; a scalar string is -?[0-9]+(/[0-9]+)? in ASCII digits
    p = tmp_path / "bad.json"
    p.write_text(json.dumps({"shape": [2], "entries": [{"idx": [0], "val": "1"}, {"idx": [1], "val": val}]}))
    start = time.perf_counter()
    code, out, err = run(["stabilizer", p], capsys)
    assert code == 2 and out == "" and "bad scalar" in err
    assert time.perf_counter() - start < 1


def test_exit_3_on_a_report_scalar_past_the_digit_limit(tmp_path, capsys):
    # each 3000-digit entry is readable, but the contraction has entries of about 6000 digits
    big = "9" * 3000
    inst = {"vertices": [{"id": 1, "dim": 2}, {"id": 2, "dim": 2}],
            "edges": [{"id": 1, "tail": 1, "head": 2, "dim": 2}],
            "tensors": {str(v): {"shape": [2, 2], "entries": [{"idx": [i, j], "val": big}
                                                              for i in range(2) for j in range(2)]}
                        for v in (1, 2)}}
    p = tmp_path / "big.json"
    p.write_text(json.dumps(inst))
    target = tmp_path / "out.json"
    start = time.perf_counter()
    code, out, err = run(["contract", p, "--out", target], capsys)
    assert code == 3 and out == ""
    assert "4300 digits" in err
    assert not target.exists()
    assert time.perf_counter() - start < 1


@pytest.mark.parametrize("to_file", [True, False], ids=["out", "stdout"])
@pytest.mark.parametrize("command", ["contract", "limit"])
def test_exit_3_when_only_the_last_report_scalar_is_past_the_digit_limit(tmp_path, monkeypatch, capsys,
                                                                        command, to_file):
    # every entry is writable but the last in row-major order, of about 6000 digits
    big = "9" * 3000
    if command == "contract":
        inst = {"vertices": [{"id": 1, "dim": 2}, {"id": 2, "dim": 2}],
                "edges": [{"id": 1, "tail": 1, "head": 2, "dim": 1}],
                "tensors": {str(v): {"shape": [2, 1], "entries": [{"idx": [0, 0], "val": "1"},
                                                                  {"idx": [1, 0], "val": big}]}
                            for v in (1, 2)}}
        p = tmp_path / "big.json"
        p.write_text(json.dumps(inst))
        args = ["contract", p]
    else:
        # the limit report nests its tensors; the huge scalar ends its last term
        small = Tensor.from_nonzeros((2, 2), {(0, 1): 1})
        last = Tensor.from_nonzeros((2, 2), {(0, 0): 1, (1, 0): int(big), (1, 1): int(big) ** 2})
        monkeypatch.setattr(cli, "act_curve", lambda *a: TensorLaurent(((1, small), (2, last))))
        args = ["limit", "--e", "2"]
    target = tmp_path / "out.json"
    code, out, err = run([*args, *(["--out", target] if to_file else [])], capsys)
    assert code == 3 and out == ""
    assert "4300 digits" in err
    assert not target.exists()


@pytest.mark.parametrize("target", ["missing-directory", "directory"])
@pytest.mark.parametrize("command", ["contract", "stabilizer", "certify", "dim", "reduce", "limit"])
def test_exit_2_on_an_out_path_that_cannot_be_written(triangle_files, tmp_path, capsys, command, target):
    # exit 1 would read as an inconclusive certificate or limit
    args = {"contract": [triangle_files["instance"]], "stabilizer": [triangle_files["tensor"]],
            "certify": ["--e", "2"], "dim": [triangle_files["graph"]], "reduce": [triangle_files["graph"]],
            "limit": ["--e", "2"]}[command]
    path = tmp_path / "missing" / "x.json" if target == "missing-directory" else tmp_path
    code, out, err = run([command, *args, "--out", path], capsys)
    assert code == 2 and out == ""
    assert err.startswith(f"error: cannot write {path}: ") and err.count("\n") == 1


def test_exit_2_on_a_tensor_key_that_spells_another_vertex_key(tmp_path, capsys):
    # with keys "1", "2" and " 1" the last one read used to win as vertex 1
    obj = instance_to_obj(random_instance(chain_graph((2, 2), (2,)), seed=0))
    obj["tensors"][" 1"] = jsonio.tensor_to_obj(Tensor.zeros((2, 2)))
    p = tmp_path / "twice.json"
    p.write_text(json.dumps(obj))
    code, out, err = run(["contract", p], capsys)
    assert code == 2 and out == ""
    assert "tensor key ' 1'" in err


def _repeat(obj: dict, key: str, value) -> str:
    """The JSON text of obj with one more pair (key, value) at its end, so key may appear twice."""
    return json.dumps(obj)[:-1] + f", {json.dumps(key)}: " + (value if isinstance(value, str) else json.dumps(value)) + "}"


def _repeated_key_files(tmp_path, triangle_files) -> dict:
    """{name: (argv, repeated key)}, each input with one key twice; the JSON module keeps the last value."""
    inst = instance_to_obj(random_instance(chain_graph((2, 2), (2,)), seed=0))
    tensors = inst.pop("tensors")
    zero = jsonio.tensor_to_obj(Tensor.zeros((2, 2)))
    chain = {"edges": [{"id": 1, "tail": 1, "head": 2, "dim": 2}]}
    ident = matrix_to_obj(Matrix.identity(4))
    texts = {
        # with the last values kept: a 1x1x1 tensor of one zero entry, stab_dim 3 and orbit_dim 0;
        # an object is read after the objects inside it, so the entry's "val" is refused first
        "tensor": (["stabilizer"], "val",
                   _repeat({"shape": [9, 9, 9]}, "shape", [1, 1, 1])[:-1]
                   + ', "entries": [' + _repeat({"idx": [0, 0, 0], "val": "1"}, "val", "0") + "]}"),
        # the second tensor of vertex 1 is the zero tensor
        "instance": (["contract"], "1", json.dumps(inst)[:-1] + ', "tensors": ' + _repeat(tensors, "1", zero) + "}"),
        "graph": (["reduce"], "dim", '{"vertices": [' + _repeat({"id": 1, "dim": 2}, "dim", 4)
                  + ', {"id": 2, "dim": 2}], ' + json.dumps(chain)[1:]),
        "splitting": (["certify", "--e", "2", "--splitting"], "X0",
                      _repeat(json.loads(triangle_files["idsplit"].read_text()), "X0", ident)),
    }
    files = {}
    for name, (argv, key, text) in texts.items():
        path = tmp_path / f"{name}.json"
        path.write_text(text)
        files[name] = ([*argv, path], key)
    return files


@pytest.mark.parametrize("name", ["tensor", "instance", "graph", "splitting"])
def test_exit_2_on_a_repeated_key(tmp_path, triangle_files, capsys, name):
    argv, key = _repeated_key_files(tmp_path, triangle_files)[name]
    code, out, err = run(argv, capsys)
    assert code == 2 and out == ""
    assert err == f"error: invalid JSON: key '{key}' is repeated in one object\n"


def test_contract_refuses_a_network_over_budget_before_absorbing(tmp_path, monkeypatch, capsys):
    # loop (2,)^11 contracts to 4^11 entries, past the budget of 4^10
    assert 4**10 == networks.MAX_CONTRACTION_ENTRIES
    p = tmp_path / "loop11.json"
    p.write_text(jsonio.dumps(instance_to_obj(random_instance(loop_graph((2,) * 11), seed=0))))
    monkeypatch.setattr(networks, "absorb", None)  # absorbing a vertex would raise
    code, out, err = run(["contract", p], capsys)
    assert code == 3 and out == ""
    assert f"{4**11} entries, over the budget" in err


def test_contract_runs_a_network_at_its_budget(tmp_path, monkeypatch, capsys):
    # loop (2,)^5 holds at most 4^5 entries: refused one entry below that, contracted at it
    inst = random_instance(loop_graph((2,) * 5), seed=0)
    p = tmp_path / "loop5.json"
    p.write_text(jsonio.dumps(instance_to_obj(inst)))
    monkeypatch.setattr(networks, "MAX_CONTRACTION_ENTRIES", 4**5 - 1)
    assert run(["contract", p], capsys)[0] == 3
    monkeypatch.setattr(networks, "MAX_CONTRACTION_ENTRIES", 4**5)
    code, out, _ = run(["contract", p], capsys)
    assert code == 0 and json.loads(out) == jsonio.tensor_to_obj(contract_network(inst))


def test_exit_3_on_semantic_error(tmp_path, capsys):
    obj = {"vertices": [{"id": 1, "dim": 2}],
           "edges": [{"id": 1, "tail": 1, "head": 1, "dim": 2}]}
    p = tmp_path / "selfloop.json"
    p.write_text(json.dumps(obj))
    code, _, err = run(["reduce", p], capsys)
    assert code == 3 and "self loop" in err


@pytest.mark.parametrize("command", ["contract", "dim"])
def test_exit_3_on_a_network_without_vertices(tmp_path, capsys, command):
    path = tmp_path / "empty.json"
    path.write_text(json.dumps({"vertices": [], "edges": [], "tensors": {}}))
    code, out, err = run([command, path], capsys)
    assert code == 3 and out == ""
    assert "no vertices" in err


def test_exit_3_on_shape_mismatch(tmp_path, triangle_files, capsys):
    # splitting for e=2 fed into an e=3 run
    code, _, err = run(["certify", "--e", "3", "--splitting", triangle_files["idsplit"]], capsys)
    assert code == 3


def test_reports_are_byte_stable(triangle_files, tmp_path, capsys):
    a = tmp_path / "a.json"
    b = tmp_path / "b.json"
    assert main(["certify", "--e", "2", "--out", str(a)]) == 0
    assert main(["certify", "--e", "2", "--out", str(b)]) == 0
    assert a.read_bytes() == b.read_bytes()
    # sha256 of each report as the code wrote it when prime-field scalars were a wrapper class; the dim
    # reports' since they end in "jacobian_dim_bound": "exact" (was "lower") and "jacobian_dim_upper": 37
    digests = {
        ("fp", "contract"): "a7859ff54a2b1a508048a8772e29e0aab89ba56317853dd0b599829b87bd2d34",
        ("fp", "stabilizer"): "6fcd50bb3e824d8606817420a746798879ce9c18567c57c92f1d3fd8f516ae86",
        ("fp", "certify"): "c2f7e605f210aa20cc5c6e1b7581bfedbe10938783cd650b644514ea4ad14209",
        ("fp", "limit"): "247437e4aa56f4d9246ca9777e032c7048fd895230e721d7ea336b0d3729a647",
        ("fp", "dim"): "e11034a4ebeac3a2c0780c27a563ca95ec0b72ef13de2948b9d4c3a3e6c6a10a",
        ("rational", "contract"): "a7859ff54a2b1a508048a8772e29e0aab89ba56317853dd0b599829b87bd2d34",
        ("rational", "stabilizer"): "722f0e448f73a1cb2d90a810f870bc41e4152b3631294a578c96c56f37df2fe3",
        ("rational", "certify"): "5530e00105ef7fe0db34fd244156e4931131e1051e05c859b293a242cf570800",
        ("rational", "limit"): "247437e4aa56f4d9246ca9777e032c7048fd895230e721d7ea336b0d3729a647",
        ("rational", "dim"): "dfc2afce753cbc9b426e6168d04ff565a2036b0af52433df2e02cad9d605749c",
    }
    commands = {"contract": [triangle_files["instance"]], "stabilizer": [triangle_files["tensor"]],
                "certify": ["--e", "3"], "limit": ["--e", "2"], "dim": [triangle_files["graph"]]}
    for (field, command), digest in digests.items():
        assert main([command, *map(str, commands[command]), "--field", field, "--out", str(a)]) == 0
        assert hashlib.sha256(a.read_bytes()).hexdigest() == digest, (field, command)
    # a two-block splitting file at e = 3, with digests taken when each splitting had its own constructor
    split = tmp_path / "split.json"
    split.write_text(jsonio.dumps(splitting_to_obj(block_splitting(2, 1, 2, 1, 2, 1))))
    split_digests = {
        ("fp", "certify"): "39c1e2c4d8a2cc7d553f2122ccc22c3232cd9a36645624ae42bed05fe5f3b21c",
        ("fp", "limit"): "49a6d2b2a6e48129d8426599eb24f8b5b26c8355e3edbc7a01c6b0a9d83341cf",
        ("rational", "certify"): "f3458b845200c9411fff738671301a33d75e67d3e603efb4d3b4d754da67d795",
        ("rational", "limit"): "49a6d2b2a6e48129d8426599eb24f8b5b26c8355e3edbc7a01c6b0a9d83341cf",
    }
    for (field, command), digest in split_digests.items():
        assert main([command, "--e", "3", "--splitting", str(split), "--field", field, "--out", str(a)]) == 0
        assert hashlib.sha256(a.read_bytes()).hexdigest() == digest, (field, command, "splitting")
    # a chain that folds, and a tree whose file lists vertices and edges out of id order
    chain = tmp_path / "chain.json"
    chain.write_text(jsonio.dumps(jsonio.graph_to_obj(chain_graph((2, 4, 4, 2), (2, 2, 2)))))
    tree = tmp_path / "tree.json"
    tree.write_text(json.dumps({
        "vertices": [{"id": 5, "dim": 6}, {"id": 2, "dim": 2}, {"id": 9, "dim": 3}, {"id": 1, "dim": 4},
                     {"id": 7, "dim": 1}],
        "edges": [{"id": 4, "tail": 5, "head": 2, "dim": 2}, {"id": 1, "tail": 9, "head": 5, "dim": 3},
                  {"id": 3, "tail": 5, "head": 1, "dim": 2}, {"id": 2, "tail": 1, "head": 7, "dim": 2}],
    }))
    reduce_digests = {
        chain: "db2e6f80d122e6e35025d6708cce836051d2296af721a09305e5b8bcb0dba1b5",
        tree: "b32c51faf50ffa45304f6ba913a995faa7c80ec24a66cf37fe349d8d0ade164e",
    }
    for path, digest in reduce_digests.items():
        assert main(["reduce", str(path), "--out", str(a)]) == 0
        assert hashlib.sha256(a.read_bytes()).hexdigest() == digest, path.name


def test_module_entry_point():
    import subprocess
    import sys

    proc = subprocess.run([sys.executable, "-m", "tngeom", "certify", "--e", "2"],
                          capture_output=True, text=True)
    assert proc.returncode == 0
    assert json.loads(proc.stdout)["conclusion"] == "not_closed_certified"


def test_closed_stdout_exits_141_without_a_traceback():
    # the reader goes away before the report is written, as in `tngeom certify --e 4 | head -5`
    root = Path(__file__).resolve().parents[1]
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(root / "src"), env.get("PYTHONPATH")]))
    proc = subprocess.Popen([sys.executable, "-m", "tngeom", "certify", "--e", "4"],
                            stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=env)
    proc.stdout.close()
    err = proc.stderr.read().decode()
    proc.stderr.close()
    assert proc.wait(timeout=120) == 141
    assert "Traceback" not in err and "BrokenPipeError" not in err
