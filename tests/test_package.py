"""The package surface: the modules each command loads, the lazy `tngeom`
namespace, and the frozen records."""

import ast
import importlib
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import tngeom
from tngeom import jsonio
from tngeom.curves import MatrixCurve, TensorLaurent
from tngeom.errors import SemanticError, ShapeError
from tngeom.linalg import Matrix
from tngeom.networks import Edge, MergeStep, NetworkGraph, TNSInstance, Vertex, identity_instance, loop_graph
from tngeom.stabilizer import StabilizerSystem, build_system
from tngeom.tensors import Tensor
from tngeom.varieties import Certificate
from tngeom.zoo import Splitting, diagonal_splitting, mmult

from oracles import instance_to_obj

ROOT = Path(__file__).resolve().parents[1]

# Runs `python -m tngeom` in-process and writes the modules it added to sys.modules
# to the file named by the first argument, at exit.
PROBE = """
import atexit, runpy, sys
out, sys.argv = sys.argv[1], ["tngeom", *sys.argv[2:]]
before = set(sys.modules)
atexit.register(lambda: open(out, "w").write(" ".join(sorted(set(sys.modules) - before))))
runpy.run_module("tngeom", run_name="__main__", alter_sys=True)
"""


def added_modules(tmp_path, *argv) -> set:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    out = tmp_path / "modules.txt"
    proc = subprocess.run([sys.executable, "-c", PROBE, str(out), *map(str, argv)],
                          capture_output=True, text=True, env=env, cwd=tmp_path, timeout=120)
    assert proc.returncode in (0, 1), proc.stderr
    return set(out.read_text().split())


@pytest.fixture
def small_inputs(tmp_path):
    g = loop_graph((2, 2, 2))
    files = {"graph": jsonio.graph_to_obj(g), "instance": instance_to_obj(identity_instance(g)),
             "tensor": jsonio.tensor_to_obj(mmult(2, 2, 2))}
    for name, obj in files.items():
        (tmp_path / f"{name}.json").write_text(json.dumps(obj))
    return tmp_path


# the modules each command must not load; none of them loads dataclasses
NOT_LOADED = {
    "contract": {"stabilizer", "varieties", "curves", "zoo"},
    "reduce": {"stabilizer", "varieties", "curves", "zoo", "contraction"},
    "stabilizer": {"networks", "varieties", "curves", "zoo", "contraction"},
    "limit": {"networks", "stabilizer", "varieties", "contraction"},
    "certify": {"jacobian", "networks", "contraction"},
    "dim": {"stabilizer", "varieties", "curves", "zoo", "contraction"},
}


def test_help_loads_only_the_cli(tmp_path):
    added = added_modules(tmp_path, "--help")
    assert {m for m in added if m.split(".")[0] == "tngeom"} == {"tngeom", "tngeom.cli", "tngeom.errors",
                                                                "tngeom.fields"}
    assert "dataclasses" not in added


@pytest.mark.parametrize("command", sorted(NOT_LOADED))
def test_each_command_loads_only_what_it_runs(small_inputs, command):
    args = {"contract": ["instance.json"], "reduce": ["graph.json"], "stabilizer": ["tensor.json"],
            "limit": ["--e", "2"], "certify": ["--e", "2"], "dim": ["graph.json"]}[command]
    added = added_modules(small_inputs, command, *args, "--out", "report.json")
    assert (small_inputs / "report.json").exists()
    assert {"tngeom", "tngeom.cli", "tngeom.jsonio"} <= added
    assert not {f"tngeom.{m}" for m in NOT_LOADED[command]} & added
    assert "dataclasses" not in added


def test_import_tngeom_loads_no_submodule():
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    code = "import sys, tngeom; print(' '.join(sorted(m for m in sys.modules if m.startswith('tngeom'))))"
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, env=env, timeout=60)
    assert proc.stdout.split() == ["tngeom"]


# every public name `tngeom` exports, by defining module
EXPORTS = {
    "errors": ["FieldMismatchError", "FormatError", "SemanticError", "ShapeError", "SingularMatrixError",
               "TngeomError"],
    "fields": ["DEFAULT_PRIME", "Field", "PrimeField", "QQ", "RationalField"],
    "linalg": ["Matrix", "rank"],
    "tensors": ["Tensor", "apply_end", "contract_pair", "flatten", "mlrank", "mode_apply", "outer", "random_tensor",
                "transpose_axes"],
    "networks": ["Edge", "MergeStep", "NetworkGraph", "TNSInstance", "Vertex", "chain_graph", "classify_vertex",
                 "expected_dim", "identity_instance", "loop_dim_formula", "loop_graph", "random_instance",
                 "reduce_valence_one", "reduction_preimage", "supercritical_truncate"],
    "contraction": ["contract_network"],
    "zoo": ["Splitting", "diagonal_splitting", "imm_loop", "m_tilde_formula", "mmult"],
    "stabilizer": ["StabilizerSystem", "build_system", "stabilizer_dim", "stabilizer_tuples"],
    "curves": ["MatrixCurve", "TensorLaurent", "act_curve", "curve_from_splitting", "leading_term"],
    "jacobian": ["contraction_jacobian", "tns_dim"],
    "varieties": ["Certificate", "certify_not_closed", "sub_membership"],
}


@pytest.mark.parametrize("module", sorted(EXPORTS))
def test_every_public_name_resolves_to_its_module(module):
    mod = importlib.import_module(f"tngeom.{module}")
    assert getattr(tngeom, module) is mod
    for name in EXPORTS[module]:
        assert getattr(tngeom, name) is getattr(mod, name), name
        assert name in dir(tngeom) and name in tngeom.__all__
    assert module in dir(tngeom)


def test_public_names_are_the_pinned_ones():
    pinned = {name for names in EXPORTS.values() for name in names}
    assert sorted(tngeom.__all__) == sorted(pinned)
    # beside them, dir() lists the submodules imported so far, as Python binds them
    assert {n for n in dir(tngeom) if not n.startswith("_")} - pinned - set(EXPORTS) <= {"cli", "jsonio"}
    assert tngeom.__version__ == "0.1.0"


# public functions and classes of src/tngeom that no command or script calls, each with the reason it stays
UNCALLED = {
    "identity_instance": "the graph tensor that non-closedness beyond the triangle starts from",
    "stabilizer_tuples": "the stabilizer basis that invariants of a splitting atlas read",
    "sub_membership": "the subspace test that a dimension atlas of trees checks against",
    "reduction_preimage": "replays a merge log through networks._fold, which reduce_valence_one shares",
    "outer": "the benchmark's tracer wraps networks.outer",
    "contract_pair": "the benchmark's tracer wraps networks.contract_pair",
    "build_system": "the tests' independent reference for the streamed components; the benchmark's tracer wraps it",
    "contraction_jacobian": "the tests' reference Jacobian, built whole; the benchmark's tracer wraps it",
    "SingularMatrixError": "an exception class of the public error hierarchy",
}


def _loads_by_definition(path: Path) -> list[tuple[str | None, set]]:
    """(name of the top-level def or class, or None, names it loads as a Name or an attribute) per statement."""
    out = []
    for node in ast.parse(path.read_text(encoding="utf-8")).body:
        loads = {sub.id if isinstance(sub, ast.Name) else sub.attr for sub in ast.walk(node)
                 if isinstance(sub, (ast.Name, ast.Attribute)) and isinstance(sub.ctx, ast.Load)}
        defined = node.name if isinstance(node, (ast.FunctionDef, ast.ClassDef)) else None
        out.append((defined, loads))
    return out


def test_every_exported_function_and_class_is_used_by_the_program():
    # every public top-level function and class of src/tngeom, exported or not, is used: loaded in
    # src/tngeom outside its own definition, or in scripts/; an import is no use.  The unused ones are
    # exactly the allowlisted ones, so the allowlist cannot go stale
    src = sorted((ROOT / "src" / "tngeom").glob("*.py"))
    files = {p: _loads_by_definition(p) for p in [*src, *(ROOT / "scripts").glob("*.py")]}
    unused = []
    for home in src:
        for name, _ in _loads_by_definition(home):
            if name is None or name.startswith("_"):
                continue
            if not any(name in loads for path, statements in files.items() for defined, loads in statements
                       if not (path == home and defined == name)):
                unused.append(name)
    assert sorted(unused) == sorted(UNCALLED)


def test_an_unknown_name_raises_attribute_error():
    with pytest.raises(AttributeError, match="has no attribute 'no_such_name'"):
        tngeom.no_such_name  # noqa: B018
    with pytest.raises(ImportError):
        from tngeom import no_such_name  # noqa: F401
    from tngeom import cli

    with pytest.raises(AttributeError, match="has no attribute 'no_such_name'"):
        cli.no_such_name  # noqa: B018


def _records():
    """(class, field names, two tuples of field values that give unequal records)."""
    g = loop_graph((2, 2, 2))
    t = mmult(2, 2, 2)
    system = build_system(t)
    inst = identity_instance(g)
    s = diagonal_splitting(2)
    ident = Matrix.identity(2)
    return [
        (Vertex, ("id", "dim"), (1, 2), (1, 3)),
        (Edge, ("id", "tail", "head", "dim"), (1, 1, 2, 3), (1, 2, 1, 3)),
        (NetworkGraph, ("vertices", "edges"), (g.vertices, g.edges), (g.vertices, g.edges[:2])),
        (TNSInstance, ("graph", "tensors"), (g, inst.tensors), (g, {**inst.tensors, 1: -inst.tensors[1]})),
        (MergeStep, ("removed", "edge", "target", "new_dim"), (1, 2, 3, 4), (1, 2, 3, 5)),
        (StabilizerSystem, ("matrix", "shape", "offsets"), (system.matrix, system.shape, system.offsets),
         (system.matrix, system.shape, (0, 0, 0))),
        (Splitting, ("x0", "y0", "z0"), s.projectors(), (s.x0, s.y0, s.x0)),
        (MatrixCurve, ("terms",), (((0, ident),),), (((1, ident),),)),
        (TensorLaurent, ("terms",), (((1, t),),), (((2, t),),)),
        (Certificate, ("e", "stab_mmult", "stab_mtilde", "mlrank_mtilde", "leading_power",
                       "leading_matches_formula", "conclusion", "reason"),
         (2, 11, 12, (4, 4, 4), 1, True, "not_closed_certified", None),
         (2, 11, 11, (4, 4, 4), 1, True, "inconclusive", "stabilizers agree")),
    ]


@pytest.mark.parametrize("cls, fields, values, other", _records(), ids=lambda x: getattr(x, "__name__", ""))
def test_records_are_frozen_values(cls, fields, values, other):
    a, b = cls(*values), cls(**dict(zip(fields, values)))
    assert [getattr(a, k) for k in fields] == list(values)
    assert a == b and not a != b
    assert a != cls(*other) and cls(*other) != a
    assert a != values and a != object()
    assert repr(a) == f"{cls.__name__}(" + ", ".join(f"{k}={v!r}" for k, v in zip(fields, values)) + ")"
    if cls is TNSInstance:
        with pytest.raises(TypeError):  # its tensors are a dict
            hash(a)
    else:
        assert hash(a) == hash(b) == hash(tuple(values))
    for name in (fields[0], "other"):
        with pytest.raises(AttributeError):
            setattr(a, name, values[0])
        with pytest.raises(AttributeError):
            delattr(a, name)
    assert [getattr(a, k) for k in fields] == list(values)
    with pytest.raises(TypeError):
        cls(*values, None)
    with pytest.raises(TypeError):
        cls(*values[:-1], **{fields[0]: values[0]}) if len(fields) > 1 else cls(values[0], terms=values[0])
    with pytest.raises(TypeError):
        cls(*values, colour=1)


def test_records_refuse_missing_fields_and_take_the_one_default():
    with pytest.raises(TypeError, match="'dim'"):
        Vertex(1)
    with pytest.raises(TypeError, match="'conclusion'"):
        Certificate(2, 11, 12, (4, 4, 4), 1, True)
    c = Certificate(e=2, stab_mmult=11, stab_mtilde=12, mlrank_mtilde=(4, 4, 4), leading_power=1,
                    leading_matches_formula=True, conclusion="not_closed_certified")
    assert c.reason is None and c.certified
    assert c == Certificate(2, 11, 12, (4, 4, 4), 1, True, "not_closed_certified", None)


def test_records_check_their_fields_on_construction():
    v = (Vertex(1, 2), Vertex(2, 2))
    with pytest.raises(SemanticError, match="^duplicate vertex ids$"):
        NetworkGraph((v[0], v[0]), ())
    with pytest.raises(SemanticError, match="^edge 1 is a self loop$"):
        NetworkGraph(v, (Edge(1, 1, 1, 2),))
    g = loop_graph((2, 2, 2))
    tensors = identity_instance(g).tensors
    with pytest.raises(SemanticError, match="^missing tensor for vertex 3$"):
        TNSInstance(g, {k: tensors[k] for k in (1, 2)})
    with pytest.raises(ShapeError, match=r"^vertex 1: tensor shape \(2, 2\) != expected \(4, 2, 2\)$"):
        TNSInstance(g, {**tensors, 1: Tensor.zeros((2, 2))})
    ident, twice = Matrix.identity(2), Matrix.identity(2).scale(2)
    with pytest.raises(SemanticError, match="^Y0 is not idempotent$"):
        Splitting(ident, twice, ident)
    with pytest.raises(SemanticError, match="^a curve needs at least one term$"):
        MatrixCurve(())
    with pytest.raises(SemanticError, match="^curve powers must be strictly increasing$"):
        MatrixCurve(((1, ident), (0, ident)))
    with pytest.raises(SemanticError, match="^zero coefficients must be dropped$"):
        TensorLaurent(((0, Tensor.zeros((2, 2))),))
