"""The one memory budget (``errors.MAX_PEAK_MB``): the runs it admits and refuses, judged from the peaks
their pipelines predict before anything large is built, and a measured peak under each prediction."""

import json
import os
import subprocess
import sys
from math import prod
from pathlib import Path

import pytest

from tngeom import cli, contraction, errors, jacobian, jsonio, stabilizer
from tngeom.fields import DEFAULT_PRIME
from tngeom.networks import NetworkGraph, loop_graph, random_instance
from tngeom.stabilizer import _component_bytes, _components, system_bytes
from tngeom.tensors import Tensor, random_tensor
from tngeom.zoo import m_tilde_formula, mmult

from oracles import instance_to_obj

ROOT = Path(__file__).resolve().parents[1]


class Stopped(Exception):
    """Raised by a recording check, so that nothing past the check runs."""


def first_check(monkeypatch, module, run) -> int:
    """The bytes the first check_peak of module is given while run() runs; nothing runs past it."""
    got = []

    def record(nbytes, what):
        got.append(nbytes)
        raise Stopped

    monkeypatch.setattr(module, "check_peak", record)
    with pytest.raises(Stopped):
        run()
    return got[0]


def component_checks(monkeypatch, t: Tensor) -> list[int]:
    """The bytes ``_components`` checks for t: from the tensor alone, then with its largest component."""
    got = []
    monkeypatch.setattr(stabilizer, "check_peak", lambda nbytes, what: got.append(nbytes))
    _components(t)  # the components are found, and none is ranked
    return got


def mb(nbytes: int) -> int:
    """The predicted peak in MB that ``errors.check_peak`` holds to the budget."""
    return -(-(nbytes + errors.CODE_BYTES) // 2**20)


def dense_bytes(shape) -> int:
    """The prediction for a tensor with every entry nonzero: one component of sum(s^2) columns and
    prod(shape) rows, each holding a whole fibre in every slot, sum(shape) nonzeros."""
    cols, rows = sum(s * s for s in shape), prod(shape)
    return system_bytes(rows, shape) + _component_bytes(cols, rows, sum(shape), DEFAULT_PRIME)


def one_nonzero_bytes(shape) -> int:
    """The prediction for a tensor with one nonzero: its one row that spans slots holds a column in each
    of the d slots, and every other row holds one column, a component of its own."""
    return system_bytes(1, shape) + _component_bytes(len(shape), 1, len(shape), DEFAULT_PRIME)


def certify_bytes(e: int) -> int:
    """The prediction for `certify --e e`: the system of mmult(e, e, e) from its e^3 nonzeros, with its
    largest component, 3e^2 columns and e^3 rows of 3 nonzeros.  Its limit's is smaller."""
    return system_bytes(e**3, (e * e,) * 3) + _component_bytes(3 * e * e, e**3, 3, DEFAULT_PRIME)


@pytest.mark.parametrize("shape", [(4, 4, 4), (3, 2, 5), (2,) * 6])
def test_closed_forms_are_what_the_stabilizer_checks(monkeypatch, shape):
    dense = Tensor(shape, [1 + i % 5 for i in range(prod(shape))])
    assert component_checks(monkeypatch, dense) == [system_bytes(prod(shape), shape), dense_bytes(shape)]
    one = Tensor.from_nonzeros(shape, {(0,) * len(shape): 1})
    assert component_checks(monkeypatch, one)[-1] == one_nonzero_bytes(shape)


@pytest.mark.parametrize("e", range(2, 7))
def test_certify_checks_its_closed_form_first_and_at_most(monkeypatch, e):
    checked = component_checks(monkeypatch, mmult(e, e, e)) + component_checks(monkeypatch, m_tilde_formula(e))
    assert max(checked) == certify_bytes(e)
    assert first_check(monkeypatch, cli, lambda: cli.main(["certify", "--e", str(e)])) == checked[0]


def admitted_predictions(monkeypatch) -> dict[str, int]:
    """The predicted bytes of each run the budget must admit, from the predictions alone: nothing is run."""
    def dim(g):
        return first_check(monkeypatch, jacobian, lambda: jacobian.tns_dim(g))

    loop10 = random_instance(loop_graph((2,) * 10), seed=0)
    return {
        "certify --e 16": certify_bytes(16),
        "limit --e 100": first_check(monkeypatch, cli, lambda: cli.main(["limit", "--e", "100"])),
        "contract loop (2,)^10": first_check(monkeypatch, contraction, lambda: contraction.contract_network(loop10)),
        "dim triangle (6,6,6)": dim(loop_graph((6, 6, 6))),
        "dim loop (4,5) with vertices (40,40)": dim(loop_graph((4, 5), (40, 40))),
        "stabilizer dense 20x20x20": dense_bytes((20, 20, 20)),
        "stabilizer one nonzero in (400,400,400)": one_nonzero_bytes((400, 400, 400)),
        "stabilizer dense (2,)^16": dense_bytes((2,) * 16),
    }


def test_the_budget_is_the_least_that_admits_the_kept_runs(monkeypatch):
    predicted = {run: mb(nbytes) for run, nbytes in admitted_predictions(monkeypatch).items()}
    assert all(p <= errors.MAX_PEAK_MB for p in predicted.values()), predicted
    assert max(predicted.values()) == errors.MAX_PEAK_MB == predicted["limit --e 100"] == 671
    # certify at e = 17..20 is admitted too, at 49 to 90 MB
    assert [mb(certify_bytes(e)) for e in range(17, 21)] == [49, 61, 75, 90]


def test_dim_refuses_two_vertices_of_300_on_an_edge_of_200_before_drawing(tmp_path, monkeypatch, capsys):
    # 120000 planned cells, and its elimination of J|C could hold 90000 packed rows of 120000 slots of
    # 10 B each: about 100 GB.  The check alone runs: no instance is drawn
    g = NetworkGraph.build([(1, 300), (2, 300)], [(1, 1, 2, 200)])
    assert jacobian._jacobian_plan(g) == (False, False, 120000)
    assert jacobian._jacobian_bytes(g, DEFAULT_PRIME) == 100 * 120000 + 90000 * 120000 * 10
    path = tmp_path / "graph.json"
    path.write_text(json.dumps(jsonio.graph_to_obj(g)))

    def boom(*args):
        raise AssertionError("drew an instance for a refused graph")

    monkeypatch.setattr(jacobian, "random_instance", boom)
    assert cli.main(["dim", str(path)]) == 3
    out, err = capsys.readouterr()
    assert out == ""
    assert err == "error: sampling this graph's Jacobian is predicted to take 103012 MB, over the budget of 671 MB\n"


def test_an_absurd_size_is_refused_as_over_a_power_of_ten(capsys):
    assert cli.main(["certify", "--e", str(10**1000)]) == 3
    out, err = capsys.readouterr()
    assert out == ""
    assert err == ("error: ranking the trace tensor's stabilizer system is predicted to take over 10^3996 MB, "
                   "over the budget of 671 MB\n")


# The child runs `tngeom ARGS` with the check_peak of each module named in its first argument wrapped,
# and prints its exit code, how far its resident peak rose past its size after `import tngeom.cli`, and
# the largest peak its pipeline predicted.  The peak is the process image's own (VmHWM): ru_maxrss
# would read the same, but for a spawned child it also counts what the child inherits from its parent.
CHILD = """
import importlib, sys

def peak():
    with open("/proc/self/status") as fh:
        return next(int(line.split()[1]) for line in fh if line.startswith("VmHWM:")) * 1024

from tngeom import cli, errors
base, checked = peak(), []
for name in sys.argv[1].split(","):
    module = importlib.import_module(f"tngeom.{name}")
    module.check_peak = lambda nbytes, what, check=module.check_peak: checked.append(nbytes) or check(nbytes, what)
code = cli.main(sys.argv[2:])
print(code, peak() - base, max(checked) + errors.CODE_BYTES)
"""


def write_inputs(tmp_path: Path) -> None:
    (tmp_path / "dense16.json").write_text(json.dumps(jsonio.tensor_to_obj(random_tensor((16, 16, 16), seed=16))))
    (tmp_path / "dense12.json").write_text(json.dumps(jsonio.tensor_to_obj(random_tensor((12, 12, 12), seed=12))))
    (tmp_path / "loop3333.json").write_text(json.dumps(jsonio.graph_to_obj(loop_graph((3,) * 4))))
    (tmp_path / "loop9.json").write_text(json.dumps(instance_to_obj(random_instance(loop_graph((2,) * 9), 0))))


def measure(tmp_path: Path, modules: str, args: list) -> tuple[int, int]:
    """How far `tngeom ARGS` grew past `import tngeom.cli`, and the largest peak it predicted (``CHILD``)."""
    write_inputs(tmp_path)
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    proc = subprocess.run([sys.executable, "-c", CHILD, modules, *args, "--out", "report.json"],
                          capture_output=True, text=True, env=env, cwd=tmp_path, timeout=120)
    assert proc.returncode == 0, proc.stderr
    code, grew, predicted = map(int, proc.stdout.split())
    assert code == 0
    return grew, predicted


needs_proc = pytest.mark.skipif(not Path("/proc/self/status").exists(),
                                reason="reads the peak resident size from /proc")


@needs_proc
@pytest.mark.parametrize("modules, args", [
    ("cli,stabilizer", ["certify", "--e", "12"]),
    ("cli,stabilizer", ["certify", "--e", "16"]),
    ("stabilizer", ["stabilizer", "dense16.json"]),
    ("jacobian", ["dim", "loop3333.json"]),
    ("contraction", ["contract", "loop9.json", "--field", "fp"]),
    ("cli", ["limit", "--e", "30"]),
], ids=["certify", "certify16", "stabilizer", "dim", "contract", "limit"])
def test_the_prediction_bounds_the_measured_peak(tmp_path, modules, args):
    grew, predicted = measure(tmp_path, modules, args)
    # the prediction bounds the peak, and is not loose past four times it
    assert predicted / 4 < grew <= predicted


@needs_proc
def test_a_dense_stabilizer_grows_as_much_over_q_as_over_fp(tmp_path):
    # its one component reaches its cap, so over Q as over Fp the elimination holds its packed pivot
    # rows once and nothing else per pivot
    grew = [measure(tmp_path, "stabilizer", ["stabilizer", "dense12.json", "--field", field])[0]
            for field in ("rational", "fp")]
    assert abs(grew[0] - grew[1]) <= 2**20, grew
