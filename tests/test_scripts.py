"""Smoke tests of scripts/: each one runs in its own process on small arguments."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]


def run_script(name: str, *args: str) -> str:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    proc = subprocess.run([sys.executable, str(ROOT / "scripts" / name), *args],
                          capture_output=True, text=True, env=env, timeout=120)
    assert proc.returncode == 0, proc.stderr
    return proc.stdout


def table(out: str) -> list[list[str]]:
    """The rows of a printed table, header dropped, split on whitespace."""
    return [line.split() for line in out.splitlines()[1:]]


def test_certificate_sweep():
    # the last four columns are the time, the time per nonzero of the trace tensor's system, the rise of the
    # peak RSS past the imports, and the predicted rise, which bounds it, grows with e and holds the 3 MB of code
    rows = table(run_script("certificate_sweep.py", "--min-e", "2", "--max-e", "4"))
    assert all(float(per) > 0 and 0 <= float(grew) <= float(pred) for *_, per, grew, pred in rows)
    assert 3 <= float(rows[0][-1]) < float(rows[1][-1]) < float(rows[2][-1])
    assert [(int(e), int(a), int(b), c) for e, a, b, _, c, _, _, _, _ in rows] == [
        (2, 11, 12, "not_closed_certified"),
        (3, 26, 30, "not_closed_certified"),
        (4, 47, 56, "not_closed_certified"),
    ]


def test_certificate_sweep_over_fp():
    # the table over Q, leading powers included; the last four columns are the time, the time per nonzero,
    # the rise of the peak RSS past the imports and the predicted rise
    rows = table(run_script("certificate_sweep.py", "--min-e", "2", "--max-e", "4", "--field", "fp"))
    assert [row[:-4] for row in rows] == [
        ["2", "11", "12", "1", "not_closed_certified"],
        ["3", "26", "30", "1", "not_closed_certified"],
        ["4", "47", "56", "1", "not_closed_certified"],
    ]


def test_stab_classes():
    # each class of M and M~: columns, distinct rows, copies and nullity, polynomials in e; then the two
    # stabilizers summed from the classes beside 3e^2 - 1 and 4e^2 - 2e
    classes, sums = run_script("stab_classes.py", "--min-e", "2", "--max-e", "5").split("\n\n")
    want = []
    for e in range(2, 6):
        pairs, triples = 3 * e * (e - 1), 2 * e * (e - 1) * (e - 2)
        m = [(1, "-", 3 * e**4 - 2 * e * pairs - 3 * e * e, 0), (2 * e, e * e, pairs, 1),
             (3 * e * e, e**3, 1, 3 * e - 1)]
        mt = [(1, "-", 3 * e**4 - 2 * (2 * pairs + triples) - 3 * e * e, 0), (2, 1, pairs, 1), (2, 2, triples, 0),
              (2, 3, pairs, 0), (3 * e * e, e * (2 * e - 1), 1, e * e + e)]
        want += [[str(e), name, *map(str, row)] for name, rows in (("M", m), ("M~", mt)) for row in rows if row[2]]
    assert table(classes) == want
    assert table(sums) == [[str(e), *[str(3 * e * e - 1)] * 2, *[str(4 * e * e - 2 * e)] * 2, "yes"]
                           for e in range(2, 6)]


def test_loop_dimension_scan():
    for field in ("fp", "rational"):
        # lower, upper, whether they meet and the formula, then the time, the rise of the peak RSS past the
        # imports and the predicted rise, which bounds it
        rows = table(run_script("loop_dimension_scan.py", "--min-n", "3", "--max-n", "4", "--field", field))
        assert [(row[0], *row[-7:-3]) for row in rows] == [("3", "37", "37", "yes", "37"),
                                                            ("4", "49", "49", "yes", "49")]
        assert all(float(secs) >= 0 and 0 <= float(grew) <= float(pred) for *_, secs, grew, pred in rows)
        assert 3 <= float(rows[0][-1]) < float(rows[1][-1])


def test_contract_scan():
    # n, the 4^n entries, the entries the plan holds at once, then the child's seconds, peak RSS, KB per
    # entry and per held entry, how far its peak rose past `import tngeom.cli`, and the predicted rise:
    # 140 B per held entry and the 3 MB of code
    for field in ("rational", "fp"):
        rows = table(run_script("contract_scan.py", "--max-n", "5", "--field", field, "--seed", "3"))
        assert [(n, entries, held) for n, entries, held, *_ in rows] == [
            ("3", "64", "144"), ("4", "256", "384"), ("5", "1024", "1344")]
        assert all(float(secs) > 0 and float(peak) > 0 and float(per) > 0 and float(per_held) > 0
                   for *_, secs, peak, per, per_held, _, _ in rows)
        assert [pred for *_, pred in rows] == [f"{(140 * held + 3 * 2**20) / 2**20:.1f}" for held in (144, 384, 1344)]
        assert all(0 <= float(grew) <= float(pred) for *_, grew, pred in rows)


@pytest.mark.parametrize("name, args", [("boundary_limit_diff.py", ("--e", "2")),
                                        ("chain_reduction_demo.py", ("--samples", "3"))])
def test_script_exits_0(name, args):
    assert run_script(name, *args)


def test_stabilizer_scan():
    # a concise generic n x n x n tensor keeps the two scalar symmetries, and the elimination reads its cap of rows
    for field in ("fp", "rational"):
        rows = table(run_script("stabilizer_scan.py", "--min-n", "3", "--max-n", "5", "--field", field))
        assert [(n, r, c, stab, orbit, read) for n, r, c, stab, orbit, read, *_ in rows] == [
            (str(n), str(n ** 3), str(3 * n * n), "2", str(3 * n * n - 2), str(3 * n * n - 2)) for n in (3, 4, 5)]
        # then the time, the rise of the peak RSS past the imports, and the predicted rise, which bounds it
        # and grows with n
        assert all(0 <= float(grew) <= float(pred) for *_, grew, pred in rows)
        assert 3 <= float(rows[0][-1]) < float(rows[1][-1]) < float(rows[2][-1])


def test_src_loc(tmp_path):
    # code lines only: the docstrings, the comment and the blank lines drop out; a string of two lines counts two
    (tmp_path / "a.py").write_text('"""Module\n\ndocstring."""\n\n# a comment\nx = 1  # and one after code\n\n\n'
                                   'def f():\n    """Docstring."""\n    return """two\nlines"""\n')
    (tmp_path / "b.py").write_text("")
    assert [line.split() for line in run_script("src_loc.py", str(tmp_path)).splitlines()] == [
        ["a.py", "4"], ["b.py", "0"], ["total", "4"]]
    rows = [line.split() for line in run_script("src_loc.py").splitlines()]
    assert {"cli.py", "linalg.py"} <= {name for name, _ in rows}
    assert rows[-1][0] == "total" and int(rows[-1][1]) == sum(int(n) for _, n in rows[:-1])


def test_startup_profile():
    # one run per command: --help loads the CLI alone, and each command the modules its pipeline runs
    rows = {row[0]: row for row in table(run_script("startup_profile.py", "--runs", "1"))}
    assert list(rows) == ["python", "--help", "contract", "stabilizer", "certify", "dim", "reduce", "limit"]
    modules = {name: set(row[4:]) for name, row in rows.items()}
    assert modules["python"] == {"-"}
    assert modules["--help"] == {"tngeom", "cli", "errors", "fields"}
    common = modules["--help"] | {"_record", "jsonio", "linalg", "tensors"}
    assert modules["contract"] == common | {"networks", "contraction"}
    assert modules["reduce"] == common | {"networks"}
    assert modules["stabilizer"] == common | {"stabilizer"}
    assert modules["limit"] == common | {"curves", "zoo"}
    assert modules["certify"] == common | {"curves", "stabilizer", "varieties", "zoo"}
    assert modules["dim"] == common | {"jacobian", "networks"}
    assert all(int(row[1]) == 1 and float(row[2]) > 0 for row in rows.values())
    assert int(rows["--help"][3]) < int(rows["stabilizer"][3]) < int(rows["certify"][3]) < int(rows["dim"][3])
