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
    rows = table(run_script("certificate_sweep.py", "--min-e", "2", "--max-e", "4"))
    assert all(float(peak) > 0 for *_, peak in rows)
    assert [(int(e), int(a), int(b), c) for e, a, b, _, c, _, _ in rows] == [
        (2, 11, 12, "not_closed_certified"),
        (3, 26, 30, "not_closed_certified"),
        (4, 47, 56, "not_closed_certified"),
    ]


def test_certificate_sweep_over_fp():
    # the table over Q, leading powers included; the last two columns are the time and the peak RSS
    rows = table(run_script("certificate_sweep.py", "--min-e", "2", "--max-e", "4", "--field", "fp"))
    assert [row[:-2] for row in rows] == [
        ["2", "11", "12", "1", "not_closed_certified"],
        ["3", "26", "30", "1", "not_closed_certified"],
        ["4", "47", "56", "1", "not_closed_certified"],
    ]


def test_loop_dimension_scan():
    for field in ("fp", "rational"):
        rows = table(run_script("loop_dimension_scan.py", "--min-n", "3", "--max-n", "4", "--field", field))
        assert [(row[0], row[-2], row[-1]) for row in rows] == [("3", "37", "37"), ("4", "49", "49")]


@pytest.mark.parametrize("name, args", [("boundary_limit_diff.py", ("--e", "2")),
                                        ("chain_reduction_demo.py", ("--samples", "3"))])
def test_script_exits_0(name, args):
    assert run_script(name, *args)


def test_stabilizer_scan():
    # a concise generic n x n x n tensor keeps the two scalar symmetries, and the elimination reads its cap of rows
    for field in ("fp", "rational"):
        rows = table(run_script("stabilizer_scan.py", "--min-n", "3", "--max-n", "5", "--field", field))
        assert [(n, r, c, stab, orbit, read) for n, r, c, stab, orbit, read, _ in rows] == [
            (str(n), str(n ** 3), str(3 * n * n), "2", str(3 * n * n - 2), str(3 * n * n - 2)) for n in (3, 4, 5)]


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
    assert modules["contract"] == modules["reduce"] == common | {"networks"}
    assert modules["stabilizer"] == common | {"stabilizer"}
    assert modules["limit"] == common | {"curves", "zoo"}
    assert modules["certify"] == modules["dim"] == common | {"curves", "networks", "stabilizer", "varieties", "zoo"}
    assert all(int(row[1]) == 1 and float(row[2]) > 0 for row in rows.values())
    assert int(rows["--help"][3]) < int(rows["stabilizer"][3]) < int(rows["dim"][3])
