#!/usr/bin/env python3
"""What a `tngeom` process loads and how long it takes, per subcommand.

    python scripts/startup_profile.py [--runs N] [--src SRC_DIR]

Writes small inputs to a temporary directory (a 3-loop of edge dimension
2 and an instance on it, a 2 x 2 x 2 tensor, a 3-vertex chain) and runs
`python -m tngeom --help` and each subcommand on them.  The package is
copied there first, without any bytecode cache, and the processes run
with PYTHONDONTWRITEBYTECODE=1, so every run compiles the modules it
imports from source, as a fresh checkout does.  One run per command,
with a probe that lists sys.modules at exit, gives the `tngeom` modules
it loads; their lines of code are counted as scripts/src_loc.py counts
them.  Then the plain
commands run N times in interleaved rounds.  Prints one row per
command: the median process wall time, the lines of code loaded, and
the modules.  The first row, `python`, is `python -c pass`.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

from src_loc import SRC, code_lines


def _write_inputs(work: Path) -> dict[str, list[str]]:
    """The argv of each command, after `python -m tngeom`, on inputs written to work."""
    loop = {"vertices": [{"id": v, "dim": 4} for v in (1, 2, 3)],
            "edges": [{"id": j, "tail": j, "head": j % 3 + 1, "dim": 2} for j in (1, 2, 3)]}
    # vertex tensor axes: the vertex, the incoming edge, the outgoing edge
    diagonal = {"shape": [4, 2, 2], "entries": [{"idx": [2 * a + b, a, b], "val": "1"} for a in (0, 1) for b in (0, 1)]}
    chain = {"vertices": [{"id": 1, "dim": 2}, {"id": 2, "dim": 4}, {"id": 3, "dim": 2}],
             "edges": [{"id": 1, "tail": 1, "head": 2, "dim": 2}, {"id": 2, "tail": 2, "head": 3, "dim": 2}]}
    tensor = {"shape": [2, 2, 2], "entries": [{"idx": [i, i, i], "val": "1"} for i in (0, 1)]}
    files = {"loop": loop, "instance": {**loop, "tensors": {str(v): diagonal for v in (1, 2, 3)}},
             "chain": chain, "tensor": tensor}
    for name, obj in files.items():
        (work / f"{name}.json").write_text(json.dumps(obj), encoding="utf-8")
    out = ["--out", str(work / "report.json")]
    return {
        "--help": ["--help"],
        "contract": ["contract", str(work / "instance.json"), *out],
        "stabilizer": ["stabilizer", str(work / "tensor.json"), *out],
        "certify": ["certify", "--e", "2", *out],
        "dim": ["dim", str(work / "loop.json"), *out],
        "reduce": ["reduce", str(work / "chain.json"), *out],
        "limit": ["limit", "--e", "2", *out],
    }


def _run(argv: list[str], env: dict, cwd: Path) -> tuple[float, str]:
    """(wall seconds, stderr) of one process; a failing command is an error."""
    start = time.perf_counter()
    proc = subprocess.run([sys.executable, *argv], capture_output=True, text=True, env=env, cwd=cwd)
    wall = time.perf_counter() - start
    if proc.returncode != 0:
        raise SystemExit(f"{' '.join(argv)} exited {proc.returncode}: {proc.stderr.strip()}")
    return wall, proc.stderr


# Runs `python -m tngeom` in-process and, at exit, writes the names of the
# `tngeom` modules in sys.modules to the file named by its first argument.
PROBE = """
import atexit, runpy, sys
out, sys.argv = sys.argv[1], ["tngeom", *sys.argv[2:]]
atexit.register(lambda: open(out, "w").write(" ".join(m for m in sys.modules if m.split(".")[0] == "tngeom")))
runpy.run_module("tngeom", run_name="__main__", alter_sys=True)
"""


def loaded_modules(argv: list[str], env: dict, cwd: Path) -> list[str]:
    """The `tngeom` modules the command imports, in import order."""
    out = cwd / "modules.txt"
    _run(["-c", PROBE, str(out), *argv], env, cwd)
    return out.read_text(encoding="utf-8").split()


def _module_file(src: Path, module: str) -> Path:
    return src / ("__init__.py" if module == "tngeom" else module.split(".", 1)[1] + ".py")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--runs", type=int, default=5, help="timed runs per command (default: 5)")
    parser.add_argument("--src", default=str(SRC), help="package directory (default: src/tngeom)")
    args = parser.parse_args(argv)
    if args.runs < 1:
        parser.error("--runs must be at least 1")
    with tempfile.TemporaryDirectory() as tmp:
        work = Path(tmp)
        src = work / "src" / "tngeom"
        shutil.copytree(args.src, src, ignore=shutil.ignore_patterns("__pycache__"))
        env = dict(os.environ, PYTHONPATH=str(src.parent), PYTHONDONTWRITEBYTECODE="1")
        commands = _write_inputs(work)
        modules = {name: loaded_modules(cmd, env, work) for name, cmd in commands.items()}
        walls: dict[str, list[float]] = {name: [] for name in ["python", *commands]}
        for _ in range(args.runs):
            walls["python"].append(_run(["-c", "pass"], env, work)[0])
            for name, cmd in commands.items():
                walls[name].append(_run(["-m", "tngeom", *cmd], env, work)[0])
        print(f"{'command':<12}{'runs':>6}{'median_ms':>11}{'loc':>7}  modules")
        for name, times in walls.items():
            mods = modules.get(name, [])
            loc = sum(code_lines(_module_file(src, m).read_text(encoding="utf-8")) for m in mods)
            shown = " ".join(sorted(m.split(".", 1)[-1] for m in mods)) or "-"
            print(f"{name:<12}{len(times):>6}{1000 * statistics.median(times):>11.1f}{loc:>7}  {shown}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
