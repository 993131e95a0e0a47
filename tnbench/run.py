#!/usr/bin/env python3
"""Run one workload of the `tngeom` CLI benchmark and print its metrics.

    python3 tnbench/run.py --workload certify|dim|files --seed N --seconds S --trace 0|1

Run from the root of a checkout.  The benchmark writes the workload's
inputs from the seed, then runs its operations, one `tngeom` process at a
time (started through tnbench/spawn.py), in whole rounds until the next
round would end past S seconds (at least one round).  Each operation's report
is checked outside its timed region; an operation that exits with the
wrong code or fails its check counts as failed, and one whose report
fails its check makes `correct` false.  An operation still running
max(165, 4 * S) seconds after the start of the run is killed.

With --trace 0 the last line of stdout is a JSON object with the
end-to-end metrics: medians over the rounds, and for setup_s the median
of `tngeom --help` start-ups taken before the first operation and before
every operation after it.  With --trace 1 every
operation also runs once more under tnbench/tracing.py and the metrics
are the per-layer ones, with coverage and tracing overhead.  Everything
the run writes goes under .tnbench_out/ in the checkout.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path.insert(0, str(ROOT))

from tnbench import checks, tracing, workloads  # noqa: E402

SETUP_WARM = 10  # start-ups timed before the first operation; setup_s is the median of all start-ups
# An operation still running max(KILL_MIN_S, KILL_FACTOR * seconds) after the
# start of the run is killed and counts as failed.  165 s keeps a run at the
# benchmark's 40 s under 180 s; longer runs get room for a round that overruns.
KILL_MIN_S = 165
KILL_FACTOR = 4
# `tngeom` exit codes after which it has written its report: 0 success or
# certified, 1 inconclusive (certify, limit); 2 and 3 are errors without one
REPORT_CODES = (0, 1)
UNITS = {"wall_s": "s", "frontier_op_s": "s", "peak_rss_mb": "MB", "setup_s": "s"}


class Runner:
    """Runs operations through tnbench/spawn.py and checks their reports."""

    def __init__(self, out_dir: Path, deadline: float):
        self.out_dir = out_dir
        self.deadline = deadline
        env = dict(os.environ, PYTHONPATH=str(ROOT / "src"), PYTHONHASHSEED="0")
        self.spawner = subprocess.Popen([sys.executable, str(BENCH / "spawn.py")], stdin=subprocess.PIPE,
                                        stdout=subprocess.PIPE, text=True, env=env, cwd=ROOT)

    def close(self) -> None:
        self.spawner.stdin.close()
        self.spawner.wait()

    def spawn(self, argv, log: str) -> tuple[float, int, float]:
        """Run one process to its end: (wall seconds, exit code, peak RSS in MB)."""
        gc.collect()
        req = {"argv": [sys.executable, *argv], "stdout": str(self.out_dir / f"{log}.stdout"),
               "stderr": str(self.out_dir / f"{log}.stderr"),
               "timeout": max(self.deadline - time.perf_counter(), 0.0)}
        self.spawner.stdin.write(json.dumps(req) + "\n")
        self.spawner.stdin.flush()
        rep = json.loads(self.spawner.stdout.readline())
        return rep["wall_s"], rep["exit"], rep["peak_rss_mb"]

    def run_op(self, op: workloads.Op, traced: bool) -> dict:
        op.out.unlink(missing_ok=True)
        spans = self.out_dir / f"{op.name}.spans.json"
        prefix = [str(BENCH / "tracing.py"), str(spans)] if traced else ["-m", "tngeom"]
        wall, code, rss = self.spawn([*prefix, *op.argv], op.name)
        rec = {"op": op.name, "traced": traced, "wall_s": wall, "peak_rss_mb": rss, "exit": code}
        try:
            checks.expect(code in REPORT_CODES, f"exit code {code}")
            report = json.loads(op.out.read_text(encoding="utf-8"))
            op.check(report)
            checks.expect(code == 0, f"exit code {code} with a report that passes its check")
            if op.after is not None:
                op.after(report)
            rec["ok"] = True
        except (checks.CheckFailed, OSError, ValueError, KeyError, TypeError) as exc:
            rec["ok"] = False
            rec["error"] = f"{type(exc).__name__}: {exc}"
            # exit 0 or 1 means the CLI finished and wrote its report, so any
            # failure after it is a wrong output; a kill or exit 2/3 is a crash
            rec["wrong_output"] = code in REPORT_CODES
        if traced and spans.exists():
            rec["layers"] = tracing.layer_metrics(json.loads(spans.read_text(encoding="utf-8")))
        return rec


def _median_over(rounds, key):
    return statistics.median(key(r) for r in rounds)


def end_to_end(rounds, frontier: str, setup: list[float]) -> dict:
    values = {
        "wall_s": _median_over(rounds, lambda r: sum(op["wall_s"] for op in r)),
        "frontier_op_s": _median_over(rounds, lambda r: next(op["wall_s"] for op in r if op["op"] == frontier)),
        "peak_rss_mb": _median_over(rounds, lambda r: max(op["peak_rss_mb"] for op in r)),
        "setup_s": statistics.median(setup),
    }
    return {k: {"value": v, "unit": UNITS[k]} for k, v in values.items()}


def _round_layers(ops) -> dict:
    total = dict.fromkeys(tracing.METRICS, 0)
    for op in ops:
        for key, v in op.get("layers", {}).items():
            total[key] = max(total[key], v) if key in tracing.MAX_COUNTERS else total[key] + v
    return total


def per_layer(rounds, frontier: str) -> dict:
    """Layer metrics summed over a round's traced operations, and again for
    the frontier operation alone (prefix `frontier.`); medians over rounds."""
    values = {}
    for prefix, pick in (("", lambda op: True), ("frontier.", lambda op: op["op"] == frontier)):
        per_round = []
        for r in rounds:
            traced = [op for op in r if op["traced"] and pick(op)]
            plain = [op for op in r if not op["traced"] and pick(op)]
            layers = _round_layers(traced)
            traced_wall = sum(op["wall_s"] for op in traced)
            layers["trace.coverage"] = sum(layers[f"{n}_s"] for n in tracing.TIMED) / traced_wall
            layers["trace.overhead_s"] = traced_wall - sum(op["wall_s"] for op in plain)
            per_round.append(layers)
        for key in per_round[0]:
            values[prefix + key] = statistics.median(r[key] for r in per_round)
    return {k: {"value": v, "unit": layer_unit(k)} for k, v in values.items()}


def layer_unit(name: str) -> str:
    if name.endswith("_s"):
        return "s"
    if name.endswith("coverage"):
        return "ratio"
    return "bytes" if name.endswith("bytes_written") else "count"


def print_ops(rounds) -> None:
    """One line per operation and mode: median wall time and peak RSS over rounds."""
    names = list(dict.fromkeys((op["op"], op["traced"]) for op in rounds[0]))
    for name, traced in names:
        recs = [op for r in rounds for op in r if (op["op"], op["traced"]) == (name, traced)]
        line = (f"# {name:<34} {'traced' if traced else 'plain':<6} "
                f"wall {statistics.median(op['wall_s'] for op in recs):8.3f} s  "
                f"rss {max(op['peak_rss_mb'] for op in recs):7.1f} MB")
        if traced:
            layers = recs[len(recs) // 2].get("layers", {})
            top = sorted(((v, k) for k, v in layers.items() if k.endswith("_s")), reverse=True)[:3]
            line += "  top self: " + ", ".join(f"{k} {v:.3f}" for v, k in top)
        print(line)
    for op in (op for r in rounds for op in r if not op["ok"]):
        print(f"# FAILED {op['op']}: {op.get('error')}")


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    if not (ROOT / "src" / "tngeom" / "__main__.py").is_file():
        print(f"error: no tngeom sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    start = time.perf_counter()
    out_dir = ROOT / ".tnbench_out" / args.workload
    shutil.rmtree(out_dir, ignore_errors=True)
    out_dir.mkdir(parents=True)
    runner = Runner(out_dir, start + max(KILL_MIN_S, KILL_FACTOR * args.seconds))
    try:
        return measure(args, runner, start)
    finally:
        runner.close()


def measure(args, runner: Runner, start: float) -> int:
    out_dir = runner.out_dir
    # the first start-up compiles the package's bytecode and is not timed; later
    # ones, one before each operation, spread the set-up samples over the run
    setup = []
    for k in range(SETUP_WARM + 1):
        wall, code, _ = runner.spawn(["-m", "tngeom", "--help"], "setup")
        if code != 0:
            print(f"error: `tngeom --help` exited {code}, see {out_dir / 'setup.stderr'}", file=sys.stderr)
            return 3
        if k:
            setup.append(wall)

    wl = workloads.WORKLOADS[args.workload](args.seed, out_dir)
    rounds = []
    measure_start = time.perf_counter()
    while True:
        round_start = time.perf_counter()
        ops = []
        for op in wl.ops:
            if args.trace:
                ops.append(runner.run_op(op, traced=False))
            else:
                setup.append(runner.spawn(["-m", "tngeom", "--help"], "setup")[0])
            ops.append(runner.run_op(op, traced=bool(args.trace)))
        rounds.append(ops)
        now = time.perf_counter()
        if now - measure_start + (now - round_start) > args.seconds:
            break

    print_ops(rounds)
    attempted = sum(len(r) for r in rounds)
    failed = sum(not op["ok"] for r in rounds for op in r)
    metrics = per_layer(rounds, wl.frontier) if args.trace else end_to_end(rounds, wl.frontier, setup)
    summary = {"workload": args.workload, "seed": args.seed, "trace": args.trace, "setup_s": setup,
               "rounds": rounds, "metrics": metrics}
    (ROOT / ".tnbench_out" / f"{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps(summary, indent=1), encoding="utf-8")
    print(f"# {len(rounds)} round(s), {time.perf_counter() - start:.1f} s in all")
    correct = not any(op.get("wrong_output") for r in rounds for op in r)
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
