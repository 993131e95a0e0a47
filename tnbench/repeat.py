#!/usr/bin/env python3
"""Repeat whole benchmark runs and print each metric's median and quartiles.

    python3 tnbench/repeat.py --workload dim --seeds 1-10

Runs tnbench/run.py once per seed, one run at a time, untraced and for
the benchmark's `run_seconds` from BENCHMARK.json, and prints for each
metric the median, the first and third quartiles (`statistics.quantiles`
with n=4) and the interquartile range as a share of the median, next to
the metric's bound from BENCHMARK.json.  Use it to check the bounds and
to set them again.  Exits 1 if any run fails or reports a failed
operation.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent


def seed_list(text: str) -> list[int]:
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def main(argv=None) -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seeds", type=seed_list, default=seed_list("1-10"), help="range such as 1-10")
    args = ap.parse_args(argv)

    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    values: dict[str, list[float]] = {}
    units: dict[str, str] = {}
    ok = True
    for seed in args.seeds:
        proc = subprocess.run([sys.executable, str(BENCH / "run.py"), "--workload", args.workload,
                               "--seed", str(seed), "--seconds", str(spec["run_seconds"]), "--trace", "0"],
                              cwd=ROOT, capture_output=True, text=True)
        if proc.returncode != 0:
            print(f"seed {seed}: exit {proc.returncode}\n{proc.stderr}", file=sys.stderr)
            return 1
        result = json.loads(proc.stdout.splitlines()[-1])
        ok = ok and result["correct"] and result["failed"] == 0
        print(f"seed {seed}: attempted {result['attempted']} failed {result['failed']} "
              + " ".join(f"{k}={v['value']:.4g}" for k, v in result["metrics"].items() if k in bounds), flush=True)
        for name, m in result["metrics"].items():
            values.setdefault(name, []).append(m["value"])
            units[name] = m["unit"]

    print(f"{'metric':<44} {'unit':<6} {'median':>12} {'q1':>12} {'q3':>12} {'iqr/med':>8} {'bound':>6}")
    for name, vals in values.items():
        med = statistics.median(vals)
        q1, _, q3 = statistics.quantiles(vals, n=4) if len(vals) > 1 else (med, med, med)
        spread = (q3 - q1) / med if med else 0.0
        bound = f"{bounds[name]:.2f}" if name in bounds else ""
        print(f"{name:<44} {units[name]:<6} {med:12.4f} {q1:12.4f} {q3:12.4f} {spread:8.3f} {bound:>6}")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
