#!/usr/bin/env python3
"""Time and measure `tngeom contract` on random loop (2,)^n instances.

    python scripts/contract_scan.py [--min-n 3] [--max-n 5] [--field rational|fp] [--seed 0]

For each n it writes a seeded random instance on the loop with n edges
of dimension 2 (every vertex of dimension 4) to a temporary directory,
and runs `python -m tngeom contract` on it in a child process, with the
report sent to a file there.  Each row gives n, the 4^n entries of the
contracted tensor, the entries its contraction plan holds at once
(``networks.contraction_plan``), the child's wall seconds, its peak RSS
from os.wait4, and that peak per contracted entry and per held entry.
The child imports tngeom from this process's PYTHONPATH, so pointing
PYTHONPATH at another checkout's src measures that checkout (one that
has ``contraction_plan``).  The contraction budget admits n <= 10.
"""
from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys
import tempfile
import time
from pathlib import Path

from tngeom import DEFAULT_PRIME, QQ, PrimeField, loop_graph, random_instance
from tngeom.jsonio import graph_to_obj, tensor_to_obj
from tngeom.networks import contraction_plan


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--min-n", type=int, default=3)
    ap.add_argument("--max-n", type=int, default=5)
    ap.add_argument("--field", choices=("rational", "fp"), default="rational")
    ap.add_argument("--seed", type=int, default=0)
    args = ap.parse_args()

    field = QQ if args.field == "rational" else PrimeField(DEFAULT_PRIME)
    print(f"{'n':>3} {'entries':>9} {'held':>9} {'secs':>7} {'peak_mb':>8} {'kb_per_entry':>12} {'kb_per_held':>11}")
    with tempfile.TemporaryDirectory() as tmp:
        for n in range(args.min_n, args.max_n + 1):
            inst = random_instance(loop_graph((2,) * n), seed=args.seed, field=field)
            obj = graph_to_obj(inst.graph)
            obj["tensors"] = {str(v.id): tensor_to_obj(inst.tensors[v.id]) for v in inst.graph.vertices}
            path = Path(tmp) / f"loop{n}.json"
            path.write_text(json.dumps(obj))
            cmd = [sys.executable, "-m", "tngeom", "contract", str(path), "--field", args.field,
                   "--out", str(Path(tmp) / f"loop{n}.out.json")]
            start = time.perf_counter()
            child = subprocess.Popen(cmd)
            _, status, usage = os.wait4(child.pid, 0)
            secs = time.perf_counter() - start
            child.returncode = os.waitstatus_to_exitcode(status)  # reaped here, so Popen must not wait again
            if child.returncode:
                print(f"contract exited with {child.returncode} at n = {n}", file=sys.stderr)
                return 1
            peak = usage.ru_maxrss / 1024  # KB on Linux
            entries, held = 4**n, contraction_plan(inst.graph)[2]
            print(f"{n:>3} {entries:>9} {held:>9} {secs:>7.2f} {peak:>8.1f} {peak * 1024 / entries:>12.3f} "
                  f"{peak * 1024 / held:>11.3f}", flush=True)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
