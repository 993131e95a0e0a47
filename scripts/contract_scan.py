#!/usr/bin/env python3
"""Time and measure `tngeom contract` on random loop (2,)^n instances.

    python scripts/contract_scan.py [--min-n 3] [--max-n 5] [--field rational|fp] [--seed 0]

For each n it writes a seeded random instance on the loop with n edges
of dimension 2 (every vertex of dimension 4) to a temporary directory,
and runs `tngeom contract` on it in a child process, with the report sent
to a file there.  Each row gives n, the 4^n entries of the contracted
tensor, the entries its contraction plan holds at once
(``contraction.contraction_plan``), the child's wall seconds, its peak
RSS from os.wait4, that peak per contracted entry and per held entry,
how far the child's own peak (VmHWM) rose past its size after `import
tngeom.cli`, and the rise it predicted (``errors.check_peak``: the bytes
its contraction was checked with, and ``errors.CODE_BYTES``).  The child imports tngeom from this process's PYTHONPATH,
so pointing PYTHONPATH at another checkout's src measures that checkout
(one that has ``contraction.contraction_plan``).  The memory budget
(``errors.MAX_PEAK_MB``) admits n <= 11.
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
from tngeom.contraction import contraction_plan
from tngeom.errors import CODE_BYTES
from tngeom.jsonio import graph_to_obj, tensor_to_obj

# The child: `tngeom ARGS` with the contraction's check wrapped.  At exit it writes to the file named by
# its first argument its peak resident size (VmHWM, in KB) after `import tngeom.cli` and at the end, and
# the bytes the check was given.  VmHWM is the process image's own peak: ru_maxrss, as os.wait4 reads
# it, also counts the resident size of this process when it spawned the child.
CHILD = """
import atexit, sys

def peak():
    with open("/proc/self/status") as fh:
        return next(int(line.split()[1]) for line in fh if line.startswith("VmHWM:"))

from tngeom import cli
out, base, checked = sys.argv[1], peak(), []
from tngeom import contraction
check = contraction.check_peak
contraction.check_peak = lambda nbytes, what: checked.append(nbytes) or check(nbytes, what)
atexit.register(lambda: open(out, "w").write(f"{base} {peak()} {max(checked)}"))
sys.exit(cli.main(sys.argv[2:]))
"""


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--min-n", type=int, default=3)
    ap.add_argument("--max-n", type=int, default=5)
    ap.add_argument("--field", choices=("rational", "fp"), default="rational")
    ap.add_argument("--seed", type=int, default=0)
    args = ap.parse_args()

    field = QQ if args.field == "rational" else PrimeField(DEFAULT_PRIME)
    print(f"{'n':>3} {'entries':>9} {'held':>9} {'secs':>7} {'peak_mb':>8} {'kb_per_entry':>12} {'kb_per_held':>11} "
          f"{'grew_mb':>8} {'pred_mb':>8}")
    with tempfile.TemporaryDirectory() as tmp:
        for n in range(args.min_n, args.max_n + 1):
            inst = random_instance(loop_graph((2,) * n), seed=args.seed, field=field)
            obj = graph_to_obj(inst.graph)
            obj["tensors"] = {str(v.id): tensor_to_obj(inst.tensors[v.id]) for v in inst.graph.vertices}
            path = Path(tmp) / f"loop{n}.json"
            path.write_text(json.dumps(obj))
            predicted = Path(tmp) / f"loop{n}.pred"
            cmd = [sys.executable, "-c", CHILD, str(predicted), "contract", str(path), "--field", args.field,
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
            base, end, nbytes = map(int, predicted.read_text().split())
            print(f"{n:>3} {entries:>9} {held:>9} {secs:>7.2f} {peak:>8.1f} {peak * 1024 / entries:>12.3f} "
                  f"{peak * 1024 / held:>11.3f} {(end - base) / 1024:>8.1f} {(nbytes + CODE_BYTES) / 2**20:>8.1f}",
                  flush=True)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
