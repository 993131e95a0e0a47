#!/usr/bin/env python3
"""Stabilizer dimensions of dense random n x n x n tensors, with the rows
the elimination read and the time it took.

A concise generic tensor keeps only the d - 1 = 2 scalar symmetries, so
its system of n^3 rows and 3n^2 columns has rank 3n^2 - 2, which is its
cap (see tngeom.linalg._eliminate).  The system is one connected
component.  The elimination visits its rows in a strided order and stops
at the cap, so it reads about 3n^2 - 2 rows, and over Q the rank is exact
without a lifted kernel.  The rows read are counted by wrapping
linalg._packed_eliminate, in every elimination that a cap stops below its
column count (over Q, one per prime).  The time is that of stabilizer.stabilizer_dim, the path
`tngeom stabilizer` runs: the component search and the rows read off the
tensor as well as the elimination.  Each row ends with how far the
process's peak resident size (VmHWM, read from /proc) has risen past its
size after the imports, and the rise the run was predicted to take
(``errors.check_peak``: the most its stabilizer checks were given, and
``errors.CODE_BYTES``).  On a 2-core machine with Python 3.11, `--min-n 8
--max-n 20` over Q reads 3n^2 - 2 rows at every n; see the README
("stabilizer") for the times.
"""
from __future__ import annotations

import argparse
import time

from tngeom import DEFAULT_PRIME, QQ, PrimeField, errors, linalg, random_tensor, stabilizer
from tngeom.stabilizer import stabilizer_dim


def peak_kb() -> int:
    """The process's peak resident size (VmHWM) in KB."""
    with open("/proc/self/status") as fh:
        return next(int(line.split()[1]) for line in fh if line.startswith("VmHWM:"))


def _counted(rows, read: list):
    """The rows of one elimination, counted as they are read."""
    for row in rows:
        read[0] += 1
        yield row


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--min-n", type=int, default=4)
    ap.add_argument("--max-n", type=int, default=8)
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--field", choices=("rational", "fp"), default="rational",
                    help="rank over Q, or mod the default prime")
    args = ap.parse_args()

    field = QQ if args.field == "rational" else PrimeField(DEFAULT_PRIME)
    read = [0]
    eliminate = linalg._packed_eliminate
    # the elimination of the system's component has a cap below its column count; ranking the
    # scalar rows' parts, for that cap, does not
    linalg._packed_eliminate = lambda rows, cols, prime, cap=None: eliminate(
        rows if cap is None or cap == len(cols) else _counted(rows, read), cols, prime, cap)
    checked = []  # the bytes each check of the run was given
    check = stabilizer.check_peak
    stabilizer.check_peak = lambda nbytes, what: checked.append(nbytes) or check(nbytes, what)
    print(f"{'n':>3} {'rows':>6} {'cols':>5} {'stab':>5} {'orbit':>6} {'read':>6} {'secs':>8} {'grew_mb':>8} "
          f"{'pred_mb':>8}")
    base = peak_kb()
    for n in range(args.min_n, args.max_n + 1):
        t = random_tensor((n, n, n), seed=args.seed + n, field=field)
        read[0] = 0
        checked.clear()
        start = time.perf_counter()
        stab = stabilizer_dim(t)
        secs = time.perf_counter() - start
        cols = 3 * n * n
        grew = (peak_kb() - base) / 1024
        pred = (max(checked) + errors.CODE_BYTES) / 2**20
        print(f"{n:>3} {n ** 3:>6} {cols:>5} {stab:>5} {cols - stab:>6} {read[0]:>6} {secs:>8.3f} {grew:>8.1f} "
              f"{pred:>8.1f}", flush=True)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
