#!/usr/bin/env python3
"""Sweep the non-closedness certificate over a range of matrix sizes.

For each e the sweep computes both stabilizer dimensions, the leading
power of the splitting curve, and the final conclusion, then prints one
table row with its time, that time in microseconds per nonzero of the
trace tensor's stabilizer system, how far the process's peak resident
size (VmHWM, read from /proc) has risen past its size after the imports,
and the rise predicted for the run (``errors.check_peak``): the most that
the stabilizer pipeline's checks were given, with ``errors.CODE_BYTES``.
That system has e^6 rows, 3e^4
columns and 3e^5 nonzeros.  It is
never built: it falls apart into many small connected components, found
from the tensor's fibres, and each class of equal components is ranked
once (``stabilizer.stabilizer_dim``); over the rationals a component
whose rank is not capped by the scalar rows is lifted from one prime and
checked exactly.  Only the rationals certify: mod p the
limit's stabilizer dimension is an upper bound.  The memory budget
(``errors.MAX_PEAK_MB``) admits e up to 20 and more.  See the README
("certify") for measured times and memory.
"""
from __future__ import annotations

import argparse
import time

from tngeom import QQ, PrimeField, certify_not_closed, diagonal_splitting, errors, stabilizer


def peak_kb() -> int:
    """The process's peak resident size (VmHWM) in KB."""
    with open("/proc/self/status") as fh:
        return next(int(line.split()[1]) for line in fh if line.startswith("VmHWM:"))


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--min-e", type=int, default=2)
    ap.add_argument("--max-e", type=int, default=3)
    ap.add_argument("--field", choices=["rational", "fp"], default="rational")
    ap.add_argument("--prime", type=int, default=2**31 - 1)
    args = ap.parse_args()

    field = QQ if args.field == "rational" else PrimeField(args.prime)
    checked = []  # the bytes each check of the run was given
    check = stabilizer.check_peak
    stabilizer.check_peak = lambda nbytes, what: checked.append(nbytes) or check(nbytes, what)
    print(f"{'e':>3} {'stab(mmult)':>12} {'stab(limit)':>12} "
          f"{'power':>6} {'conclusion':>22} {'secs':>7} {'us/nnz':>7} {'grew_mb':>8} {'pred_mb':>8}")
    base = peak_kb()
    for e in range(args.min_e, args.max_e + 1):
        checked.clear()
        start = time.perf_counter()
        cert = certify_not_closed(diagonal_splitting(e, field), e)
        secs = time.perf_counter() - start
        grew = (peak_kb() - base) / 1024
        pred = (max(checked) + errors.CODE_BYTES) / 2**20
        print(f"{e:>3} {cert.stab_mmult:>12} {cert.stab_mtilde:>12} "
              f"{cert.leading_power:>6} {cert.conclusion:>22} {secs:>7.2f} {secs * 1e6 / (3 * e**5):>7.2f} "
              f"{grew:>8.1f} {pred:>8.1f}", flush=True)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
