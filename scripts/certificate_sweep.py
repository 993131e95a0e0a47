#!/usr/bin/env python3
"""Sweep the non-closedness certificate over a range of matrix sizes.

For each e the sweep computes both stabilizer dimensions, the leading
power of the splitting curve, and the final conclusion, then prints one
table row with its time and the peak RSS of the process so far.  The
stabilizer system of the trace tensor has e^6 rows, 3e^4 columns and
3e^5 nonzeros.  It is never built: it falls apart into many small
connected components, found from the tensor, and each is ranked on its
own and dropped (``stabilizer.stabilizer_dim``); over the rationals a
component whose rank is not capped by the scalar rows is lifted from one
prime and checked exactly.  Only the rationals certify: mod p the
limit's stabilizer dimension is an upper bound.  Systems past
``stabilizer.MAX_SYSTEM_NNZ`` = 4·10^6 nonzeros are refused, so e runs up
to 16 (3.1·10^6 nonzeros).  See the README ("certify") for measured
times and memory.
"""
from __future__ import annotations

import argparse
import resource
import time

from tngeom import QQ, PrimeField, certify_not_closed, diagonal_splitting


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--min-e", type=int, default=2)
    ap.add_argument("--max-e", type=int, default=3)
    ap.add_argument("--field", choices=["rational", "fp"], default="rational")
    ap.add_argument("--prime", type=int, default=2**31 - 1)
    args = ap.parse_args()

    field = QQ if args.field == "rational" else PrimeField(args.prime)
    print(f"{'e':>3} {'stab(mmult)':>12} {'stab(limit)':>12} "
          f"{'power':>6} {'conclusion':>22} {'secs':>7} {'peak_mb':>8}")
    for e in range(args.min_e, args.max_e + 1):
        start = time.perf_counter()
        cert = certify_not_closed(diagonal_splitting(e, field), e)
        secs = time.perf_counter() - start
        peak = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024  # KB on Linux
        print(f"{e:>3} {cert.stab_mmult:>12} {cert.stab_mtilde:>12} "
              f"{cert.leading_power:>6} {cert.conclusion:>22} {secs:>7.2f} {peak:>8.1f}", flush=True)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
