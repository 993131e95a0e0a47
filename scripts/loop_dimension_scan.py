#!/usr/bin/env python3
"""Measure dimensions of loop network varieties against the closed form.

Critical loops (every vertex dimension equal to the product of its two
edge dimensions) should land exactly on the count from expected_dim;
the script prints the lower and upper bounds of tns_dim next to it, and
whether they meet (`exact`), so drift is visible immediately.  Pass
--supercritical to pad the first vertex and watch the offset term kick
in.

Either field ranks the Jacobian of one integer instance mod a prime,
2^31 - 1 by default, on the columns that the edge gauge orbit leaves
free: on its own rows for the short loops, on a random row sketch for
the long ones.  That rank is a lower bound, and the edge gauge orbit
closes it from above (see tngeom.jacobian); the two fields differ only
in the prime.  Each row ends with the time of its tns_dim, how far the
process's peak resident size (VmHWM, read from /proc) has risen past its
size after the imports, and the rise its sample was predicted to take
(``errors.check_peak``: the bytes its Jacobian was checked with, and
``errors.CODE_BYTES``).  On a 2-core machine with Python 3.11,
`--max-n 9 --field rational` took 0.58 s of wall time, and its peak
rose 0.4 MB past the imports (5.8 MB predicted at n = 9), and
`--max-n 9 --field fp` 0.65 s; on every row the bounds meet, and they
match the formula.  When Q took its own path, `--max-n 7
--field rational` took 0.60 s and 40 MB, and loop (2,)^8 was refused
over Q.
"""
from __future__ import annotations

import argparse
import time

from tngeom import DEFAULT_PRIME, QQ, PrimeField, errors, expected_dim, jacobian, loop_graph, tns_dim


def peak_kb() -> int:
    """The process's peak resident size (VmHWM) in KB."""
    with open("/proc/self/status") as fh:
        return next(int(line.split()[1]) for line in fh if line.startswith("VmHWM:"))


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--edge-dim", type=int, default=2)
    ap.add_argument("--min-n", type=int, default=3)
    ap.add_argument("--max-n", type=int, default=4)
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--field", choices=("rational", "fp"), default="rational",
                    help="rank over Q, or mod the default prime")
    ap.add_argument("--supercritical", type=int, default=0,
                    help="extra rows added to the first vertex dimension")
    args = ap.parse_args()

    e = args.edge_dim
    field = QQ if args.field == "rational" else PrimeField(DEFAULT_PRIME)
    checked = []  # the bytes each check of the run was given
    check = jacobian.check_peak
    jacobian.check_peak = lambda nbytes, what: checked.append(nbytes) or check(nbytes, what)
    print(f"{'n':>3} {'vertex dims':>18} {'lower':>6} {'upper':>6} {'exact':>5} {'formula':>8} {'secs':>7} "
          f"{'grew_mb':>8} {'pred_mb':>8}")
    base = peak_kb()
    for n in range(args.min_n, args.max_n + 1):
        checked.clear()
        vdims = [e * e] * n
        vdims[0] += args.supercritical
        g = loop_graph((e,) * n, vertex_dims=tuple(vdims))
        start = time.perf_counter()
        lower, upper = tns_dim(g, seed=args.seed, field=field)
        secs = time.perf_counter() - start
        grew = (peak_kb() - base) / 1024
        formula = expected_dim(g)
        shown = "?" if formula is None else str(formula)
        flag = "" if formula is None or lower <= formula <= upper else "  <-- MISMATCH"
        exact = "yes" if lower == upper else "no"
        pred = (max(checked) + errors.CODE_BYTES) / 2**20
        print(f"{n:>3} {str(tuple(vdims)):>18} {lower:>6} {upper:>6} {exact:>5} {shown:>8} {secs:>7.2f} "
              f"{grew:>8.1f} {pred:>8.1f}{flag}", flush=True)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
