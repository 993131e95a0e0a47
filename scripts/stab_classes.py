#!/usr/bin/env python3
"""The component classes of the stabilizer systems of M and M~, e by e.

    python scripts/stab_classes.py [--min-e 2] [--max-e 5] [--field rational|fp]

M is the trace tensor mmult(e, e, e) and M~ the limit of its diagonal
splitting curve (``zoo.m_tilde_formula``).  The stabilizer system of
each falls apart into connected components (``stabilizer._components``),
and most of them are copies of a few local matrices.  A class is one
local matrix, keyed as ``stabilizer_dim`` keys it (``stabilizer.
_class_key``): its columns, its cap and its distinct rows.  One row per
class gives its columns, distinct rows, number of copies and nullity
(``stabilizer._class_rank``); the components of one column, rank 1 and
nullity 0, are one row with "-" for rows.  Then one row per e gives
stab(M) and stab(M~), summed from the classes and the columns that no
row holds, beside 3e^2 - 1 and 4e^2 - 2e.  The script exits 1 if either
differs.
"""
from __future__ import annotations

import argparse
from collections import Counter

from tngeom import QQ, PrimeField
from tngeom.stabilizer import _class_key, _class_rank, _components
from tngeom.zoo import m_tilde_formula, mmult


def classes(t) -> tuple[list[tuple], int]:
    """(columns, distinct rows, copies, nullity) of each class of t's system, and its stabilizer dimension."""
    singles, comps = _components(t)
    keys = Counter(_class_key(ccols, crows, len(ccols) - min(s, t.order - 1)) for ccols, crows, s, _ in comps)
    out = [(1, "-", len(singles), 0)] if singles else []
    out += sorted((n, len(rows), count, n - _class_rank((n, cap, rows), t.field.prime))
                  for (n, cap, rows), count in keys.items())
    # a column that no row holds is free: it adds one to the nullity
    free = sum(s * s for s in t.shape) - sum(n * count for n, _, count, _ in out)
    return out, free + sum(count * nullity for _, _, count, nullity in out)


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--min-e", type=int, default=2)
    ap.add_argument("--max-e", type=int, default=5)
    ap.add_argument("--field", choices=["rational", "fp"], default="rational")
    ap.add_argument("--prime", type=int, default=2**31 - 1)
    args = ap.parse_args()

    field = QQ if args.field == "rational" else PrimeField(args.prime)
    es = range(args.min_e, args.max_e + 1)
    stabs = {}
    print(f"{'e':>3} {'tensor':>6} {'columns':>8} {'rows':>6} {'copies':>7} {'nullity':>8}")
    for e in es:
        for name, t in (("M", mmult(e, e, e, field)), ("M~", m_tilde_formula(e, field))):
            rows, stabs[e, name] = classes(t)
            for n, r, count, nullity in rows:
                print(f"{e:>3} {name:>6} {n:>8} {r:>6} {count:>7} {nullity:>8}")
    print(f"\n{'e':>3} {'stab(M)':>8} {'3e^2-1':>7} {'stab(M~)':>9} {'4e^2-2e':>8} {'ok':>4}")
    ok = True
    for e in es:
        want = (3 * e * e - 1, 4 * e * e - 2 * e)
        got = (stabs[e, "M"], stabs[e, "M~"])
        ok &= got == want
        print(f"{e:>3} {got[0]:>8} {want[0]:>7} {got[1]:>9} {want[1]:>8} {'yes' if got == want else 'NO':>4}")
    return 0 if ok else 1


if __name__ == "__main__":
    raise SystemExit(main())
