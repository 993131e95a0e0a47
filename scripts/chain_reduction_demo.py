#!/usr/bin/env python3
"""Walk a chain network down to its two-vertex core and sample ranks."""
from __future__ import annotations

import argparse
import collections

from tngeom import (
    chain_graph,
    contract_network,
    flatten,
    random_instance,
    rank,
    reduce_valence_one,
    tns_dim,
)


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--samples", type=int, default=200)
    ap.add_argument("--seed", type=int, default=0)
    args = ap.parse_args()

    g4 = chain_graph((2, 4, 4, 2), (2, 2, 2))
    reduced, merges = reduce_valence_one(g4)
    print("chain (2,4,4,2) with edge dims (2,2,2):")
    for m in merges:
        print(f"  merged vertex {m.removed} into {m.target} along edge "
              f"{m.edge}; new dimension {m.new_dim}")
    core = tuple(v.dim for v in reduced.vertices)
    print(f"  core graph: {len(reduced.vertices)} vertices with dims {core}, "
          f"{len(reduced.edges)} edge(s)\n")

    two = chain_graph((3, 3), (2,))
    hist = collections.Counter()
    for s in range(args.samples):
        t = contract_network(random_instance(two, seed=args.seed + s))
        hist[rank(flatten(t, 0))] += 1
    print(f"two-vertex law, v=(3,3), edge dim 2, {args.samples} samples:")
    for r in sorted(hist):
        print(f"  rank {r}: {hist[r]}")
    lower, upper = tns_dim(two)
    print(f"  tns_dim between {lower} and {upper}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
