"""Contraction of a whole network to one tensor, and the plan it follows.

Only `tngeom contract` runs this code, so it is a module of its own that
no other command loads.  The graphs, instances and the pairwise
absorption it is built from are in ``networks``.
"""

from __future__ import annotations

from .errors import check_peak
from .networks import NetworkGraph, TNSInstance, absorb, require_vertices
from .tensors import Tensor


def contract_network(inst: TNSInstance) -> Tensor:
    """Contract all edges; the result keeps one axis per vertex, in graph order.

    A prefix of graph order and the suffix after it (``contraction_plan``)
    are each absorbed one vertex tensor at a time, in graph order, and one
    more absorption joins the two.  Each absorption contracts every edge
    the two tensors share in a single pairwise pass.  On a loop of four or
    more vertices this holds no intermediate as large as the result beside
    it.  The result does not depend on the absorption order.  Before
    anything is absorbed, the peak is predicted from the entries the plan
    holds at once, at about 0.14 KB each, and checked
    (``errors.check_peak``).  That cost is from `scripts/contract_scan.py`
    on random loop (2,)^n instances, peak RSS past `import tngeom.cli` on a
    2-core host with Python 3.11: 35 MB for n = 9 (267264 entries held) and
    135 MB for n = 10 (1056768), over Q and over Fp alike.  The count is of
    dense entries, so a sparse instance is refused as a dense one would be.
    """
    g = inst.graph
    require_vertices(g)
    k, _, held = contraction_plan(g)
    check_peak(140 * held, "contracting this network")

    def in_order(vids):
        first, *rest = vids
        cur, labels = inst.tensors[first], g.axis_labels(first)
        for vid in rest:
            cur, labels = absorb(cur, labels, inst.tensors[vid], g.axis_labels(vid))
        return cur, labels

    vids = [v.id for v in g.vertices]
    cur, labels = in_order(vids[:k])
    if k < len(vids):
        cur, _ = absorb(cur, labels, *in_order(vids[k:]))
    return cur  # every edge is closed, and the vertex axes stay in the order absorbed


def _sweeps(g: NetworkGraph):
    """For k = 0..n: the entries of the tensor that absorbing vertices k+1..j
    in graph order holds, for j = k+1..n.

    That tensor has one axis per vertex absorbed and one per edge with
    exactly one end absorbed (an edge's second end closes it); the product
    of their dimensions is its size.
    """
    dims = {("v", v.id): v.dim for v in g.vertices} | {("e", e.id): e.dim for e in g.edges}
    labels = [g.axis_labels(v.id) for v in g.vertices]
    for k in range(len(labels) + 1):
        open_labels, size, sizes = set(), 1, []
        for labs in labels[k:]:
            for lab in labs:
                size = size // dims[lab] if lab in open_labels else size * dims[lab]
            open_labels ^= set(labs)
            sizes.append(size)
        yield sizes


def contraction_plan(g: NetworkGraph) -> tuple[int, int, int]:
    """Where ``contract_network`` splits graph order: (k, largest, held).

    Vertices 1..k are absorbed in graph order, then k+1..n, and the two
    tensors are joined.  An absorption holds its two operands and its
    result, and the prefix is held while the suffix is absorbed: held is
    the most entries held at once, largest the most entries of one tensor.
    Of the splits whose largest is at most that of graph order, k holds the
    fewest, the largest such k on a tie; k = n is graph order.
    """
    sizes = list(_sweeps(g))
    order = sizes[0]
    vertex = [s[0] for s in sizes[:-1]]  # entries of each vertex tensor
    plans = []
    for k in range(len(order), 0, -1):
        pre, suf = order[:k], sizes[k]
        held = [a + t + b for a, t, b in zip(pre, vertex[1:], pre[1:])]
        held += [pre[-1] + a + t + b for a, t, b in zip(suf, vertex[k + 1:], suf[1:])]
        held += [pre[-1] + suf[-1] + order[-1]] if suf else [pre[0]]
        largest = max(pre + suf + order[-1:])
        if largest <= max(order):
            plans.append((k, largest, max(held)))
    return min(plans, key=lambda plan: plan[2])  # the first, so the largest k, on a tie
