"""Directed multigraphs with dimension labels, tensor instances on them,
graph contraction, and the structural rewrites that preserve the contracted
set: valence-one merges and vertex truncation.

A vertex of dimension v with incident edge dimensions multiplying to f is
called critical when v = f; both non-strict comparisons are meaningful, so
the classifier reports equality and the two strict cases.

Vertex tensor axis order is pinned: the vertex axis first, then incoming
edges by increasing edge id, then outgoing edges by increasing edge id.
Merged vertices index their fused space with the removed vertex index as
the major digit.
"""

from __future__ import annotations

import heapq
import random
from math import prod

from ._record import Record
from .errors import SemanticError, ShapeError, magnitude
from .fields import QQ, Field
from .tensors import (  # noqa: F401  (outer, contract_pair: kept importable here for code that wraps them)
    INSTANCE_ENTRY_BOUND,
    Tensor,
    contract_pair,
    outer,
    tensordot,
    transpose_axes,
)

# Budget on the entries of any tensor a contraction in graph order holds,
# checked from the graph before anything is absorbed (``contraction_peak``);
# it counts dense entries, so a sparse instance is refused as a dense one
# would be.  On a 2-core host with Python 3.11, `contract` on random loop
# (2,)^n instances over Q (scripts/contract_scan.py) peaked at 24 MB in
# 0.3 s for n = 8 (65536 entries), 49 MB in 0.7 s for n = 9 (262144) and
# 149 MB in 2.9 s for n = 10 (1048576, this budget), the same over Fp:
# about 0.14 KB per entry the plan holds at once (``contraction_plan``),
# most of them the result, which the join of two halves of 4096 entries
# holds beside them.  Loop (2,)^11 is refused.
MAX_CONTRACTION_ENTRIES = 2**20


class Vertex(Record):
    id: int
    dim: int


class Edge(Record):
    id: int
    tail: int
    head: int
    dim: int


class NetworkGraph(Record):
    """Immutable labeled multigraph; self loops are rejected."""

    vertices: tuple[Vertex, ...]
    edges: tuple[Edge, ...]

    def __post_init__(self):
        vids = [v.id for v in self.vertices]
        if len(set(vids)) != len(vids):
            raise SemanticError("duplicate vertex ids")
        eids = [e.id for e in self.edges]
        if len(set(eids)) != len(eids):
            raise SemanticError("duplicate edge ids")
        if any(v.dim < 1 for v in self.vertices):
            raise SemanticError("vertex dimensions must be positive")
        vset = set(vids)
        for e in self.edges:
            if e.dim < 1:
                raise SemanticError(f"edge {e.id} has nonpositive dimension")
            if e.tail not in vset or e.head not in vset:
                raise SemanticError(f"edge {e.id} references a missing vertex")
            if e.tail == e.head:
                raise SemanticError(f"edge {e.id} is a self loop")

    @classmethod
    def build(cls, vertices, edges) -> "NetworkGraph":
        return cls(
            tuple(Vertex(int(i), int(d)) for i, d in vertices),
            tuple(Edge(int(i), int(t), int(h), int(d)) for i, t, h, d in edges),
        )

    def vertex(self, vid: int) -> Vertex:
        for v in self.vertices:
            if v.id == vid:
                return v
        raise SemanticError(f"no vertex {vid}")

    def edge(self, eid: int) -> Edge:
        for e in self.edges:
            if e.id == eid:
                return e
        raise SemanticError(f"no edge {eid}")

    def in_edges(self, vid: int) -> list[Edge]:
        return sorted((e for e in self.edges if e.head == vid), key=lambda e: e.id)

    def out_edges(self, vid: int) -> list[Edge]:
        return sorted((e for e in self.edges if e.tail == vid), key=lambda e: e.id)

    def incident(self, vid: int) -> list[Edge]:
        return sorted((e for e in self.edges if vid in (e.tail, e.head)), key=lambda e: e.id)

    def degree(self, vid: int) -> int:
        return len(self.incident(vid))

    def edge_product(self, vid: int) -> int:
        return prod((e.dim for e in self.incident(vid)), start=1)

    def _axis_edges(self, vid: int) -> list[Edge]:
        """The edges behind a vertex tensor's axes after the vertex axis, in axis order."""
        return self.in_edges(vid) + self.out_edges(vid)

    def tensor_shape(self, vid: int) -> tuple[int, ...]:
        return (self.vertex(vid).dim, *(e.dim for e in self._axis_edges(vid)))

    def axis_labels(self, vid: int) -> list[tuple]:
        """Label per tensor axis: ('v', vid) or ('e', edge_id)."""
        return [("v", vid), *(("e", e.id) for e in self._axis_edges(vid))]


def classify_vertex(g: NetworkGraph, vid: int) -> str:
    """Compare a vertex dimension against the product of its edge dimensions."""
    v = g.vertex(vid).dim
    f = g.edge_product(vid)
    if v == f:
        return "critical"
    return "strictly_sub" if v < f else "strictly_super"


def loop_graph(edge_dims, vertex_dims=None) -> NetworkGraph:
    """Cycle on n >= 2 vertices; edge j runs from vertex j to vertex j+1.

    Without explicit vertex dimensions the loop is made critical, so vertex
    j gets dimension edge(j-1) * edge(j).
    """
    edge_dims = [int(e) for e in edge_dims]
    n = len(edge_dims)
    if n < 2:
        raise SemanticError("a loop needs at least two edges")
    if vertex_dims is None:
        vertex_dims = [edge_dims[j - 1] * edge_dims[j] for j in range(n)]
    vertex_dims = [int(v) for v in vertex_dims]
    if len(vertex_dims) != n:
        raise ShapeError("need one vertex dimension per edge")
    vertices = [(j + 1, vertex_dims[j]) for j in range(n)]
    edges = [(j + 1, j + 1, (j + 1) % n + 1, edge_dims[j]) for j in range(n)]
    return NetworkGraph.build(vertices, edges)


def chain_graph(vertex_dims, edge_dims) -> NetworkGraph:
    """Path graph; edge j runs from vertex j to vertex j+1."""
    vertex_dims = [int(v) for v in vertex_dims]
    edge_dims = [int(e) for e in edge_dims]
    if len(vertex_dims) != len(edge_dims) + 1:
        raise ShapeError("a chain on n vertices has n-1 edges")
    vertices = [(j + 1, d) for j, d in enumerate(vertex_dims)]
    edges = [(j + 1, j + 1, j + 2, d) for j, d in enumerate(edge_dims)]
    return NetworkGraph.build(vertices, edges)


class TNSInstance(Record):
    """Vertex tensors attached to a graph; axis order per tensor_shape."""

    graph: NetworkGraph
    tensors: dict[int, Tensor]

    def __post_init__(self):
        fields = set()
        for v in self.graph.vertices:
            t = self.tensors.get(v.id)
            if t is None:
                raise SemanticError(f"missing tensor for vertex {v.id}")
            want = self.graph.tensor_shape(v.id)
            if t.shape != want:
                raise ShapeError(f"vertex {v.id}: tensor shape {t.shape} != expected {want}")
            fields.add(t.field)
        if len(self.tensors) != len(self.graph.vertices):
            raise SemanticError("instance carries tensors for unknown vertices")
        if len(fields) > 1:
            raise SemanticError("vertex tensors live over different fields")

    @property
    def field(self) -> Field:
        return self.tensors[self.graph.vertices[0].id].field


def random_instance(g: NetworkGraph, seed: int, field: Field = QQ, bound: int = INSTANCE_ENTRY_BOUND) -> TNSInstance:
    """Deterministic instance; entries drawn uniformly from [-bound, bound]."""
    rng = random.Random(seed)
    tensors = {}
    for v in g.vertices:
        shape = g.tensor_shape(v.id)
        tensors[v.id] = Tensor(shape, [rng.randint(-bound, bound) for _ in range(prod(shape))], field)
    return TNSInstance(g, tensors)


def identity_instance(g: NetworkGraph, field: Field = QQ) -> TNSInstance:
    """Identity-reshape instance on a critical loop in canonical orientation.

    Requires every vertex to have exactly one incoming and one outgoing
    edge and dimension in_dim * out_dim; vertex j's tensor is then the
    identity on the edge pair, reshaped with the fused (in, out) index as
    the vertex axis.
    """
    tensors = {}
    for v in g.vertices:
        ins, outs = g.in_edges(v.id), g.out_edges(v.id)
        if len(ins) != 1 or len(outs) != 1:
            raise SemanticError("identity_instance needs a directed loop")
        a, b = ins[0].dim, outs[0].dim
        if v.dim != a * b:
            raise SemanticError(f"vertex {v.id} is not critical")
        items = {(c * b + d, c, d): 1 for c in range(a) for d in range(b)}
        tensors[v.id] = Tensor.from_nonzeros((a * b, a, b), items, field)
    return TNSInstance(g, tensors)


def require_vertices(g: NetworkGraph) -> None:
    """Refuse a network with no vertices: it has no tensor to contract or differentiate."""
    if not g.vertices:
        raise SemanticError("the network has no vertices")


def contract_network(inst: TNSInstance) -> Tensor:
    """Contract all edges; the result keeps one axis per vertex, in graph order.

    A prefix of graph order and the suffix after it (``contraction_plan``)
    are each absorbed one vertex tensor at a time, in graph order, and one
    more absorption joins the two.  Each absorption contracts every edge
    the two tensors share in a single pairwise pass.  On a loop of four or
    more vertices this holds no intermediate as large as the result beside
    it.  The result does not depend on the absorption order.  A graph
    whose contraction in graph order would hold a tensor of more than
    MAX_CONTRACTION_ENTRIES entries (``contraction_peak``) is refused
    before anything is absorbed; the plan holds no larger one.
    """
    g = inst.graph
    require_vertices(g)
    peak = contraction_peak(g)
    if peak > MAX_CONTRACTION_ENTRIES:
        raise SemanticError(f"contracting this network would hold a tensor of {magnitude(peak)} entries, "
                            f"over the budget of {MAX_CONTRACTION_ENTRIES}")

    def in_order(vids):
        first, *rest = vids
        cur, labels = inst.tensors[first], g.axis_labels(first)
        for vid in rest:
            cur, labels = absorb(cur, labels, inst.tensors[vid], g.axis_labels(vid))
        return cur, labels

    vids = [v.id for v in g.vertices]
    k = contraction_plan(g)[0]
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


def contraction_peak(g: NetworkGraph) -> int:
    """Most entries of a tensor that absorbing the vertices in graph order holds.

    MAX_CONTRACTION_ENTRIES bounds this count.  ``contraction_plan`` takes
    no split that holds a larger tensor, so the budget admits the networks
    it would admit if contraction ran in graph order.
    """
    return max(next(_sweeps(g)), default=0)


def contraction_plan(g: NetworkGraph) -> tuple[int, int, int]:
    """Where ``contract_network`` splits graph order: (k, largest, held).

    Vertices 1..k are absorbed in graph order, then k+1..n, and the two
    tensors are joined.  An absorption holds its two operands and its
    result, and the prefix is held while the suffix is absorbed: held is
    the most entries held at once, largest the most entries of one tensor.
    Of the splits whose largest is at most ``contraction_peak(g)``, k holds
    the fewest, the largest such k on a tie; k = n is graph order.
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


def absorb(a: Tensor, labels_a, b: Tensor, labels_b) -> tuple[Tensor, list]:
    """Contract two axis-labelled tensors over every label they share, in one pass.

    Returns the result and its labels: a's open labels, then b's.
    """
    shared = [lab for lab in labels_b if lab in labels_a]
    out = tensordot(a, b, [(labels_a.index(lab), labels_b.index(lab)) for lab in shared])
    return out, [lab for lab in labels_a + labels_b if lab not in shared]


class MergeStep(Record):
    removed: int
    edge: int
    target: int
    new_dim: int


def _fold(dims: dict, edges: dict, step: MergeStep) -> None:
    """Check one merge step against a fold state and apply it in place.

    The state is {vertex id: dim}, in the graph's vertex order, and
    {edge id: (tail, head, dim)}.  The step's edge must join its two
    vertices, new_dim must be the product of their dimensions, and the
    removed vertex must fit inside the edge.  That last check is what lets
    reduction_preimage unpack by relabelling: the fused index is
    z * d_target + w with z below the edge dimension, so the fused
    tensor's row-major keys are already its keys for the shape
    (edge dim, d_target, *other axes).
    """
    if step.edge not in edges or step.removed not in dims or step.target not in dims:
        raise SemanticError(f"merge log step {step} does not match the graph")
    tail, head, e_dim = edges[step.edge]
    if {tail, head} != {step.removed, step.target}:
        raise SemanticError(f"edge {step.edge} does not join {step.removed} and {step.target}")
    if step.new_dim != dims[step.removed] * dims[step.target]:
        raise SemanticError(f"merge log step {step} has inconsistent dimension")
    if dims[step.removed] > e_dim:
        raise SemanticError(f"merge log step {step} removes a vertex larger than its edge")
    del edges[step.edge]
    dims[step.target] = step.new_dim
    del dims[step.removed]


def _fold_graph(dims: dict, edges: dict) -> NetworkGraph:
    return NetworkGraph(
        tuple(Vertex(vid, d) for vid, d in dims.items()),
        tuple(Edge(eid, *edges[eid]) for eid in sorted(edges)),
    )


def reduce_valence_one(g: NetworkGraph) -> tuple[NetworkGraph, tuple[MergeStep, ...]]:
    """Repeatedly fold valence-one vertices that fit inside their edge.

    A valence-one vertex whose dimension is at most its edge dimension is
    removed and its neighbor's dimension is multiplied by it (removed index
    major).  Candidates are processed by ascending vertex id; the merge log
    records each step.
    """
    dims = {v.id: v.dim for v in g.vertices}
    edges = {e.id: (e.tail, e.head, e.dim) for e in g.edges}
    incident: dict[int, set[int]] = {vid: set() for vid in dims}
    for eid, (tail, head, _) in edges.items():
        incident[tail].add(eid)
        incident[head].add(eid)

    def foldable(vid: int) -> bool:
        inc = incident[vid]
        return len(inc) == 1 and dims[vid] <= edges[next(iter(inc))][2]

    # a fold changes the state of its target only, so the heap holds every
    # foldable id; an id popped after it stopped being foldable is skipped
    heap = [vid for vid in dims if foldable(vid)]
    heapq.heapify(heap)
    log: list[MergeStep] = []
    while heap:
        vid = heapq.heappop(heap)
        if not foldable(vid):
            continue
        (eid,) = incident.pop(vid)
        tail, head, _ = edges[eid]
        other = head if tail == vid else tail
        log.append(MergeStep(removed=vid, edge=eid, target=other, new_dim=dims[vid] * dims[other]))
        _fold(dims, edges, log[-1])
        incident[other].remove(eid)
        if foldable(other):
            heapq.heappush(heap, other)
    return _fold_graph(dims, edges), tuple(log)


def reduction_preimage(g: NetworkGraph, merges, inst: TNSInstance) -> TNSInstance:
    """Lift an instance of the reduced graph back to the original graph.

    Reverses a merge log from reduce_valence_one one step at a time: the
    removed vertex gets the identity embedding of its space into the edge,
    and the fused tensor is unpacked onto the neighbor with the edge axis
    carrying the removed vertex's index.  Contracting the lift reproduces
    the reduced instance's contraction with each fused axis split in two.
    Each step is checked as it is replayed (_fold).
    """
    dims = {v.id: v.dim for v in g.vertices}
    edges = {e.id: (e.tail, e.head, e.dim) for e in g.edges}
    graphs = [_fold_graph(dims, edges)]
    for m in merges:
        _fold(dims, edges, m)
        graphs.append(_fold_graph(dims, edges))
    if inst.graph != graphs[-1]:
        raise SemanticError("instance graph does not match the reduced graph")
    tensors = dict(inst.tensors)
    for m, fine, coarse in reversed(list(zip(merges, graphs, graphs[1:]))):
        d_z, d_w, e_dim = fine.vertex(m.removed).dim, fine.vertex(m.target).dim, fine.edge(m.edge).dim
        fused = tensors.pop(m.target)
        field = fused.field
        emb = {i * e_dim + i: field.one for i in range(d_z)}
        tensors[m.removed] = Tensor._from_flat((d_z, e_dim), emb, field)
        split = Tensor._from_flat((e_dim, d_w, *fused.shape[1:]), fused._nz, field)
        labels = [("e", m.edge), ("v", m.target), *coarse.axis_labels(m.target)[1:]]
        tensors[m.target] = transpose_axes(split, [labels.index(lab) for lab in fine.axis_labels(m.target)])
    return TNSInstance(g, tensors)


def supercritical_truncate(g: NetworkGraph) -> tuple[NetworkGraph, int]:
    """Clamp every vertex dimension to its incident edge product.

    Returns the truncated graph and the dimension offset
    sum_j f_j * (v_j - f_j) contributed by the choice of subspaces.
    """
    offset = 0
    new_vertices = []
    for v in g.vertices:
        f = min(v.dim, g.edge_product(v.id))
        offset += f * (v.dim - f)
        new_vertices.append(Vertex(v.id, f))
    return NetworkGraph(tuple(new_vertices), g.edges), offset


def _secant_dim(a: int, b: int, r: int) -> int:
    """Dimension of the a x b matrices of rank at most r: past min(a, b) the rank bound is no bound."""
    r = min(r, a, b)
    return r * (a + b - r)


def cycle_edges(g: NetworkGraph):
    """Edges in cycle order starting at the smallest vertex, or None.

    The walk leaves the start vertex along its first outgoing edge when it
    has one, so on a directed loop it follows the edge directions.
    """
    if len(g.vertices) < 2 or len(g.edges) != len(g.vertices):
        return None
    if any(g.degree(v.id) != 2 for v in g.vertices):
        return None
    vid = start = min(v.id for v in g.vertices)
    e = (g.out_edges(start) or g.incident(start))[0]
    seq = []
    for _ in g.edges:
        seq.append(e)
        vid = e.head if e.tail == vid else e.tail
        e = next(x for x in g.incident(vid) if x.id != e.id)
    if vid != start or len({e.id for e in seq}) != len(g.edges):
        return None
    return seq


def loop_dim_formula(edge_dims) -> int:
    """Dimension of the contracted set over a critical cycle with 3+ edges."""
    e = list(edge_dims)
    n = len(e)
    if n < 3:
        raise SemanticError("the cycle formula needs at least three edges")
    return sum(e[j] ** 2 * e[(j + 1) % n] ** 2 for j in range(n)) - (sum(x * x for x in e) - 1)


def expected_dim(g: NetworkGraph) -> int | None:
    """Closed-form dimension when the reduced graph is a known family.

    Valence-one folds are exact, so they run first.  A single vertex gives
    the full space; two vertices give the bounded-rank (secant) formula
    with rank the product of the connecting edge dimensions; a cycle that
    becomes critical after truncation gives the cycle formula plus the
    truncation offset.  Anything else returns None.
    """
    g1, _ = reduce_valence_one(g)
    if len(g1.vertices) == 1 and not g1.edges:
        return g1.vertices[0].dim
    if len(g1.vertices) == 2 and g1.edges:
        a, b = (v.dim for v in g1.vertices)
        r = prod(e.dim for e in g1.edges)
        return _secant_dim(a, b, r)
    g2, offset = supercritical_truncate(g1)
    seq = cycle_edges(g2)
    if seq is not None and len(seq) >= 3:
        if all(classify_vertex(g2, v.id) == "critical" for v in g2.vertices):
            dims = [e.dim for e in seq]
            return loop_dim_formula(dims) + offset
    return None
