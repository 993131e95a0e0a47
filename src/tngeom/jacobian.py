"""The dimension of a network set, as the generic rank of the contraction map's Jacobian.

The Jacobian is read off vertex environments: the environment of a
vertex is every other vertex tensor contracted, with that vertex's edges
left open, and all of them come from one prefix and one suffix sweep
(Pfeifer, Haegeman and Verstraete, arXiv 1304.6112).  Row x of J holds,
in the block of vertex v, the environment of v at the other vertices'
coordinates of x, so each row is built on demand.

The graph is folded first: ``tns_dim`` ranks the Jacobian of the graph
that the paper's valence-one reduction (``networks.reduce_valence_one``)
leaves, which has the same network set (see ``tns_dim``).  Every leaf
left is larger than its edge.

A sample is one integer instance, read mod p, where p is the field's
prime, or DEFAULT_PRIME over Q; the two fields differ in p alone.  Its
rank is taken on gauge-fixed columns.  The tangent rows T, the gauge
rows (``gauge_rows``), one per edge and elementary matrix, are tangent
to the orbit of the edge gauge group, along which the contraction is
constant, so they lie in the kernel of J: J T^T = 0 is the derivative of
a map that is constant on the orbits, an identity in the instance.  On
D, the pivot columns of T mod p, as many rows of T are square and
invertible mod p, and so over Q, since a minor that is nonzero mod p is
nonzero; so each column of J in D is a combination of the other columns
C, and rank(J) = rank(J|C).  Gauge fixing only saves rows when J has
more rows than columns, so only then is T built first and C taken off
its pivots; otherwise C is every column.  The rank mod p of J|C runs in
the packed kernel (``linalg._packed_eliminate``) on rows fed one at a
time, and it stops once every column of C holds a pivot.  On loops,
supercritical loops, critical chains and folded trees, J|C has full
column rank, so |C| rows are built.  J is never built as a matrix.  The
rows are J's own, built from one sweep of environments in a seeded
random order, when the environments hold fewer entries than a sketch
has cells; the graph fixes which before anything is built.  Otherwise
they are a sketch: at most min(rows, |C|) + 4 random rank-one
combinations of J's rows, each built from the same sweeps on a network
whose vertex axes are capped by random covectors.

Each sample gives two bounds on the generic rank of J, the dimension.

- Lower: r, the rank mod p of J|C at the sample.  r <= rank_Q(J|C) <=
  rank_Q(J) at the sample, which is at most the generic rank: a rank mod
  p is at most the rank over Q, a column submatrix has rank at most that
  of J, and rank is lower semicontinuous.  A sketch row is an integer
  combination of J's rows, so the chain holds for a sketch S J as well.
- Upper: min(rows, |C|), the gauge count of Bernardi, De Lazzari and
  Gesmundo (arXiv 2101.03148) read at the sample.  At a generic point x,
  J(x) T(x)^T = 0, so the generic rank of J is at most cols - rank T(x)
  there, and by lower semicontinuity of the rank of T that is at most
  cols - rank_Q T(s) <= cols - rank_p T(s) = |C| at the sample s.  This
  holds at every sample: the gauge rows are polynomial in the instance.

Where the two meet, the generic dimension over Q (and C) is proved, over
either field, and ``tns_dim`` stops after one sample.
"""

from __future__ import annotations

import random
from itertools import accumulate, islice
from math import prod

from .errors import check_peak
from .fields import DEFAULT_PRIME, QQ, Field
from .linalg import Matrix, _packed_eliminate, _pivot_bytes, pivot_columns
from .networks import NetworkGraph, TNSInstance, absorb, random_instance, reduce_valence_one, require_vertices
from .tensors import Tensor, _offsets, _strides, tensordot

# samples used by tns_dim to confirm genericity are this far apart
SEED_STRIDE = 1000003
# rows of the sketch beyond min(rows, |C|), C the gauge-fixed columns it is ranked on
SKETCH_SLACK = 4


def contraction_jacobian(inst: TNSInstance) -> Matrix:
    """Differential of the contraction map at the given instance.

    Rows run over the contracted tensor's coordinates, columns over the
    vertex-tensor coordinates, vertex by vertex.  The contraction is
    linear in each vertex tensor, so the column of coordinate (i, a) of
    vertex v is delta(x_v, i) * E_v[x_others, a], where the environment
    E_v is every other vertex tensor contracted, with v's edges left open.
    """
    nrows, _, ncols = _layout(inst.graph)
    blocks = _jacobian_blocks(inst)
    nz = {x * ncols + c: val for x in range(nrows) for c, val in _jacobian_row(blocks, x).items()}
    return Matrix._from_flat((nrows, ncols), nz, inst.field)


def _layout(g: NetworkGraph) -> tuple[int, dict[int, int], int]:
    """The Jacobian's row count, the first column of each vertex's block, and its column count.

    Rows run over the contracted tensor's coordinates, prod(vertex dims)
    of them; columns over the vertex tensors' coordinates, one block per
    vertex in graph order.
    """
    sizes = [prod(g.tensor_shape(v.id)) for v in g.vertices]
    offsets = dict(zip((v.id for v in g.vertices), accumulate(sizes, initial=0)))
    return prod(v.dim for v in g.vertices), offsets, sum(sizes)


def _environments(pieces) -> list[tuple[Tensor, list]]:
    """Environment of each (tensor, axis labels) piece: all the other
    pieces contracted over the labels they share.

    One prefix sweep and one suffix sweep over the pieces, then one
    contraction per piece joins the prefix before it to the suffix after
    it, as in the forward and backward pass of backpropagation
    (Pfeifer, Haegeman and Verstraete, arXiv 1304.6112).
    """
    f = pieces[0][0].field
    unit = (Tensor._from_flat((), {0: f.one}, f), [])
    prefix = [unit]
    for t, labels in pieces[:-1]:
        prefix.append(absorb(*prefix[-1], t, labels))
    suffix = [unit]
    for t, labels in reversed(pieces[1:]):
        suffix.append(absorb(t, labels, *suffix[-1]))
    return [absorb(*a, *b) for a, b in zip(prefix, reversed(suffix))]


def _spread(env: Tensor, labels, steps: dict, offset: int) -> dict[int, list]:
    """The nonzeros of env by the Jacobian row and column they land on: {row: [(column, value)]}.

    Index i on the axis labelled lab adds i * steps[lab] = i * (row step,
    column step) to row 0 and column offset.  The axes are read in env's
    own order, so env is not transposed: one decoder (``tensors._offsets``)
    reads row * width + column, width being one more than the largest
    column an index of env reaches.
    """
    axes = [steps[lab] for lab in labels]
    width = 1 + sum((n - 1) * cs for n, (_, cs) in zip(env.shape, axes))
    decode = _offsets(env.shape, len(env._nz), [rs * width + cs for rs, cs in axes])
    out: dict[int, list] = {}
    for flat, val in env._nz.items():
        row, col = divmod(decode(flat), width)
        out.setdefault(row, []).append((col + offset, val))
    return out


def _edge_steps(g: NetworkGraph, vid: int) -> dict:
    """Column step of each edge axis of v in v's block: its stride within v's tensor."""
    shape = g.tensor_shape(vid)
    return {lab: (0, s) for lab, s in zip(g.axis_labels(vid)[1:], _strides(shape[1:]))}


def _jacobian_blocks(inst: TNSInstance) -> list[tuple[int, int, int, dict]]:
    """The Jacobian's column blocks, one per vertex v, read off one sweep of environments.

    A block is (row stride of x_v, dim v, size of v's edge axes, spread):
    the spread (``_spread``) places each entry of E_v at the row it lands
    on with x_v = 0 and the column it lands on with i = 0.
    """
    g = inst.graph
    vids = [v.id for v in g.vertices]
    dims = [v.dim for v in g.vertices]
    row_steps = {("v", vid): (s, 0) for vid, s in zip(vids, _strides(tuple(dims)))}
    envs = _environments([(inst.tensors[vid], g.axis_labels(vid)) for vid in vids])
    offsets = _layout(g)[1]
    blocks = []
    for vid, dv, (env, labels) in zip(vids, dims, envs):
        spread = _spread(env, labels, {**row_steps, **_edge_steps(g, vid)}, offsets[vid])
        blocks.append((row_steps[("v", vid)][0], dv, g.edge_product(vid), spread))
    return blocks


def _jacobian_row(blocks, x: int) -> dict:
    """Row x of the Jacobian as {column: nonzero value}: block v's entries at x_v's offset."""
    row = {}
    for stride, dv, asize, spread in blocks:
        xv = x // stride % dv
        shift = xv * asize
        for col, val in spread.get(x - xv * stride, ()):
            row[col + shift] = val
    return row


def _sketch_rows(inst: TNSInstance, prime: int, rng: random.Random):
    """Random rank-one combinations of the Jacobian's rows, drawn one at a time without end.

    Row k is the gradient of <w_k1 (x) ... (x) w_kn, T(x)> for random
    covectors w_kv on the vertex spaces, with entries in [0, prime), drawn
    vertex by vertex; read mod prime, it is a sketch of J over Fp.  Capping
    every vertex axis with its covector leaves a network on the edges
    alone, and the block of vertex v is w_kv (x) env_v, where env_v is that
    capped network with v left out.
    """
    g, f = inst.graph, inst.field
    vids = [v.id for v in g.vertices]
    edge_labels = [g.axis_labels(vid)[1:] for vid in vids]
    offsets = _layout(g)[1]
    # each block: its first column, the size of v's edge axes, and their column steps
    blocks = [(offsets[vid], g.edge_product(vid), _edge_steps(g, vid)) for vid in vids]
    while True:
        covecs = [[rng.randrange(prime) for _ in range(v.dim)] for v in g.vertices]
        capped = [(tensordot(Tensor((len(w),), w, f), inst.tensors[vid], [(0, 0)]), labels)
                  for w, vid, labels in zip(covecs, vids, edge_labels)]
        row = {}
        for w, (env, labels), (offset, asize, step) in zip(covecs, _environments(capped), blocks):
            for col, val in _spread(env, labels, step, offset).get(0, ()):
                for i, wi in enumerate(w):
                    if wi:
                        row[col + i * asize] = val * wi
        yield row


def gauge_rows(inst: TNSInstance) -> Matrix:
    """Tangent vectors of the edge gauge orbit at the instance, in the Jacobian's columns.

    One row per edge e and pair (a, b), edges in graph order: the
    derivative at t = 0 of acting by I + t E_ab on the tail side of e and
    by its inverse transpose on the head side.  On the tail block it is
    x_tail with its e index moved from b to a, on the head block -x_head
    with its e index moved from a to b.  The contraction is constant along
    the orbit, so every row lies in the Jacobian's kernel.
    """
    g = inst.graph
    _, offsets, ncols = _layout(g)
    nz = {}
    row = 0
    for e in g.edges:
        sides = []
        for vid in (e.tail, e.head):
            stride = prod(g.tensor_shape(vid)[g.axis_labels(vid).index(("e", e.id)) + 1 :])
            # entries by their index on e, each at its column with that index set to 0
            slices = [[] for _ in range(e.dim)]
            for flat, val in inst.tensors[vid]._nz.items():
                i = flat // stride % e.dim
                slices[i].append((offsets[vid] + flat - i * stride, -val if vid == e.head else val))
            sides.append((stride, slices))
        (ts, tail), (hs, head) = sides
        for a in range(e.dim):
            for b in range(e.dim):
                for col, val in tail[b]:
                    nz[row * ncols + col + a * ts] = val
                for col, val in head[a]:
                    nz[row * ncols + col + b * hs] = val
                row += 1
    return Matrix._from_flat((row, ncols), nz, inst.field)


def _jacobian_plan(g: NetworkGraph) -> tuple[bool, bool, int]:
    """Whether a sample ranks sketch rows, whether it gauge-fixes, and the cells it builds.

    The vertex environments hold prod(vertex dims) / dim v times the edge
    product of v entries for each vertex v; the sketch, at most
    min(rows, columns) + SKETCH_SLACK rows of the column count.  A sample
    reads environment rows when the environments are smaller, and sketch
    rows otherwise, over either field.  It gauge-fixes only when J has
    more rows than columns: otherwise it reads every row, or rows +
    SKETCH_SLACK sketch rows, whatever C is.  When it gauge-fixes, the
    tangent rows T are built and eliminated mod p first, and their
    nonzeros (``_tangent_size``) and the pivot rows of their elimination,
    at most min(rows of T, columns) of the column count, are counted.
    """
    nrows, _, ncols = _layout(g)
    envs = sum(nrows // v.dim * g.edge_product(v.id) for v in g.vertices)
    sketch = (min(nrows, ncols) + SKETCH_SLACK) * ncols
    fixed = nrows > ncols
    cells = min(sketch, envs)
    if fixed:
        trows, tnnz = _tangent_size(g)
        cells += tnnz + min(trows, ncols) * ncols
    return sketch <= envs, fixed, cells


def _tangent_size(g: NetworkGraph) -> tuple[int, int]:
    """Rows and nonzeros of the gauge rows of a generic instance of g, at most.

    Edge e has e^2 gauge rows, each holding an e-th of the tail's and of
    the head's entries.
    """
    size = {v.id: prod(g.tensor_shape(v.id)) for v in g.vertices}
    return sum(e.dim**2 for e in g.edges), sum(e.dim * (size[e.tail] + size[e.head]) for e in g.edges)


def _jacobian_rank(g: NetworkGraph, seed: int, field: Field) -> tuple[int, int]:
    """Lower and upper bounds on the Jacobian's generic rank from the seeded instance (see the module docstring).

    p is the field's prime, or DEFAULT_PRIME over Q.  r is the rank mod p
    of J restricted to C, on the rows ``_jacobian_plan`` picks:
    environment rows in a seeded random order, or at most min(rows, |C|)
    + SKETCH_SLACK sketch rows.  C is the set of columns that are not
    pivots of the gauge rows T mod p when J has more rows than columns,
    and every column otherwise.  The rows are built one at a time as the
    packed kernel asks for them, and it stops once every column of C holds
    a pivot.  The bounds are r and min(rows, |C|), over either field.
    """
    sketched, fixed, _ = _jacobian_plan(g)
    prime = field.prime or DEFAULT_PRIME
    # J's and T's rows are built on integers and reduced mod p as they are read
    inst = random_instance(g, seed, QQ)
    nrows, _, ncols = _layout(g)
    fixed_cols = pivot_columns(gauge_rows(inst), prime) if fixed else set()
    kept = [c for c in range(ncols) if c not in fixed_cols]
    if sketched:
        # a stream of its own: covectors drawn from the instance's stream would correlate with its entries
        stream = islice(_sketch_rows(inst, prime, random.Random(f"jacobian-sketch:{seed}")),
                        min(nrows, len(kept)) + SKETCH_SLACK)
    else:
        blocks = _jacobian_blocks(inst)
        order = list(range(nrows))
        random.Random(f"jacobian-rows:{seed}").shuffle(order)
        stream = (_jacobian_row(blocks, x) for x in order)
    keep = set(kept)
    rows = ({c: v % prime for c, v in row.items() if c in keep} for row in stream)
    r = len(_packed_eliminate(rows, kept, prime)[1]) if kept else 0
    return r, min(nrows, len(kept))


def _jacobian_bytes(g: NetworkGraph, prime: int) -> int:
    """Bytes that a Jacobian sample of g holds at its peak, mod prime.

    The cells ``_jacobian_plan`` counts, about 100 B each, and the pivot rows
    of the packed elimination of J|C (``linalg._pivot_bytes``), |C| at most
    the column count.  Peak RSS past `import tngeom.cli` on a 2-core host with
    Python 3.11, in MB of 2**20 bytes: `dim` on loop (3,)^4, 39852 cells and
    pivot rows of 0.9 MB, grew by 6.5 MB, so its cells took about 90 B each;
    on loop (4, 5) with vertices (40, 40), 1600 cells and up to 1600 pivot
    rows of 1600 slots of 10 B, by 20.7 MB.
    """
    nrows, _, ncols = _layout(g)
    return 100 * _jacobian_plan(g)[2] + _pivot_bytes(nrows, ncols, prime)


def tns_dim(g: NetworkGraph, seed: int = 0, field: Field = QQ) -> tuple[int, int]:
    """Lower and upper bounds on the dimension of the cone of contracted tensors, a Jacobian's generic rank.

    The graph is folded first (``networks.reduce_valence_one``), and every
    sample is drawn on the folded graph.  The fold is exact.  Let a leaf v
    fit inside its edge e, dim v <= dim e, and let u' be its neighbour u
    fused with v, on V_v (x) V_u (x) the rest of u's edges.  Every tensor
    of u' is built by the unfolded network: take x_v = [I | 0], the
    embedding of V_v into the first dim v coordinates of e, and put the
    fused tensor's slices at those coordinates of x_u.  Conversely,
    contracting x_v with x_u over e gives a tensor of u'.  So the two
    network sets are equal, and so are their dimensions, over Q and over
    any field.  Folding keeps the rows, the product of the vertex
    dimensions, and removes columns.  The peak is predicted on the folded
    graph, the one sampled.  A graph that folds to one vertex v and no edge
    has all of V_v as its network set, so its dimension is dim v, returned
    as both bounds with no sample.

    A sample gives both bounds (``_jacobian_rank``, and the argument in the
    module docstring); the field picks only the prime it is read mod.
    Where they meet, the dimension is proved and that
    one sample is returned.  Otherwise a second random instance is drawn,
    and the larger lower and the smaller upper bound of the two are
    returned.  A graph whose predicted peak (``_jacobian_bytes``) is over the
    budget is refused before any instance is drawn.
    """
    require_vertices(g)
    g = reduce_valence_one(g)[0]
    if not g.edges and len(g.vertices) == 1:  # the network set of a lone vertex v is all of V_v
        return g.vertices[0].dim, g.vertices[0].dim
    check_peak(_jacobian_bytes(g, field.prime or DEFAULT_PRIME), "sampling this graph's Jacobian")
    lower, upper = _jacobian_rank(g, seed, field)
    if lower < upper:
        r, u = _jacobian_rank(g, seed + SEED_STRIDE, field)
        lower, upper = max(lower, r), min(upper, u)
    return lower, upper
