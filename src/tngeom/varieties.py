"""Variety-level queries about contracted network tensors.

Covers bounded-multilinear-rank membership, conciseness, the Jacobian
dimension of a contraction family at a random point, the endomorphism
description of loop families, and the non-closedness certificate built
from a splitting curve.

The Jacobian is read off vertex environments: the environment of a
vertex is every other vertex tensor contracted, with that vertex's edges
left open, and all of them come from one prefix and one suffix sweep
(Pfeifer, Haegeman and Verstraete, arXiv 1304.6112).  Row x of J holds,
in the block of vertex v, the environment of v at the other vertices'
coordinates of x, so each row is built on demand.

Its rank is taken on gauge-fixed columns.  The tangent rows T lie in the
kernel of J: the gauge rows (``gauge_rows``), one per edge and
elementary matrix, tangent to the orbit of the edge gauge group, along
which the contraction is constant; and the witness rows
(``witness_rows``), which move the neighbour of a leaf whose dimension is
below its edge's within the kernel of the leaf's tensor.  On D, the
pivot columns of T mod p, as many rows of T are square and invertible,
so J T^T = 0 makes each column of J in D a combination of the other
columns C, and rank(J) = rank(J|C).  Gauge fixing only saves rows when J
has more rows than columns, so only then is T built first and C taken
off its pivots; otherwise C is every column.  The rank mod p of J|C runs
in the packed kernel (``linalg._packed_eliminate``) on rows fed one at a
time, and it stops once every column of C holds a pivot.  On loops,
supercritical loops and critical chains, and on the trees with
subcritical leaves measured (the leaves that the paper's valence-one
reduction, ``networks.reduce_valence_one``, folds away), J|C has full
column rank, so |C| rows are built.  The rows are J's own, in a seeded
random order, when the environments hold fewer entries than a sketch
has cells, which the graph fixes before anything is built.  Otherwise
they are a sketch: at most min(rows, |C|) + 4 random rank-one
combinations of J's rows, each built from the same sweeps on a network
whose vertex axes are capped by random covectors.  Every sampled rank is
a lower bound on the dimension: rank is lower semicontinuous, a column
submatrix of J or a sketch S J has rank at most that of J, and a rank
mod p is at most the rank over Q.

Over Q each sample rank is exact, by two bounds.  r, the rank mod p of
J|C read mod p, is at most rank_Q(J).  When r is min(rows, columns) it
is the rank.  Otherwise J T^T = 0 is checked exactly over the integers;
a minor of T that is nonzero mod p is nonzero over Q, so then rank_Q(J)
is at most the column count less rank_p(T), and when r is that it is
the rank.  Otherwise, or if the check fails, the sample takes the exact
rank of J (``linalg.rank``, the lifted kernel).
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from itertools import accumulate, islice
from math import prod

from .curves import act_curve, curve_from_splitting, leading_term
from .errors import SemanticError, ShapeError
from .fields import DEFAULT_PRIME, QQ, Field
from .linalg import Matrix, _packed_eliminate, annihilates, kernel_basis, pivot_columns, rank
from .networks import (
    NetworkGraph,
    TNSInstance,
    absorb,
    contract_network,
    cycle_edges,
    random_instance,
    require_vertices,
)
from .stabilizer import stabilizer_dim
from .tensors import Tensor, _strides, apply_end, flatten, mlrank, tensordot, transpose_axes
from .zoo import Splitting, imm_loop, m_tilde_formula, mmult

# samples used by tns_dim to confirm genericity are this far apart
SEED_STRIDE = 1000003
# rows of the sketch beyond min(rows, |C|), C the gauge-fixed columns it is ranked on
SKETCH_SLACK = 4
# Budget on the cells one Jacobian sample builds (``_jacobian_plan``), checked
# before any instance is drawn.  On a 2-core host with Python 3.11, loop
# (2,)^7 over Q (475328 cells: 12992 of the sketch, 3584 of the tangent
# rows, and the 458752 nonzeros of J over Q for the check) peaked at
# 87 MB, about 0.18 KB per cell, and at 100 MB (0.22 KB per cell, 60 s)
# with its gauge rows withheld, so that each sample took the exact rank
# of J, a kernel lifted over ten primes.
MAX_JACOBIAN_CELLS = 10**6


def sub_membership(t: Tensor, bounds) -> bool:
    """True when the tensor fits in a product of subspaces of the given dims."""
    f = tuple(int(x) for x in bounds)
    if len(f) != t.order:
        raise ShapeError(f"expected {t.order} bounds, got {len(f)}")
    if any(not 0 <= fj <= sj for fj, sj in zip(f, t.shape)):
        raise ShapeError(f"bounds {f} exceed shape {t.shape}")
    return all(r <= fj for r, fj in zip(mlrank(t), f))


def is_concise(t: Tensor) -> bool:
    """True when every flattening has full rank, i.e. no factor can shrink."""
    return mlrank(t) == t.shape


def contraction_jacobian(inst: TNSInstance) -> Matrix:
    """Differential of the contraction map at the given instance.

    Rows run over the contracted tensor's coordinates, columns over the
    vertex-tensor coordinates, vertex by vertex.  The contraction is
    linear in each vertex tensor, so the column of coordinate (i, a) of
    vertex v is delta(x_v, i) * E_v[x_others, a], where the environment
    E_v is every other vertex tensor contracted, with v's edges left open.
    """
    g = inst.graph
    nrows = prod(v.dim for v in g.vertices)
    ncols = sum(prod(g.tensor_shape(v.id)) for v in g.vertices)
    blocks = _jacobian_blocks(inst)
    nz = {x * ncols + c: val for x in range(nrows) for c, val in _jacobian_row(blocks, x).items()}
    return Matrix._from_flat((nrows, ncols), nz, inst.field)


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
    own order, so env is not transposed.
    """
    axes = [(size, *steps[lab]) for size, lab in zip(reversed(env.shape), reversed(labels))]
    out: dict[int, list] = {}
    for flat, val in env._nz.items():
        row, col = 0, offset
        for size, rs, cs in axes:
            flat, i = divmod(flat, size)
            row += i * rs
            col += i * cs
        out.setdefault(row, []).append((col, val))
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
    blocks, offset = [], 0
    for vid, dv, (env, labels) in zip(vids, dims, envs):
        size = prod(g.tensor_shape(vid))
        spread = _spread(env, labels, {**row_steps, **_edge_steps(g, vid)}, offset)
        blocks.append((row_steps[("v", vid)][0], dv, size // dv, spread))
        offset += size
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


def _environment_rows(inst: TNSInstance, rng: random.Random):
    """Every row of the Jacobian, in an order shuffled by rng, built one at a time on demand."""
    blocks = _jacobian_blocks(inst)
    order = list(range(prod(v.dim for v in inst.graph.vertices)))
    rng.shuffle(order)
    for x in order:
        yield _jacobian_row(blocks, x)


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
    sizes = [prod(g.tensor_shape(vid)) for vid in vids]
    steps = [_edge_steps(g, vid) for vid in vids]
    while True:
        covecs = [[rng.randrange(prime) for _ in range(v.dim)] for v in g.vertices]
        capped = [(tensordot(Tensor((len(w),), w, f), inst.tensors[vid], [(0, 0)]), labels)
                  for w, vid, labels in zip(covecs, vids, edge_labels)]
        row = {}
        for w, (env, labels), step, size, offset in zip(covecs, _environments(capped), steps, sizes,
                                                        accumulate(sizes, initial=0)):
            asize = size // len(w)
            for col, val in _spread(env, labels, step, offset).get(0, ()):
                for i, wi in enumerate(w):
                    if wi:
                        row[col + i * asize] = val * wi
        yield row


def gauge_rows(inst: TNSInstance) -> Matrix:
    """Tangent vectors of the edge gauge orbit at the instance, in the Jacobian's columns.

    One row per edge e and pair (a, b), edges in graph order: the
    derivative at t = 0 of acting by I + t E_ab on the tail side of e and
    by its inverse transpose on the head side (``gauge_transform``).  On
    the tail block it is x_tail with its e index moved from b to a, on
    the head block -x_head with its e index moved from a to b.  The
    contraction is constant along the orbit, so every row lies in the
    Jacobian's kernel.
    """
    g = inst.graph
    vids = [v.id for v in g.vertices]
    sizes = [prod(g.tensor_shape(vid)) for vid in vids]
    offsets = dict(zip(vids, accumulate(sizes, initial=0)))
    ncols = sum(sizes)
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


def _jacobian_plan(g: NetworkGraph, field: Field) -> tuple[bool, bool, int]:
    """Whether a sample ranks sketch rows, whether it gauge-fixes, and the cells it builds.

    The vertex environments hold prod(vertex dims) / dim v times the edge
    product of v entries for each vertex v; the sketch, at most
    min(rows, columns) + SKETCH_SLACK rows of the column count.  A sample
    reads environment rows when the environments are smaller, and sketch
    rows otherwise.  It gauge-fixes only when J has more rows than
    columns: otherwise it reads every row, or rows + SKETCH_SLACK sketch
    rows, whatever C is.  When it gauge-fixes, the tangent rows T are
    built and eliminated mod p first, and their nonzeros (``_tangent_size``)
    and the pivot rows of their elimination, at most min(rows of T,
    columns) of the column count, are counted.  Over Q the full Jacobian's nonzeros, prod(vertex
    dims) times the sum of the edge products, are counted as well: unless
    r is min(rows, columns), it is built for the check of the tangent rows.
    On a graph that is not gauge-fixed, the T that check builds is not
    counted; it is built only when J lacks full row rank.
    """
    nrows = prod(v.dim for v in g.vertices)
    ncols = sum(prod(g.tensor_shape(v.id)) for v in g.vertices)
    envs = sum(nrows // v.dim * g.edge_product(v.id) for v in g.vertices)
    sketch = (min(nrows, ncols) + SKETCH_SLACK) * ncols
    fixed = nrows > ncols
    cells = min(envs, sketch)
    if fixed:
        trows, tnnz = _tangent_size(g)
        cells += tnnz + min(trows, ncols) * ncols
    if field.prime is None:
        cells += nrows * sum(g.edge_product(v.id) for v in g.vertices)
    return sketch <= envs, fixed, cells


def _subcritical_leaves(g: NetworkGraph):
    """(leaf v, its edge e, its neighbour's id) for each leaf whose dimension is below its edge's, in graph order."""
    for v in g.vertices:
        if g.degree(v.id) == 1 and v.dim < (e := g.incident(v.id)[0]).dim:
            yield v, e, e.head if e.tail == v.id else e.tail


def _tangent_size(g: NetworkGraph) -> tuple[int, int]:
    """Rows and nonzeros of the tangent rows of a generic instance of g, at most.

    Edge e has e^2 gauge rows, each holding an e-th of the tail's and of
    the head's entries.  A subcritical leaf v on e has e - dim v kernel
    vectors, each on an e-th of the neighbour's coordinates, holding at
    most e entries there.
    """
    size = {v.id: prod(g.tensor_shape(v.id)) for v in g.vertices}
    rows = sum(e.dim**2 for e in g.edges)
    nnz = sum(e.dim * (size[e.tail] + size[e.head]) for e in g.edges)
    for v, e, u in _subcritical_leaves(g):
        rows += (e.dim - v.dim) * size[u] // e.dim
        nnz += (e.dim - v.dim) * size[u]
    return rows, nnz


def witness_rows(inst: TNSInstance) -> Matrix:
    """Kernel directions of the leaves, in the Jacobian's columns.

    At a leaf v whose dimension is below its edge e's, the leaf's tensor L
    (dim v x dim e) has an exact right kernel K (``linalg.kernel_basis``).
    Moving the neighbour's tensor along a vector k of K on its e index
    leaves the contraction unchanged: the sum over e pairs k with the rows
    of L.  One row per leaf, k and coordinate of the neighbour's other
    axes, holding k along the e axis; leaves in graph order.  The gauge
    orbit does not hold these moves.  The paper's valence-one reduction
    (``networks.reduce_valence_one``) folds such leaves away.
    """
    g = inst.graph
    sizes = [prod(g.tensor_shape(v.id)) for v in g.vertices]
    offsets = dict(zip((v.id for v in g.vertices), accumulate(sizes, initial=0)))
    ncols = sum(sizes)
    nz = {}
    row = 0
    for v, e, u in _subcritical_leaves(g):
        shape = g.tensor_shape(u)
        stride = prod(shape[g.axis_labels(u).index(("e", e.id)) + 1 :])
        bases = [offsets[u] + b for b in range(prod(shape)) if b // stride % e.dim == 0]
        for k in kernel_basis(flatten(inst.tensors[v.id], 0)):
            for base in bases:
                for i, ki in enumerate(k):
                    if ki:
                        nz[row * ncols + base + i * stride] = ki
                row += 1
    return Matrix._from_flat((row, ncols), nz, inst.field)


def _tangent_rows(inst: TNSInstance) -> Matrix:
    """T: the gauge rows, then the witness rows, in the Jacobian's columns."""
    gauge, witness = gauge_rows(inst), witness_rows(inst)
    shift = gauge.rows * gauge.cols
    return Matrix._from_flat((gauge.rows + witness.rows, gauge.cols),
                             {**gauge._nz, **{k + shift: v for k, v in witness._nz.items()}}, inst.field)


def _jacobian_rank(g: NetworkGraph, seed: int, field: Field) -> int:
    """Rank of the Jacobian at the seeded instance (see the module docstring).

    r is the rank mod p of J restricted to C, on the rows
    ``_jacobian_plan`` picks: environment rows in a seeded random order, or
    at most min(rows, |C|) + SKETCH_SLACK sketch rows.  C is the set of
    columns that are not pivots of the tangent rows T (the gauge and
    witness rows) mod p when J has more rows than columns, and every
    column otherwise.  The rows are built one at a time as the packed
    kernel asks for them, and it stops once every column of C holds a
    pivot.  Over Fp r is the result.  Over Q the rows are J's, read mod
    DEFAULT_PRIME, and r is returned when it is min(rows, columns), or
    when r plus the rank mod p of T is the column count and J T^T = 0
    holds over the integers; otherwise the exact rank of J is.
    """
    sketched, fixed, _ = _jacobian_plan(g, field)
    exact = field.prime is None
    inst = random_instance(g, seed, field)
    prime = DEFAULT_PRIME if exact else field.prime
    # J's rows are built on integers and reduced as they are read.  Over Fp the instance is the
    # reduction of the one drawn over Q, and the rows are built from the Q one: its contractions
    # store their ints as they are, where the Fp instance's reduce mod p at every stored tensor.
    # Rows from the Fp instance took tns_dim of loop (2,)^5 over Fp from 58 to 63 ms (medians;
    # 2-core host, Python 3.11).
    ints = inst if exact else random_instance(g, seed, QQ)
    nrows = prod(v.dim for v in g.vertices)
    ncols = sum(prod(g.tensor_shape(v.id)) for v in g.vertices)
    tangent = _tangent_rows(inst) if fixed else None
    fixed_cols = pivot_columns(tangent) if fixed else set()
    kept = [c for c in range(ncols) if c not in fixed_cols]
    if sketched:
        # a stream of its own: covectors drawn from the instance's stream would correlate with its entries
        stream = islice(_sketch_rows(ints, prime, random.Random(f"jacobian-sketch:{seed}")),
                        min(nrows, len(kept)) + SKETCH_SLACK)
    else:
        stream = _environment_rows(ints, random.Random(f"jacobian-rows:{seed}"))
    keep = set(kept)
    rows = ({c: v % prime for c, v in row.items() if c in keep} for row in stream)
    r = _packed_eliminate(rows, kept, prime, None) if kept else 0
    del rows, stream  # the environments they hold are freed before J is built
    if not exact or r == min(nrows, ncols):  # min(rows, columns) bounds the rank over Q
        return r
    jac = contraction_jacobian(inst)
    if not fixed:
        tangent = _tangent_rows(inst)
        fixed_cols = pivot_columns(tangent)
    if r + len(fixed_cols) == ncols and annihilates(jac, tangent):
        return r
    return rank(jac)


def check_jacobian_size(g: NetworkGraph, field: Field) -> None:
    """Refuse a graph whose Jacobian samples would build more than MAX_JACOBIAN_CELLS cells."""
    cells = _jacobian_plan(g, field)[2]
    if cells > MAX_JACOBIAN_CELLS:
        raise SemanticError(
            f"the Jacobian of this graph would hold {cells} cells, over the budget of {MAX_JACOBIAN_CELLS}"
        )


def tns_dim(g: NetworkGraph, seed: int = 0, field: Field = QQ) -> int:
    """Dimension of the cone of contracted tensors, as a Jacobian rank.

    The rank is taken at two random instances and the larger one is
    returned.  Rank is lower semicontinuous, so no sample exceeds the
    generic rank and the maximum is the better lower bound of the two.
    A column submatrix of J or a row sketch S J has rank at most that of
    J, and a rank mod p at most the rank over Q, so over Fp the result is
    a lower bound as well.
    Over Q each sample rank is exact.  A graph over the size budget is
    refused before any instance is drawn (``check_jacobian_size``).
    """
    require_vertices(g)
    check_jacobian_size(g, field)
    r0 = _jacobian_rank(g, seed, field)
    r1 = _jacobian_rank(g, seed + SEED_STRIDE, field)
    return max(r0, r1)


def _cycle_walk(g: NetworkGraph) -> list[int]:
    for v in g.vertices:
        if len(g.in_edges(v.id)) != 1 or len(g.out_edges(v.id)) != 1:
            raise SemanticError("needs a directed loop: one edge in, one out per vertex")
    seq = cycle_edges(g)
    if seq is None:
        raise SemanticError("graph is not a single directed loop")
    return [e.tail for e in seq]


def loop_endomorphisms(inst: TNSInstance) -> tuple[list[int], list[Matrix]]:
    """Read one endomorphism per vertex off a critical directed-loop instance.

    Each vertex tensor, with its edge pair fused row-major, is a square
    matrix from the fused edge space to the vertex space.  Returns the
    cycle walk (vertex ids) and the matrices in walk order.
    """
    g = inst.graph
    walk = _cycle_walk(g)
    maps = []
    for u in walk:
        a = g.in_edges(u)[0].dim
        b = g.out_edges(u)[0].dim
        vdim = g.vertex(u).dim
        if vdim != a * b:
            raise SemanticError(f"vertex {u} is not critical: {vdim} != {a}*{b}")
        maps.append(flatten(inst.tensors[u], 0))
    return walk, maps


def end_orbit_consistency(inst: TNSInstance) -> bool:
    """Check that a critical loop contraction is the endomorphism-translated
    cyclic trace tensor read off the vertex tensors themselves."""
    g = inst.graph
    walk, maps = loop_endomorphisms(inst)
    dims = [g.out_edges(u)[0].dim for u in walk]
    acted = apply_end(imm_loop(dims, inst.field), maps)
    pos = {u: k for k, u in enumerate(walk)}
    acted = transpose_axes(acted, [pos[v.id] for v in g.vertices])
    return acted == contract_network(inst)


@dataclass(frozen=True)
class Certificate:
    """Computed evidence that a curve limit leaves the contraction family.

    conclusion is "not_closed_certified" exactly when the limit tensor is
    concise (so it avoids every degenerate-factor boundary), its symmetry
    algebra is strictly larger than that of the cyclic trace tensor (so it
    sits outside the dense orbit), and the curve's power-0 term vanished
    (so the limit is reached from inside the family).
    """

    e: int
    stab_mmult: int
    stab_mtilde: int
    mlrank_mtilde: tuple[int, ...]
    leading_power: int
    leading_matches_formula: bool
    conclusion: str
    reason: str | None = None

    @property
    def certified(self) -> bool:
        return self.conclusion == "not_closed_certified"


def certify_not_closed(s: Splitting, e: int) -> Certificate:
    """Run the splitting-curve pipeline on the square trace tensor and
    bundle the facts that witness non-closedness."""
    if e < 2:
        raise SemanticError("need edge dimension at least 2")
    f = s.field
    n = e * e
    for p in s.projectors():
        if p.rows != n:
            raise ShapeError(f"projector size {p.rows} does not match e^2 = {n}")
    m = mmult(e, e, e, f)
    expansion = act_curve(m, curve_from_splitting(s))
    if expansion.is_zero():
        return Certificate(
            e=e,
            stab_mmult=stabilizer_dim(m),
            stab_mtilde=0,
            mlrank_mtilde=(0, 0, 0),
            leading_power=0,
            leading_matches_formula=False,
            conclusion="inconclusive",
            reason="curve degenerates to zero",
        )
    power, limit = leading_term(expansion)
    stab_m = stabilizer_dim(m)
    stab_limit = stabilizer_dim(limit)
    ml = mlrank(limit)
    concise = ml == limit.shape
    matches = limit == m_tilde_formula(e, f)
    reasons = []
    if power < 1:
        reasons.append("power-0 term nonzero")
    if not concise:
        reasons.append("limit is not concise")
    if stab_limit <= stab_m:
        reasons.append("no stabilizer excess")
    certified = not reasons
    return Certificate(
        e=e,
        stab_mmult=stab_m,
        stab_mtilde=stab_limit,
        mlrank_mtilde=ml,
        leading_power=power,
        leading_matches_formula=matches,
        conclusion="not_closed_certified" if certified else "inconclusive",
        reason=None if certified else "; ".join(reasons),
    )
