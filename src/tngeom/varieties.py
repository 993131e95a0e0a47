"""Variety-level queries about contracted network tensors.

Covers bounded-multilinear-rank membership, conciseness, the Jacobian
dimension of a contraction family at a random point, the endomorphism
description of loop families, and the non-closedness certificate built
from a splitting curve.

The Jacobian is read off vertex environments: the environment of a
vertex is every other vertex tensor contracted, with that vertex's edges
left open, and all of them come from one prefix and one suffix sweep
(Pfeifer, Haegeman and Verstraete, arXiv 1304.6112).  The rank mod p may
instead be taken on a sketch: min(rows, columns) + 4 random rank-one
combinations of the Jacobian's rows, each built from the same sweeps on a
network whose vertex axes are capped by random covectors.  The sketch is
used when its dense cell count is below the Jacobian's nonzero count,
which the graph fixes before anything is built.  Every rank mod p runs in
the packed dense kernel ``linalg.rank_mod_p``.  Every sampled rank is a
lower bound on the dimension: rank is lower semicontinuous, a sketch S J
has rank at most that of J, and a rank mod p is at most the rank over Q.

Over Q each sample rank is exact, by two bounds.  r, the rank mod p of
the instance's reduction mod p (sketch or full J), is at most rank_Q(J).
When r is min(rows, columns) it is the rank.  Otherwise the kernel of J
over Q is bounded from below by known tangent rows T: the gauge rows
(``gauge_rows``), one per edge and elementary matrix, tangent to the orbit
of the edge gauge group, along which the contraction is constant; and the
witness rows (``witness_rows``), which move the neighbour of a leaf whose
dimension is below its edge's within the kernel of the leaf's tensor.
J T^T = 0 is checked exactly over the integers, so the nullity of J over
Q is at least the rank of T mod p, and when r plus that rank is the
column count, rank_Q(J) = r.  On loops, supercritical loops and critical
chains the gauge rows close the bounds; with the witness rows they close
on the chains and trees with subcritical leaves measured, the leaves that
the paper's valence-one reduction (``networks.reduce_valence_one``) folds
away.  Otherwise the sample takes the exact rank of J (``linalg.rank``,
the lifted kernel).
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from itertools import accumulate
from math import prod

from .curves import act_curve, curve_from_splitting, leading_term
from .errors import SemanticError, ShapeError
from .fields import DEFAULT_PRIME, QQ, Field, PrimeField
from .linalg import Matrix, annihilates, kernel_basis, rank, rank_mod_p
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
from .tensors import Tensor, apply_end, flatten, mlrank, tensordot, transpose_axes
from .zoo import Splitting, imm_loop, m_tilde_formula, mmult

# samples used by tns_dim to confirm genericity are this far apart
SEED_STRIDE = 1000003
# rows of the sketch beyond min(rows, columns) of the Jacobian it stands for
SKETCH_SLACK = 4
# Budget on the cells one Jacobian sample builds (``_jacobian_plan``), checked
# before any instance is drawn.  On a 2-core host with Python 3.11, loop
# (2,)^7 over Q (471744 cells) peaked at 84 MB, about 0.18 KB per cell, and
# at 100 MB (0.22 KB per cell, 60 s) with its gauge rows withheld, so that
# each sample took the exact rank of J, a kernel lifted over ten primes.
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
    vids = [v.id for v in g.vertices]
    dims = [v.dim for v in g.vertices]
    sizes = [prod(g.tensor_shape(vid)) for vid in vids]
    ncols = sum(sizes)
    envs = _environments([(inst.tensors[vid], g.axis_labels(vid)) for vid in vids])
    nz = {}
    offset = 0
    for k, (vid, dv, (env, labels)) in enumerate(zip(vids, dims, envs)):
        after = prod(dims[k + 1 :])
        asize = sizes[k] // dv
        env = _aligned(env, labels, [("v", u) for u in vids if u != vid] + g.axis_labels(vid)[1:])
        for flat, val in env._nz.items():
            rest, a = divmod(flat, asize)
            before, xa = divmod(rest, after)
            row = before * dv * after + xa
            for i in range(dv):
                nz[(row + i * after) * ncols + offset + i * asize + a] = val
        offset += sizes[k]
    return Matrix._from_flat((prod(dims), ncols), nz, inst.field)


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


def _aligned(t: Tensor, labels, order) -> Tensor:
    return transpose_axes(t, [labels.index(lab) for lab in order])


def _jacobian_sketch(inst: TNSInstance, nrows: int, rng: random.Random) -> Matrix:
    """nrows random rank-one combinations of the Jacobian's rows, over Fp.

    Row k is the gradient of <w_k1 (x) ... (x) w_kn, T(x)> for random
    covectors w_kv on the vertex spaces.  Capping every vertex axis with
    its covector leaves a network on the edges alone, and the block of
    vertex v is w_kv (x) env_v, where env_v is that capped network with v
    left out.
    """
    g, f = inst.graph, inst.field
    vids = [v.id for v in g.vertices]
    edge_labels = [g.axis_labels(vid)[1:] for vid in vids]
    sizes = [prod(g.tensor_shape(vid)) for vid in vids]
    ncols = sum(sizes)
    nz = {}
    for k in range(nrows):
        covecs = [[rng.randrange(f.prime) for _ in range(v.dim)] for v in g.vertices]
        capped = [(tensordot(Tensor((len(w),), w, f), inst.tensors[vid], [(0, 0)]), labels)
                  for w, vid, labels in zip(covecs, vids, edge_labels)]
        col = k * ncols
        for w, (env, labels), order, size in zip(covecs, _environments(capped), edge_labels, sizes):
            asize = size // len(w)
            for a, val in _aligned(env, labels, order)._nz.items():
                for i, wi in enumerate(w):
                    if wi:
                        nz[col + i * asize + a] = val * wi
            col += size
    return Matrix._from_flat((nrows, ncols), nz, f)


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


def _jacobian_plan(g: NetworkGraph, field: Field) -> tuple[int, bool, int]:
    """Rows of the sketch, whether it is used, and the cells a sample builds.

    The sketch is used when its dense cell count is below the Jacobian's
    nonzero count, prod(vertex dims) times the sum over vertices of their
    edge products.  Over Q the full Jacobian is counted as well: unless the
    sketch has full rank, it is built for the check of the tangent rows.
    """
    nrows = prod(v.dim for v in g.vertices)
    ncols = sum(prod(g.tensor_shape(v.id)) for v in g.vertices)
    sketch_rows = min(nrows, ncols) + SKETCH_SLACK
    nnz = nrows * sum(g.edge_product(v.id) for v in g.vertices)
    sketched = sketch_rows * ncols < nnz
    if not sketched:
        return sketch_rows, False, nnz
    return sketch_rows, True, sketch_rows * ncols + (nnz if field.prime is None else 0)


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
    for v in g.vertices:
        if g.degree(v.id) != 1 or v.dim >= (e := g.incident(v.id)[0]).dim:
            continue
        u = e.head if e.tail == v.id else e.tail
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


def _jacobian_rank(g: NetworkGraph, seed: int, field: Field) -> int:
    """Rank of the Jacobian at the seeded instance (see the module docstring).

    r is the rank mod p of the sketch or of the full Jacobian, per
    ``_jacobian_plan``, which over Fp is the result.  Over Q it is taken
    on the instance's reduction mod DEFAULT_PRIME (the same draws), and it
    is returned when it is min(rows, columns), or when r plus the rank mod
    p of the gauge and witness rows T is the column count and J T^T = 0
    holds over the integers; otherwise the exact rank of J is.
    """
    sketch_rows, sketched, _ = _jacobian_plan(g, field)
    exact = field.prime is None
    inst = random_instance(g, seed, field)
    jac = None
    if sketched:
        modp = random_instance(g, seed, PrimeField(DEFAULT_PRIME)) if exact else inst
        # a stream of its own: covectors drawn from the instance's stream would correlate with its entries
        r = rank_mod_p(_jacobian_sketch(modp, sketch_rows, random.Random(f"jacobian-sketch:{seed}")))
    else:
        jac = contraction_jacobian(inst)
        r = rank_mod_p(jac)
    if not exact or r == sketch_rows - SKETCH_SLACK:  # min(rows, columns) bounds the rank over Q
        return r
    if jac is None:
        jac = contraction_jacobian(inst)
    gauge, witness = gauge_rows(inst), witness_rows(inst)
    shift = gauge.rows * gauge.cols
    tangent = Matrix._from_flat((gauge.rows + witness.rows, gauge.cols),
                                {**gauge._nz, **{k + shift: v for k, v in witness._nz.items()}}, field)
    if r + rank_mod_p(tangent) == jac.cols and annihilates(jac, tangent):
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
    A row sketch S J has rank at most that of J, and a rank mod p at most
    the rank over Q, so over Fp the result is a lower bound as well.
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
