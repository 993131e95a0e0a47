"""Variety-level queries about contracted network tensors.

Covers bounded-multilinear-rank membership, conciseness, the Jacobian
dimension of a contraction family at a random point, the endomorphism
description of loop families, and the non-closedness certificate built
from a splitting curve.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import prod

from .curves import act_curve, curve_from_splitting, leading_term
from .errors import SemanticError, ShapeError
from .fields import QQ, Field
from .linalg import Matrix, rank
from .networks import NetworkGraph, TNSInstance, contract_network, random_instance
from .stabilizer import stabilizer_dim
from .tensors import Tensor, apply_end, flatten, mlrank, transpose_axes
from .zoo import Splitting, imm_loop, m_tilde_formula, mmult

# samples used by tns_dim to confirm genericity are this far apart
SEED_STRIDE = 1000003


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

    One column per vertex-tensor coordinate: by multilinearity, the
    partial derivative in coordinate b of slot j is the contraction with
    T_j replaced by the b-th basis tensor.  Rows run over the contracted
    tensor's coordinates.
    """
    g = inst.graph
    shapes = [g.tensor_shape(v.id) for v in g.vertices]
    nrows = prod(v.dim for v in g.vertices)
    ncols = sum(prod(s) for s in shapes)
    return Matrix.from_nonzeros(nrows, ncols, _jacobian_entries(inst, shapes), inst.field)


def _jacobian_entries(inst: TNSInstance, shapes):
    """((row, column), value) for the nonzeros of the Jacobian, column by column."""
    g = inst.graph
    f = inst.field
    col = 0
    for v, shape in zip(g.vertices, shapes):
        size = prod(shape)
        for b in range(size):
            tensors = dict(inst.tensors)
            tensors[v.id] = Tensor._from_flat(shape, {b: f.one}, f)
            out = contract_network(TNSInstance(g, tensors))
            for flat, val in out._nz.items():
                yield (flat, col), val
            col += 1


def _jacobian_rank(g: NetworkGraph, seed: int, field: Field) -> int:
    return rank(contraction_jacobian(random_instance(g, seed, field)))


def tns_dim(g: NetworkGraph, seed: int = 0, field: Field = QQ) -> int:
    """Dimension of the cone of contracted tensors, as a Jacobian rank.

    The rank is taken at two random instances and the larger one is
    returned.  Rank is lower semicontinuous, so no sample exceeds the
    generic rank and the maximum is the better lower bound of the two.
    """
    r0 = _jacobian_rank(g, seed, field)
    r1 = _jacobian_rank(g, seed + SEED_STRIDE, field)
    return max(r0, r1)


def _cycle_walk(g: NetworkGraph) -> list[int]:
    for v in g.vertices:
        if len(g.in_edges(v.id)) != 1 or len(g.out_edges(v.id)) != 1:
            raise SemanticError("needs a directed loop: one edge in, one out per vertex")
    start = min(v.id for v in g.vertices)
    walk = []
    vid = start
    for _ in range(len(g.vertices)):
        walk.append(vid)
        vid = g.out_edges(vid)[0].head
    if vid != start or len(set(walk)) != len(g.vertices):
        raise SemanticError("graph is not a single directed loop")
    return walk


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
