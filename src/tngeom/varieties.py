"""Variety-level queries about contracted network tensors.

Covers bounded-multilinear-rank membership and the non-closedness
certificate built from a splitting curve.  The Jacobian dimension of a
network set is in ``jacobian``, which a `dim` process loads without this
module's curve, named-tensor and stabilizer code; a `certify` process
loads neither it nor the network code.
"""

from __future__ import annotations

from ._record import Record
from .curves import act_curve, curve_from_splitting, leading_term
from .errors import SemanticError, ShapeError
from .linalg import rank  # noqa: F401  (kept importable here for code that wraps it)
from .stabilizer import stabilizer_dim
from .tensors import Tensor, mlrank
from .zoo import Splitting, m_tilde_formula, mmult


def __getattr__(name: str):
    # contract_network and contraction_jacobian stay reachable here for code that wraps them, without
    # loading the network or Jacobian code into a `certify` process
    if name == "contract_network":
        from .contraction import contract_network as value
    elif name == "contraction_jacobian":
        from .jacobian import contraction_jacobian as value
    else:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    globals()[name] = value
    return value


def sub_membership(t: Tensor, bounds) -> bool:
    """True when the tensor fits in a product of subspaces of the given dims."""
    f = tuple(int(x) for x in bounds)
    if len(f) != t.order:
        raise ShapeError(f"expected {t.order} bounds, got {len(f)}")
    if any(not 0 <= fj <= sj for fj, sj in zip(f, t.shape)):
        raise ShapeError(f"bounds {f} exceed shape {t.shape}")
    return all(r <= fj for r, fj in zip(mlrank(t), f))


class Certificate(Record):
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
    # never zero: at t = 1 every curve P0 + t (I - P0) is I, so the coefficients sum to m
    power, limit = leading_term(act_curve(m, curve_from_splitting(s)))
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
