"""Matrix curves with integer powers and their action on tensors.

A curve per factor, each a finite sum of powers t^k with matrix
coefficients, acts on a tensor by the factor-wise endomorphism action.
Expanding the product over one term per factor and collecting by total
power gives a tensor-valued polynomial (Laurent, if powers are negative);
its lowest surviving coefficient is the limit point of the rescaled curve
as t goes to zero.

The curve attached to a splitting is P0 + t * (1 - P0) on each factor; it
is invertible for t not in {0}, so for t != 0 the translated tensor stays
inside the endomorphism orbit of the starting tensor.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from fractions import Fraction

from .errors import SemanticError, ShapeError
from .fields import Field
from .linalg import Matrix
from .tensors import Tensor, apply_end
from .zoo import Splitting


def _power(t, p: int) -> Fraction:
    """t**p as a Fraction, so a negative power stays exact over both fields.

    ``scale`` coerces it into the field: over Fp, t is a residue, and the
    denominator of a negative power is inverted mod p.
    """
    return Fraction(t) ** p


@dataclass(frozen=True)
class MatrixCurve:
    """Finite Laurent polynomial with square matrix coefficients."""

    terms: tuple[tuple[int, Matrix], ...]

    def __post_init__(self):
        if not self.terms:
            raise SemanticError("a curve needs at least one term")
        powers = [p for p, _ in self.terms]
        if any(powers[i] >= powers[i + 1] for i in range(len(powers) - 1)):
            raise SemanticError("curve powers must be strictly increasing")
        mats = [m for _, m in self.terms]
        n = mats[0].rows
        if any(m.rows != m.cols or m.rows != n for m in mats):
            raise ShapeError("curve coefficients must be square of one size")
        if len({m.field for m in mats}) != 1:
            raise SemanticError("curve coefficients live over different fields")

    @classmethod
    def constant(cls, m: Matrix) -> "MatrixCurve":
        return cls(((0, m),))

    @property
    def size(self) -> int:
        return self.terms[0][1].rows

    @property
    def field(self) -> Field:
        return self.terms[0][1].field

    def evaluate(self, t_value) -> Matrix:
        """Value at a nonzero scalar parameter."""
        f = self.field
        t = f.coerce(t_value)
        if not t and any(p < 0 for p, _ in self.terms):
            raise SemanticError("cannot evaluate negative powers at t = 0")
        acc = Matrix.zeros(self.size, self.size, f)
        for p, m in self.terms:
            acc = acc + m.scale(_power(t, p))
        return acc

    def shifted(self, k: int) -> "MatrixCurve":
        return MatrixCurve(tuple((p + k, m) for p, m in self.terms))


@dataclass(frozen=True)
class TensorLaurent:
    """Tensor-valued Laurent polynomial; only nonzero coefficients are kept."""

    terms: tuple[tuple[int, Tensor], ...]

    def __post_init__(self):
        powers = [p for p, _ in self.terms]
        if any(powers[i] >= powers[i + 1] for i in range(len(powers) - 1)):
            raise SemanticError("powers must be strictly increasing")
        if any(t.is_zero() for _, t in self.terms):
            raise SemanticError("zero coefficients must be dropped")

    def is_zero(self) -> bool:
        return not self.terms

    def coefficient(self, power: int) -> Tensor | None:
        for p, t in self.terms:
            if p == power:
                return t
        return None

    def evaluate(self, t_value) -> Tensor:
        if not self.terms:
            raise SemanticError("empty expansion has no well-defined shape")
        f = self.terms[0][1].field
        t = f.coerce(t_value)
        acc = None
        for p, tensor in self.terms:
            term = tensor.scale(_power(t, p))
            acc = term if acc is None else acc + term
        return acc


def act_curve(t: Tensor, curves) -> TensorLaurent:
    """Expand the action of one curve per factor, collected by total power."""
    curves = list(curves)
    if len(curves) != t.order:
        raise ShapeError(f"expected {t.order} curves, got {len(curves)}")
    for j, c in enumerate(curves):
        if c.size != t.shape[j]:
            raise ShapeError(f"curve {j} has size {c.size}, factor needs {t.shape[j]}")
        if c.field != t.field:
            raise SemanticError("curve and tensor fields differ")
    by_power: dict[int, Tensor] = {}
    for combo in itertools.product(*(c.terms for c in curves)):
        power = sum(p for p, _ in combo)
        contrib = apply_end(t, [m for _, m in combo])
        if power in by_power:
            by_power[power] = by_power[power] + contrib
        else:
            by_power[power] = contrib
    terms = tuple((p, by_power[p]) for p in sorted(by_power) if not by_power[p].is_zero())
    return TensorLaurent(terms)


def leading_term(expansion: TensorLaurent) -> tuple[int, Tensor]:
    """Lowest power with a nonzero coefficient; the limit direction at t -> 0."""
    if expansion.is_zero():
        raise SemanticError("expansion is identically zero")
    return expansion.terms[0]


def curve_from_splitting(s: Splitting) -> list[MatrixCurve]:
    """One curve per factor: the kept part plus t times the complement."""
    out = []
    for p0, p1 in zip(s.projectors(), s.complements()):
        out.append(MatrixCurve(((0, p0), (1, p1))))
    return out
