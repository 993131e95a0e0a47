"""Named tensors and coordinate splittings used throughout.

The order-3 matrix multiplication tensor and its cyclic generalization,
the trace-of-a-product tensor on a loop, are built here together with the
coordinate splittings whose curves degenerate them to boundary points.

Factor conventions for mmult(e2, e3, e1): factor 1 holds e2 x e3 matrices,
factor 2 holds e3 x e1, factor 3 holds e1 x e2, each linearized row-major,
and the trilinear form is (P, Q, R) -> trace(PQR).
"""

from __future__ import annotations

from math import prod

from ._record import Record
from .errors import SemanticError, ShapeError
from .fields import QQ, Field
from .linalg import Matrix
from .tensors import Tensor


def mmult(e2: int, e3: int, e1: int, field: Field = QQ) -> Tensor:
    """Matrix multiplication tensor of shape (e2*e3, e3*e1, e1*e2): the
    trace tensor of the triangle with edge dimensions (e3, e1, e2)."""
    if min(e1, e2, e3) < 1:
        raise SemanticError("matrix formats must be positive")
    return imm_loop((e3, e1, e2), field)


def imm_loop(edge_dims, field: Field = QQ) -> Tensor:
    """Trace-of-product tensor for a loop: factor j holds e_{j-1} x e_j
    matrices and the form sends (X_1, ..., X_n) to trace(X_1 ... X_n)."""
    dims = [int(e) for e in edge_dims]
    n = len(dims)
    if n < 2:
        raise SemanticError("a loop needs at least two edges")
    if min(dims) < 1:
        raise SemanticError("edge dimensions must be positive")
    shape = tuple(dims[j - 1] * dims[j] for j in range(n))
    # factor j is indexed by u_{j-1} * e_j + u_j, one basis element per index
    # loop u; so u_j adds strides[j] + e_{j+1} * strides[j+1] to the flat key.
    # Running u_{n-1} first, then u_0, ..., u_{n-2}, lists the keys in order.
    strides = [prod(shape[j + 1 :]) for j in range(n)]
    keys = [0]
    for j in (n - 1, *range(n - 1)):
        step = strides[j] + dims[(j + 1) % n] * strides[(j + 1) % n]
        keys = [k + u * step for k in keys for u in range(dims[j])]
    return Tensor._from_flat(shape, dict.fromkeys(keys, 1), field)


def m_tilde_formula(e: int, field: Field = QQ) -> Tensor:
    """Closed-form boundary tensor of shape (e^2, e^2, e^2).

    Three disjoint entry patterns, each with coefficient 1: the diagonal
    triples (ii, ii, ii), and for i != j the monomials (ij, jj, ji) and
    (ii, ij, ji).  These are the supports of the three mixed projected
    traces (X0,Y0,Z1), (X1,Y0,Z0) and (X0,Y1,Z0) of mmult under the
    diagonal splitting, so the tensor equals that splitting curve's limit.
    """
    if e < 2:
        raise SemanticError("needs e >= 2")
    items: dict[tuple[int, int, int], int] = {}
    for i in range(e):
        items[(i * e + i, i * e + i, i * e + i)] = 1
        for j in range(e):
            if i != j:
                items[(i * e + j, j * e + j, j * e + i)] = 1
                items[(i * e + i, i * e + j, j * e + i)] = 1
    return Tensor.from_nonzeros((e * e, e * e, e * e), items, field)


class Splitting(Record):
    """Idempotent coordinate projections, one per factor of an order-3
    matrix-space format.  The complementary projection of p is 1 - p."""

    x0: Matrix
    y0: Matrix
    z0: Matrix

    def __post_init__(self):
        for name, p in self.items():
            if p.rows != p.cols:
                raise ShapeError(f"{name} must be square")
            if p @ p != p:
                raise SemanticError(f"{name} is not idempotent")
        if len({p.field for _, p in self.items()}) != 1:
            raise SemanticError("splitting factors live over different fields")

    def items(self):
        return (("X0", self.x0), ("Y0", self.y0), ("Z0", self.z0))

    def projectors(self) -> tuple[Matrix, Matrix, Matrix]:
        return (self.x0, self.y0, self.z0)

    def complements(self) -> tuple[Matrix, Matrix, Matrix]:
        return tuple(Matrix.identity(p.rows, p.field) - p for p in self.projectors())

    @property
    def field(self) -> Field:
        return self.x0.field


def _composition_splitting(c1, c2, c3, field: Field = QQ) -> Splitting:
    """Coordinate splitting from a composition of each edge dimension.

    Edge space j splits into the consecutive blocks of c_j, and all three
    compositions have the same number of parts.  Factors 1 and 2 keep the
    cells whose row block and column block are the same; factor 3 keeps the
    others, the annihilator of products of the first two under the trace
    pairing.
    """
    b1, b2, b3 = ([b for b, size in enumerate(c) for _ in range(size)] for c in (c1, c2, c3))

    def projector(rows, cols, same: bool) -> Matrix:
        keep = [(r == c) == same for r in rows for c in cols]
        n = len(keep)
        return Matrix.from_nonzeros(n, n, {(k, k): 1 for k, kept in enumerate(keep) if kept}, field)

    return Splitting(projector(b2, b3, True), projector(b3, b1, True), projector(b1, b2, False))


def diagonal_splitting(e: int, field: Field = QQ) -> Splitting:
    """Diagonal cells on factors 1 and 2, off-diagonal cells on factor 3:
    the composition of e into e ones on every edge space.

    The product of two diagonal matrices is diagonal and traces to zero
    against a zero-diagonal matrix, which is what the degeneration needs.
    Degenerate at e = 1 (factor 3 would project to zero), hence rejected.
    """
    if e < 2:
        raise SemanticError("diagonal splitting needs e >= 2")
    return _composition_splitting((1,) * e, (1,) * e, (1,) * e, field)
