"""Named tensors and coordinate splittings used throughout.

The order-3 matrix multiplication tensor and its cyclic generalization,
the trace-of-a-product tensor on a loop, are built here together with the
coordinate splittings whose curves degenerate them to boundary points.

Factor conventions for mmult(e2, e3, e1): factor 1 holds e2 x e3 matrices,
factor 2 holds e3 x e1, factor 3 holds e1 x e2, each linearized row-major,
and the trilinear form is (P, Q, R) -> trace(PQR).
"""

from __future__ import annotations

from dataclasses import dataclass
from math import prod as _prod

from .errors import SemanticError, ShapeError
from .fields import QQ, Field
from .linalg import Matrix
from .tensors import Tensor


def mmult(e2: int, e3: int, e1: int, field: Field = QQ) -> Tensor:
    """Matrix multiplication tensor of shape (e2*e3, e3*e1, e1*e2)."""
    if min(e1, e2, e3) < 1:
        raise SemanticError("matrix formats must be positive")
    items = {}
    for i in range(e2):
        for a in range(e3):
            for u in range(e1):
                items[(i * e3 + a, a * e1 + u, u * e2 + i)] = 1
    return Tensor.from_nonzeros((e2 * e3, e3 * e1, e1 * e2), items, field)


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
    items = {}
    # factor j is indexed by the pair (u_{j-1}, u_j); summing the matching
    # basis elements over all index loops gives the trace form
    for flat in range(_prod(dims)):
        uvec = []
        rem = flat
        for d in reversed(dims):
            rem, r = divmod(rem, d)
            uvec.append(r)
        uvec.reverse()
        idx = tuple(uvec[j - 1] * dims[j] + uvec[j] for j in range(n))
        items[idx] = 1
    return Tensor.from_nonzeros(shape, items, field)


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


@dataclass(frozen=True)
class Splitting:
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


def diagonal_splitting(e: int, field: Field = QQ) -> Splitting:
    """Diagonal cells on factors 1 and 2, off-diagonal cells on factor 3.

    The product of two diagonal matrices is diagonal and traces to zero
    against a zero-diagonal matrix, which is what the degeneration needs.
    Degenerate at e = 1 (factor 3 would project to zero), hence rejected.
    """
    if e < 2:
        raise SemanticError("diagonal splitting needs e >= 2")
    diag = [(i, i) for i in range(e)]
    off = [(i, j) for i in range(e) for j in range(e) if i != j]
    return Splitting(
        _rect_projector(e, e, diag, field),
        _rect_projector(e, e, diag, field),
        _rect_projector(e, e, off, field),
    )


def _block_cells(rsplit: tuple[int, int], csplit: tuple[int, int], anti: bool):
    r1, _ = rsplit
    c1, _ = csplit
    rows = rsplit[0] + rsplit[1]
    cols = csplit[0] + csplit[1]
    out = []
    for i in range(rows):
        for j in range(cols):
            same_block = (i < r1) == (j < c1)
            if same_block != anti:
                out.append((i, j))
    return out


def _rect_projector(rows: int, cols: int, keep, field: Field) -> Matrix:
    """Projector on rows x cols matrices keeping the given (row, col) cells."""
    n = rows * cols
    return Matrix.from_nonzeros(n, n, {(i * cols + j, i * cols + j): 1 for i, j in keep}, field)


def block_splitting(e1p: int, e1pp: int, e2p: int, e2pp: int, e3p: int, e3pp: int, field: Field = QQ) -> Splitting:
    """Two-block splitting of each edge space, e_j = e_j' + e_j''.

    Factors 1 and 2 keep the diagonal blocks; factor 3 keeps the
    anti-diagonal blocks, the annihilator of products of the first two
    under the trace pairing.  With every e_j = 2 split as 1 + 1 this is
    the diagonal splitting.
    """
    for part in (e1p, e1pp, e2p, e2pp, e3p, e3pp):
        if part < 1:
            raise SemanticError("all block sizes must be at least 1")
    e1, e2, e3 = e1p + e1pp, e2p + e2pp, e3p + e3pp
    f1 = _rect_projector(e2, e3, _block_cells((e2p, e2pp), (e3p, e3pp), anti=False), field)
    f2 = _rect_projector(e3, e1, _block_cells((e3p, e3pp), (e1p, e1pp), anti=False), field)
    f3 = _rect_projector(e1, e2, _block_cells((e1p, e1pp), (e2p, e2pp), anti=True), field)
    return Splitting(f1, f2, f3)
