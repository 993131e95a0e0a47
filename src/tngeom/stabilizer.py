"""Symmetry algebra of a tensor under the product of general linear groups.

A tuple of endomorphisms, one per factor, stabilizes a tensor when the
derivation action (sum of single-slot insertions) kills it.  Collecting
the insertion of every elementary matrix in every slot as the columns of
one linear system turns the stabilizer into a kernel computation; the
orbit dimension is the rank of the same system.
"""

from __future__ import annotations

from collections import Counter
from math import prod

from ._record import Record
from .errors import SemanticError, magnitude
from .linalg import Matrix, components, kernel_basis, rank
from .tensors import Tensor, lin_index

# Budgets on a stabilizer system.  MAX_SYSTEM_NNZ caps its nonzeros and is
# checked before anything is built.  MAX_SYSTEM_FILL caps the cells its
# elimination can hold (``elimination_fill``), checked before the matrix is
# built: a dense system fills towards rows x columns, far past its nonzeros.
# On a 2-core host with Python 3.11, peak RSS of `certify` over Q grew by
# 0.39 to 0.43 KB per system nonzero at e = 8, 10 and 12 (e = 12, 746496
# nonzeros and 2.7e6 cells, took 330 MB).  `stabilizer` on a dense
# 20 x 20 x 20 tensor (9.6e6 cells) peaked at 147 MB and took 10 s: its
# elimination mod p holds packed dense rows, and stops at the cap of
# 1198 = 1200 - 2 pivots, so the lift and its check never run (99 s when
# every row was read and the kernel lifted).  The fill budget bounds the
# slots of those rows, at most rows x columns per component, for each prime
# that the lift over Q eliminates.  MAX_SYSTEM_COLS caps its columns,
# sum(shape[j]**2), checked from the shape alone: the elimination keeps a
# few objects per column, and over Q the lift holds a kernel vector per free
# column of A or of A^T, whichever has fewer columns, however few nonzeros
# the system has.  `stabilizer` on a tensor with one nonzero peaked at
# 124 MB for shape (300, 300, 1) (180001 columns), 557 MB for
# (400, 400, 400) (480000) and 721 MB for (577, 577, 2) (665862): up to
# 1.25 KB per column.  No budget bounds time.
MAX_SYSTEM_NNZ = 10**6
MAX_SYSTEM_FILL = 10**7
MAX_SYSTEM_COLS = 5 * 10**5


def check_system_size(nnz: int, fill: int = 0, cols: int = 0) -> None:
    """Refuse a system over any budget before it is allocated."""
    if cols > MAX_SYSTEM_COLS:
        raise SemanticError(f"stabilizer system would have {magnitude(cols)} columns, "
                            f"over the budget of {MAX_SYSTEM_COLS}")
    if nnz > MAX_SYSTEM_NNZ:
        raise SemanticError(f"stabilizer system would have {magnitude(nnz)} nonzeros, "
                            f"over the budget of {MAX_SYSTEM_NNZ}")
    if fill > MAX_SYSTEM_FILL:
        raise SemanticError(f"eliminating the stabilizer system could fill {magnitude(fill)} cells, "
                            f"over the budget of {MAX_SYSTEM_FILL}")


def check_tensor_size(t: Tensor) -> None:
    """Refuse, from t's shape and nonzero count alone, a system over the column or nonzero budget."""
    check_system_size(len(t._nz) * sum(t.shape), cols=sum(s * s for s in t.shape))


def elimination_fill(pairs, rows: int, cols: int) -> int:
    """Most cells an elimination of the sparse system with these (row, column) nonzeros can hold.

    A row update adds a row that shares a column, so a row never leaves
    the columns of its connected component in the row-column graph, and
    the bound is the sum over components of rows times columns.  The
    components (``linalg.components``) are only searched when
    min(rows, nonzeros) * cols is over the budget.
    """
    if min(rows, len(pairs)) * cols <= MAX_SYSTEM_FILL:
        return min(rows, len(pairs)) * cols
    by_row: dict[int, list[int]] = {}
    for r, c in pairs:
        by_row.setdefault(r, []).append(c)
    label = components(by_row.values(), cols)
    comp_cols = Counter(label)
    comp_rows = Counter(label[row[0]] for row in by_row.values())
    return sum(n * comp_cols[a] for a, n in comp_rows.items())


class StabilizerSystem(Record):
    """Linear system whose kernel is the stabilizer algebra of a tensor.

    Rows are indexed by tensor coordinates, columns by (slot, elementary
    matrix) pairs laid out slot by slot, each slot row-major; offsets are
    the first column of each slot.
    """

    matrix: Matrix
    shape: tuple[int, ...]
    offsets: tuple[int, ...]

    @property
    def group_dim(self) -> int:
        return sum(s * s for s in self.shape)

    def stabilizer_dim(self) -> int:
        return self.matrix.cols - self.orbit_dim()

    def orbit_dim(self) -> int:
        """Rank of the system (``linalg.rank``), at most cols - (d - 1).

        The scalar rows (``scalar_rows``) lie in the kernel, so each
        component's elimination stops at its cap; over Q a prime on which
        every component reaches it is exact with no lifted kernel.
        """
        return rank(self.matrix, self.scalar_rows())

    def scalar_rows(self) -> Matrix:
        """The d - 1 tuples (I in slot j, -I in slot j + 1), one row each.

        The identity in slot j scales the tensor by 1, so each tuple kills
        it, over every field: these rows span the kernel of
        gl(V_1) + ... + gl(V_d) -> gl(V_1 x ... x V_d), and the rank of
        the system is at most cols - (d - 1).
        """
        shape, cols, f = self.shape, self.matrix.cols, self.matrix.field
        nz = {}
        for j in range(len(shape) - 1):
            for s, sign in ((j, f.one), (j + 1, -f.one)):
                for k in range(shape[s]):
                    nz[j * cols + self.offsets[s] + k * shape[s] + k] = sign
        return Matrix._from_flat((max(len(shape) - 1, 0), cols), nz, f)


def build_system(t: Tensor) -> StabilizerSystem:
    """Assemble the derivation-action system of a tensor.

    Column (j, k, l) holds the tensor obtained by routing index l of
    factor j to index k, i.e. the insertion of the elementary matrix
    E_kl in slot j.  It has nnz(t) * sum(shape) nonzeros.
    """
    shape = t.shape
    check_tensor_size(t)
    offsets = []
    total = 0
    for s in shape:
        offsets.append(total)
        total += s * s
    strides = [prod(shape[j + 1 :]) for j in range(len(shape))]
    # each (row, column) pair is reached from exactly one tensor entry
    items = {}
    for idx, val in t.nonzeros():
        flat = lin_index(idx, shape)
        for j, vj in enumerate(shape):
            l = idx[j]
            base = flat - l * strides[j]
            col_base = offsets[j] + l
            for k in range(vj):
                items[base + k * strides[j], col_base + k * vj] = val
    rows = prod(shape)
    check_system_size(len(items), elimination_fill(items, rows, total))
    # every value is a nonzero scalar of t's field, so the cells need no checks
    nz = {r * total + c: v for (r, c), v in items.items()}
    return StabilizerSystem(Matrix._from_flat((rows, total), nz, t.field), shape, tuple(offsets))


def stabilizer_dim(t: Tensor) -> int:
    return build_system(t).stabilizer_dim()


def stabilizer_tuples(t: Tensor) -> list[tuple[Matrix, ...]]:
    """A basis of the stabilizer algebra as tuples of square matrices."""
    sys = build_system(t)
    f = t.field
    out = []
    for vec in kernel_basis(sys.matrix):
        mats = []
        for j, vj in enumerate(sys.shape):
            seg = vec[sys.offsets[j] : sys.offsets[j] + vj * vj]
            mats.append(Matrix(vj, vj, seg, f))
        out.append(tuple(mats))
    return out
