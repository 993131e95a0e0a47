"""Symmetry algebra of a tensor under the product of general linear groups.

A tuple of endomorphisms, one per factor, stabilizes a tensor when the
derivation action (sum of single-slot insertions) kills it.  Collecting
the insertion of every elementary matrix in every slot as the columns of
one linear system turns the stabilizer into a kernel computation; the
orbit dimension is the rank of the same system.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from math import prod

from .errors import SemanticError, ShapeError
from .linalg import Matrix, components, kernel_basis, kron, rank
from .tensors import Tensor, leibniz_act, lin_index

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
# that the lift over Q eliminates.  Neither budget bounds time.
MAX_SYSTEM_NNZ = 10**6
MAX_SYSTEM_FILL = 10**7


def check_system_size(nnz: int, fill: int = 0) -> None:
    """Refuse a system over either budget before it is allocated."""
    if nnz > MAX_SYSTEM_NNZ:
        raise SemanticError(f"stabilizer system would have {nnz} nonzeros, over the budget of {MAX_SYSTEM_NNZ}")
    if fill > MAX_SYSTEM_FILL:
        raise SemanticError(
            f"eliminating the stabilizer system could fill {fill} cells, over the budget of {MAX_SYSTEM_FILL}"
        )


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


@dataclass(frozen=True)
class StabilizerSystem:
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

    def column_label(self, col: int) -> tuple[int, int, int]:
        """Map a column index back to (slot, row, col) of the elementary matrix."""
        for j in range(len(self.shape) - 1, -1, -1):
            if col >= self.offsets[j]:
                k, l = divmod(col - self.offsets[j], self.shape[j])
                return j, k, l
        raise ShapeError(f"column {col} outside system")


def build_system(t: Tensor) -> StabilizerSystem:
    """Assemble the derivation-action system of a tensor.

    Column (j, k, l) holds the tensor obtained by routing index l of
    factor j to index k, i.e. the insertion of the elementary matrix
    E_kl in slot j.  It has nnz(t) * sum(shape) nonzeros.
    """
    shape = t.shape
    check_system_size(len(t._nz) * sum(shape))
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


def orbit_dim(t: Tensor) -> int:
    return build_system(t).orbit_dim()


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


def _gl_basis(n: int, field) -> list[Matrix]:
    out = []
    for k in range(n):
        for l in range(n):
            data = [field.zero] * (n * n)
            data[k * n + l] = field.one
            out.append(Matrix(n, n, data, field))
    return out


def loop_pair_generators(edge_dims, field) -> list[tuple[int, Matrix, int, Matrix]]:
    """Adjacent-slot generator pairs for a cyclic matrix-product tensor.

    For alpha acting on the shared index between factors j and j+1, factor
    j picks up right multiplication by alpha and factor j+1 minus left
    multiplication; the trace form cancels the two contributions.
    """
    dims = tuple(int(e) for e in edge_dims)
    n = len(dims)
    out = []
    for j in range(n):
        rows_j = dims[(j - 1) % n]
        cols_next = dims[(j + 1) % n]
        for alpha in _gl_basis(dims[j], field):
            right = kron(Matrix.identity(rows_j, field), alpha.transpose())
            left = kron(alpha, Matrix.identity(cols_next, field)).scale(-field.one)
            out.append((j, right, (j + 1) % n, left))
    return out


def stabilizer_contains_expected(t: Tensor, edge_dims) -> dict:
    """Check the structural symmetries of a cyclic matrix-product tensor.

    Verifies that every adjacent-slot pair annihilates t, that a lone
    identity insertion merely rescales (so scalar tuples with nonzero
    trace sum are genuinely outside the stabilizer), and that the
    stabilizer dimension equals sum(e_j^2) - 1.
    """
    dims = tuple(int(e) for e in edge_dims)
    n = len(dims)
    expected_shape = tuple(dims[(j - 1) % n] * dims[j] for j in range(n))
    if t.shape != expected_shape:
        raise ShapeError(f"tensor shape {t.shape} does not match edge dims {dims}")
    f = t.field
    pairs_ok = True
    for j, right, jn, left in loop_pair_generators(dims, f):
        maps: list[Matrix | None] = [None] * n
        maps[j] = right
        maps[jn] = left
        if not leibniz_act(t, maps).is_zero():
            pairs_ok = False
            break
    # a single identity slot scales the tensor instead of killing it
    lone: list[Matrix | None] = [None] * n
    lone[0] = Matrix.identity(expected_shape[0], f)
    scalar_ok = leibniz_act(t, lone) == t
    expected = sum(e * e for e in dims) - 1
    computed = stabilizer_dim(t)
    return {
        "pairs_annihilate": pairs_ok,
        "scalar_scales": scalar_ok,
        "expected_dim": expected,
        "computed_dim": computed,
        "matches": pairs_ok and scalar_ok and computed == expected,
    }
