"""Symmetry algebra of a tensor under the product of general linear groups.

A tuple of endomorphisms, one per factor, stabilizes a tensor when the
derivation action (sum of single-slot insertions) kills it.  Collecting
the insertion of every elementary matrix in every slot as the columns of
one linear system turns the stabilizer into a kernel computation; the
orbit dimension is the rank of the same system.  Its dimension
(``stabilizer_dim``) is ranked one connected component at a time, read off
the tensor; the system is built whole (``build_system``) only for a basis
of the kernel (``stabilizer_tuples``).
"""

from __future__ import annotations

from array import array
from bisect import bisect_right
from collections import Counter
from itertools import accumulate
from math import prod

from ._record import Record
from .errors import SemanticError, magnitude
from .linalg import Matrix, _integral, components, kernel_basis, rank, rank_rows
from .tensors import Tensor, lin_index

# Budgets on a stabilizer system.  Its rank (``stabilizer_dim``) is taken one
# connected component at a time from the tensor, so what is held at once is
# the fibres of the tensor, a column of each nonzero row and a label per
# column, and the rows of one component.  MAX_SYSTEM_NNZ caps its nonzeros
# and MAX_SYSTEM_COLS its columns, sum(shape[j]**2), both checked from the
# tensor alone (``check_tensor_size``).  MAX_SYSTEM_FILL caps the cells of
# the largest component, rows x columns, which is all an elimination holds
# at once, checked once the components are known and before any is
# eliminated: a dense component fills towards rows x columns, far past its
# nonzeros.  Peak RSS on a 2-core host with Python 3.11: `certify` over Q
# 25 MB at e = 10, 34 MB at e = 12 and 70 MB (12 s) at e = 16, whose
# mmult system has 3.1e6 nonzeros (330 MB at e = 12 when the system was
# built whole); a dense (2,)^16 tensor, 2.1e6 nonzeros in one component of
# 65536 rows, 257 MB in 3.6 s, about 120 B per nonzero, the most measured;
# `stabilizer` on a dense 20 x 20 x 20 tensor (one component of 9.6e6
# cells) 85 MB in 6.7 s over Q, its elimination stopping at the cap of
# 1198 = 1200 - 2 pivots.
# With one nonzero, `stabilizer` peaked at 43 MB for shape (300, 300, 1)
# (180001 columns), 71 MB for (400, 400, 400) (480000) and 235 MB for
# (1000, 1000, 1) (2000001): about 110 B per column.  No budget bounds time.
# ``build_system`` holds the whole system in one Matrix, about 0.4 KB per
# nonzero, so it is held to MAX_BUILT_NNZ.
MAX_SYSTEM_NNZ = 4 * 10**6
MAX_SYSTEM_FILL = 10**7
MAX_SYSTEM_COLS = 10**6
MAX_BUILT_NNZ = 10**6


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
    E_kl in slot j.  It has nnz(t) * sum(shape) nonzeros, held to
    MAX_BUILT_NNZ before anything is built.
    """
    shape = t.shape
    check_tensor_size(t)
    if (nnz := len(t._nz) * sum(shape)) > MAX_BUILT_NNZ:
        raise SemanticError(f"building the stabilizer system would hold {magnitude(nnz)} nonzeros, "
                            f"over the budget of {MAX_BUILT_NNZ}")
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
    """Nullity of t's stabilizer system, ranked one connected component at a time, never built whole.

    Row r of the system holds, for each slot j, the nonzeros of t on the
    fibre through r along slot j (the indices of r with slot j free): the
    value t[r with slot j set to l] at column (j, r_j, l).  So the rows are
    read off the fibres, which cost O(nnz(t) * d), and no row is held past
    its use.  The first pass links, for each row and each slot whose fibre
    through it is nonempty, its columns there to one column of its next
    such slot; ``linalg.components`` of those links are the components of
    the system, and one column of each row is kept.  The rows and columns
    of each component bound the cells its elimination can hold, and the
    largest is checked against the fill budget.  A component of one column
    has rank 1.  Every other one has its rows found again from its columns,
    read in row order with local column ids, and ranked exactly
    (``linalg.rank_rows``), capped by the parts of the scalar rows
    (``StabilizerSystem.scalar_rows``) on its columns; over Q a component
    whose cap is not met is lifted and checked on its own rows.  Then its
    rows are dropped.  A column that no row holds is free and costs no
    object.
    """
    check_tensor_size(t)
    shape, nz, prime = t.shape, t._nz, t.field.prime
    ints = set(map(type, nz.values())) <= {int}  # else a row with a Fraction is scaled to integers
    strides = [prod(shape[j + 1:]) for j in range(len(shape))]
    offsets = list(accumulate((s * s for s in shape), initial=0))
    cols = offsets[-1]
    slots = list(zip(strides, shape, offsets))
    fibres: list[dict[int, list]] = [{} for _ in shape]  # slot j: {flat index with slot j at 0: [(l, value)]}
    keys: list[dict[int, list]] = [{} for _ in shape]  # slot j: {l: the keys of the fibres that hold l}
    for flat, v in nz.items():
        for fib, by_l, (st, s, _) in zip(fibres, keys, slots):
            l = flat // st % s
            fib.setdefault(flat - l * st, []).append((l, v))
            by_l.setdefault(l, []).append(flat - l * st)

    def row(r: int, local: dict[int, int]) -> dict:  # row r, its columns c as local[c]
        out = {}
        for fib, (st, s, off) in zip(fibres, slots):
            k = r // st % s
            if f := fib.get(r - k * st):
                at = off + k * s
                for l, v in f:
                    out[local[at + l]] = v
        return out

    lasts = array("q")  # a column of each nonzero row

    def links():
        # for each row r and slot j whose fibre through r is nonempty: r's columns in slot j and
        # one of its columns in its next such slot, so the links of r join all its columns
        for j, (fib, (st, s, off)) in enumerate(zip(fibres, slots)):
            later = list(zip(fibres[j + 1:], slots[j + 1:]))
            for base, f in fib.items():
                for k in range(s):
                    r, at = base + k * st, off + k * s
                    cs = [at + l for l, _ in f]
                    for fib2, (st2, s2, off2) in later:
                        k2 = r // st2 % s2
                        if f2 := fib2.get(r - k2 * st2):
                            cs.append(off2 + k2 * s2 + f2[0][0])
                            break
                    else:  # r's last such slot, met once
                        lasts.append(cs[0])
                    yield cs

    label = components(links(), cols)
    col_count = Counter(label)
    row_count = Counter(map(label.__getitem__, lasts))
    del lasts
    check_system_size(len(nz) * sum(shape),
                      max((n * col_count[a] for a, n in row_count.items() if col_count[a] > 1), default=0))
    groups: dict[int, list[int]] = {}
    for c, a in enumerate(label):
        if col_count[a] > 1:
            groups.setdefault(a, []).append(c)
    del label
    rank = sum(1 for a in row_count if col_count[a] == 1)
    for ccols in groups.values():
        found, parts = set(), [{} for _ in shape[1:]]
        for i, c in enumerate(ccols):
            j = bisect_right(offsets, c) - 1
            st, s, off = slots[j]
            k, l = divmod(c - off, s)
            found.update(base + k * st for base in keys[j].get(l, ()))  # the rows that hold column (j, k, l)
            if k == l:  # the scalar rows (``StabilizerSystem.scalar_rows``) on ccols, in local ids
                if j < len(parts):
                    parts[j][i] = 1
                if j:
                    parts[j - 1][i] = -1
        local = {c: i for i, c in enumerate(ccols)}
        crows = [row(r, local) for r in sorted(found)]
        if not ints:
            crows = list(map(_integral, crows))
        rank += rank_rows(crows, len(ccols), prime, [part for part in parts if part])
    return cols - rank


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
