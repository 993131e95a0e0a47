"""Symmetry algebra of a tensor under the product of general linear groups.

A tuple of endomorphisms, one per factor, stabilizes a tensor when the
derivation action (sum of single-slot insertions) kills it.  Collecting
the insertion of every elementary matrix in every slot as the columns of
one linear system turns the stabilizer into a kernel computation; the
orbit dimension is the rank of the same system.  No command builds the
system: its connected components are read off the tensor one at a time
(``_components``), and each is ranked (``stabilizer_dim``) or has its
kernel lifted (``stabilizer_tuples``) on its own.  ``build_system``
assembles the whole system as one matrix, an independent reference to
check the components against.
"""

from __future__ import annotations

from array import array
from bisect import bisect_right
from collections import Counter
from collections.abc import Iterator
from itertools import accumulate, chain
from math import prod

from ._record import Record
from .errors import SemanticError, magnitude
from .linalg import Matrix, _integral, _kernel, _rank, _split, components
from .linalg import rank  # noqa: F401  (kept importable here for code that wraps it)
from .tensors import Tensor, lin_index

# Budgets on a stabilizer system.  Its rank and kernel (``stabilizer_dim``,
# ``stabilizer_tuples``) are taken one connected component at a time from
# the tensor (``_components``), so what is held at once is
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
# nonzero, so it is held to MAX_BUILT_NNZ, and its fill is summed over all
# its components.
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


class StabilizerSystem(Record):
    """Linear system whose kernel is the stabilizer algebra of a tensor.

    Rows are indexed by tensor coordinates, columns by (slot, elementary
    matrix) pairs laid out slot by slot, each slot row-major; offsets are
    the first column of each slot.
    """

    matrix: Matrix
    shape: tuple[int, ...]
    offsets: tuple[int, ...]


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
    rows: dict[int, dict] = {}
    for idx, val in t.nonzeros():
        flat = lin_index(idx, shape)
        for j, vj in enumerate(shape):
            l = idx[j]
            base = flat - l * strides[j]
            col_base = offsets[j] + l
            for k in range(vj):
                rows.setdefault(base + k * strides[j], {})[col_base + k * vj] = val
    # an elimination's row updates stay in a component: it holds at most its rows times its columns
    check_system_size(sum(map(len, rows.values())),
                      sum(len(crows) * len(ccols) for ccols, crows in _split(list(rows.values()), total)))
    # every value is a nonzero scalar of t's field, so the cells need no checks
    nz = {r * total + c: v for r, row in rows.items() for c, v in row.items()}
    return StabilizerSystem(Matrix._from_flat((prod(shape), total), nz, t.field), shape, tuple(offsets))


def _components(t: Tensor) -> tuple[array, Iterator[tuple[list[int], list[dict], int]]]:
    """The connected components of t's system that some row holds, read off the tensor.

    The system is never built.  Row r holds, for each slot j, the nonzeros
    of t on the fibre through r along slot j (the indices of r with slot j
    free): the value t[r with slot j set to l] at column (j, r_j, l).  So
    the rows are read off the fibres, which cost O(nnz(t) * d), and no row
    is held past its component.  The first pass links, for each row and
    each slot whose fibre through it is nonempty, its columns there to one
    column of its next such slot; ``linalg.components`` of those links are
    the components of the system, and one column of each row is kept.  The
    rows and columns of each component bound the cells its elimination can
    hold, and the largest is checked against the fill budget before this
    returns.  A component of one column has rank 1 and no kernel, since
    each of its rows holds the column with a nonzero value: its column
    alone is returned, in an array of them.  Every other component is
    yielded in turn by the generator returned, as (columns, rows, s).  Its
    rows are found again from its columns, in row order, each as {column:
    integer value} (``linalg._integral``), and s is the number of slots in
    which it holds a diagonal column (j, k, k), the slots its part of the
    scalar rows reaches (``stabilizer_dim``).  A column that no row holds
    is free, is in no component and costs no object.
    """
    check_tensor_size(t)
    shape, nz = t.shape, t._nz
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

    def row(r: int) -> dict:
        out = {}
        for fib, (st, s, off) in zip(fibres, slots):
            k = r // st % s
            if f := fib.get(r - k * st):
                at = off + k * s
                for l, v in f:
                    out[at + l] = v
        return out if ints else _integral(out)

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
    singles, groups = array("q"), {}
    for c, a in enumerate(label):
        if col_count[a] > 1:
            groups.setdefault(a, []).append(c)
        elif a in row_count:
            singles.append(c)
    del label

    def each():
        for ccols in groups.values():
            found, diagonal = set(), set()
            for c in ccols:
                j = bisect_right(offsets, c) - 1
                st, s, off = slots[j]
                k, l = divmod(c - off, s)
                found.update(base + k * st for base in keys[j].get(l, ()))  # the rows that hold column (j, k, l)
                if k == l:
                    diagonal.add(j)
            yield ccols, [row(r) for r in sorted(found)], len(diagonal)

    return singles, each()


def stabilizer_dim(t: Tensor) -> int:
    """Nullity of t's stabilizer system, ranked one connected component at a time (``_components``).

    A component of one column has rank 1.  Every other one is ranked
    exactly (``linalg._rank``), capped by the scalar rows.  Scalar row j,
    for j < d - 1, is the tuple (I in slot j, -I in slot j + 1): the
    identity in slot j scales the tensor by 1, so each tuple kills it over
    every field.  A row update never leaves a component, so the part of a
    kernel vector on one component's columns lies in that component's
    kernel.  On a component, I in slot j is the sum of its diagonal
    columns (j, k, k), nonzero in the s slots where it holds one, and
    these sums have disjoint supports.  So the parts of the scalar rows
    are e_j - e_{j+1} projected onto those s coordinates, and their rank
    is s when s < d (a vector on them extends by a slot outside to one
    summing to zero), and d - 1 when s = d.  That is a nullity the
    component has over Q and over Fp, so its elimination stops once its
    rank reaches its column count less min(s, d - 1), and over Q a
    component that reaches that cap needs no lifted kernel.
    """
    singles, comps = _components(t)
    prime, rank = t.field.prime, len(singles)
    for ccols, crows, held in comps:
        rank += _rank(ccols, crows, prime, len(ccols) - min(held, t.order - 1))
    return sum(s * s for s in t.shape) - rank


def stabilizer_tuples(t: Tensor) -> list[tuple[Matrix, ...]]:
    """A basis of the stabilizer algebra as tuples of square matrices.

    The kernel of t's system, lifted one component at a time
    (``_components``, ``linalg._kernel``): the vector of free column f is 1
    there and 0 at the other free columns, and slot j of it is the j-th
    matrix, row-major.
    """
    shape, f = t.shape, t.field
    offsets = list(accumulate((s * s for s in shape), initial=0))
    singles, comps = _components(t)
    groups = chain((([c], [{c: 1}]) for c in singles), ((ccols, crows) for ccols, crows, _ in comps))
    out = []
    for vec in _kernel(groups, offsets[-1], f.prime):
        mats = [{} for _ in shape]
        for c, v in vec.items():
            j = bisect_right(offsets, c) - 1
            mats[j][divmod(c - offsets[j], shape[j])] = v
        out.append(tuple(Matrix.from_nonzeros(s, s, m, f) for s, m in zip(shape, mats)))
    return out
