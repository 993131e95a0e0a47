"""Symmetry algebra of a tensor under the product of general linear groups.

A tuple of endomorphisms, one per factor, stabilizes a tensor when the
derivation action (sum of single-slot insertions) kills it.  Collecting
the insertion of every elementary matrix in every slot as the columns of
one linear system turns the stabilizer into a kernel computation; the
orbit dimension is the rank of the same system.  No command builds the
system: its connected components are found from the tensor's fibres and
read off the tensor one at a time (``_components``), and each is ranked
(``stabilizer_dim``, once per class of equal local matrices) or has its
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
from .errors import check_peak
from .fields import DEFAULT_PRIME
from .linalg import Matrix, _integral, _kernel, _rank, _slot_bytes, components
from .linalg import rank  # noqa: F401  (kept importable here for code that wraps it)
from .tensors import Tensor, lin_index

def system_bytes(nnz: int, shape: tuple[int, ...]) -> int:
    """Bytes that ranking the system of a tensor with nnz nonzeros and this shape holds past its components.

    That is what ``_components`` holds for the whole tensor: nnz * d fibre
    entries, about 120 B each, and a label and counts per column, sum(shape[j]**2)
    columns of about 150 B.  Both are priced from peak RSS past `import tngeom.cli`
    on a 2-core host with Python 3.11: `stabilizer` on a dense (2,)^14 tensor,
    229376 fibre entries and rows of 458752 nonzeros, grew by 54 MB; on (400, 400,
    400) with one nonzero, 480000 columns and nothing else, by 57 MB.
    """
    return 120 * nnz * len(shape) + 150 * sum(s * s for s in shape)


def _component_bytes(cols: int, rows: int, longest: int, prime: int) -> int:
    """Bytes that ranking one component of cols columns and rows rows holds, on rows of at most longest nonzeros.

    Its rows as read, at most rows * min(cols, longest) nonzeros of about 80 B,
    and up to min(rows, cols) pivot rows of cols slots, each packed in
    ``linalg._slot_bytes`` and kept as a dict of about 30 B a slot, which the
    kernel lift over Q back-solves.  Measured as in ``system_bytes``: a dense
    20 x 20 x 20 tensor over Q, one component of 8000 rows of 60 nonzeros and
    1200 columns, grew by 81 MB against a prediction of 97 MB, 55 MB of it for
    the pivot rows.
    """
    pivots = min(rows, cols)
    return 80 * rows * min(cols, longest) + (_slot_bytes(prime, pivots) + 30) * pivots * cols


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
    E_kl in slot j.  It has nnz(t) * sum(shape) nonzeros.  No command
    builds it, and no budget holds it.
    """
    shape = t.shape
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
    # every value is a nonzero scalar of t's field, so the cells need no checks
    nz = {r * total + c: v for r, row in rows.items() for c, v in row.items()}
    return StabilizerSystem(Matrix._from_flat((prod(shape), total), nz, t.field), shape, tuple(offsets))


def _components(t: Tensor) -> tuple[array, Iterator[tuple[list[int], list[dict], int, bool]]]:
    """The connected components of t's system that some row holds, read off the tensor.

    The system is never built.  Row r holds, for each slot j, the nonzeros of t
    on the fibre through r along slot j (the indices of r with slot j free):
    the value t[r with slot j set to l] at column (j, r_j, l).  So the rows are
    read off the fibres, which cost O(nnz(t) * d), and no row is held past its
    component.  The components come from the fibres, not the rows.  In slot j,
    fibre f holds column (j, k, l) at row f + k * stride for every k and each
    l of f, so a per-slot search joins the l's that share a fibre into
    classes, and each class is one connected set of columns at every k.  Only a
    row whose fibres are nonempty in two slots or more joins one slot's sets
    to another's.  It links its columns in each two such slots i < j with no
    such slot between, and these links are found from slot i: by joining slot
    i's fibre keys with slot j's on the other coordinates, which meets only
    rows nonempty in both, or, where a join would meet more rows than slot i
    has (a dense tensor), by visiting slot i's rows.  ``linalg.components`` of
    those links is the one search of the system's columns.  A component's rows
    are the fibres of its classes, one row per fibre and k, less one for each
    link between slots.  The peak is checked (``errors.check_peak``) before the
    fibres are built, from ``system_bytes``, and again before this returns,
    with the largest ``_component_bytes`` of a component's columns and rows
    added.  A component of one column has rank 1 and no kernel, since each of
    its rows holds the column with a nonzero value: its column alone is
    returned, in an array of them.  Every other component is yielded in turn by
    the generator returned, as (columns, rows, s, shared).  Its rows, in row
    order, are each {column: integer value} (``linalg._integral``); s is the
    number of slots in which it holds a diagonal column (j, k, k), the slots
    its part of the scalar rows reaches (``stabilizer_dim``); shared says
    whether another component has as many columns and rows.  A column that no
    row holds is free, is in no component and costs no object.
    """
    shape, nz = t.shape, t._nz
    held = system_bytes(len(nz), shape)
    check_peak(held, "ranking this tensor's stabilizer system")
    ints = set(map(type, nz.values())) <= {int}  # else a row with a Fraction is scaled to integers
    strides = [prod(shape[j + 1:]) for j in range(len(shape))]
    offsets = list(accumulate((s * s for s in shape), initial=0))
    slots = list(zip(strides, shape, offsets))
    fibres: list[dict[int, list]] = [{} for _ in shape]  # slot j: {flat index with slot j at 0: [(l, value)]}
    for flat, v in nz.items():
        for fib, (st, s, _) in zip(fibres, slots):
            l = flat // st % s
            fib.setdefault(flat - l * st, []).append((l, v))
    # slot j: the class of each l, and {class: the keys of its fibres}
    classes = [components(([l for l, _ in f] for f in fib.values()), s) for fib, (_, s, _) in zip(fibres, slots)]
    members: list[dict[int, list]] = [{} for _ in shape]
    for fib, cls, by in zip(fibres, classes, members):
        for b, f in fib.items():
            by.setdefault(cls[f[0][0]], []).append(b)

    def row(r: int) -> dict:
        out = {}
        for fib, (st, s, off) in zip(fibres, slots):
            k = r // st % s
            if f := fib.get(r - k * st):
                at = off + k * s
                for l, v in f:
                    out[at + l] = v
        return out if ints else _integral(out)

    size, repeats = prod(shape), Counter()  # the links between slots, at the column of slot i each starts from

    def links():
        for cls, (_, s, off) in zip(classes, slots):
            joined: dict[int, list] = {}
            for l, a in enumerate(cls):
                if a != l:
                    joined.setdefault(a, [a]).append(l)
            for k in range(off, off + s * s, s):
                yield from ([k + l for l in ls] for ls in joined.values())
        # a row that spans slots links its columns in each two slots i < j of it with none between, met from
        # slot i: by visiting slot i's rows, or by joining slot i's fibres with slot j's on the coordinates
        # other than i and j when that meets fewer rows; a join meets at least |R_i| + |R_j| - size of them
        for i, (fi, (si, ni, oi)) in enumerate(zip(fibres, slots)):
            later, rows = list(zip(fibres[i + 1:], slots[i + 1:])), len(fi) * ni
            if rows <= sum(len(fi) + len(fj) + max(0, rows + len(fj) * s - size) for fj, (_, s, _) in later):
                for b, f in fi.items():
                    for y in range(ni):
                        r = b + y * si
                        for fj, (sj, nj, oj) in later:
                            if g := fj.get(r - (x := r // sj % nj) * sj):
                                repeats[at := oi + y * ni + f[0][0]] += 1
                                yield at, oj + x * nj + g[0][0]
                                break
                continue
            for n, (fj, (sj, nj, oj)) in enumerate(later):
                rest: dict[int, list] = {}  # slot j's fibres by their coordinates other than i: (r_i, column)
                for b, f in fj.items():
                    y = b // si % ni
                    rest.setdefault(b - y * si, []).append((y, oj + f[0][0]))
                for b, f in fi.items():
                    x = b // sj % nj
                    for y, c in rest.get(b - x * sj, ()):
                        r = b + y * si
                        if not any(r - r // st % s * st in fm for fm, (st, s, _) in later[:n]):
                            repeats[at := oi + y * ni + f[0][0]] += 1
                            yield at, c + x * nj

    label = components(links(), offsets[-1])
    col_count = Counter(label)
    row_count = Counter()
    for by, (_, s, off) in zip(members, slots):
        for a, keys in by.items():
            for k in range(off + a, off + s * s, s):
                row_count[label[k]] += len(keys)
    for c, n in repeats.items():
        row_count[label[c]] -= n
    del repeats
    shapes = Counter((col_count[a], n) for a, n in row_count.items() if col_count[a] > 1)
    # a row holds the fibre through it in each slot, so it has at most longest nonzeros
    longest = sum(max(map(len, fib.values()), default=0) for fib in fibres)
    prime = t.field.prime or DEFAULT_PRIME
    check_peak(held + max((_component_bytes(cols, rows, longest, prime) for cols, rows in shapes), default=0),
               "ranking this tensor's stabilizer system")
    singles, groups = array("q"), {}
    for c, a in enumerate(label):
        if col_count[a] > 1:
            groups.setdefault(a, []).append(c)
        elif a in row_count:
            singles.append(c)
    del label

    def each():
        for a, ccols in groups.items():
            found, diagonal = set(), set()
            for c in ccols:
                j = bisect_right(offsets, c) - 1
                st, s, off = slots[j]
                k, l = divmod(c - off, s)
                found.update(b + k * st for b in members[j].get(l, ()))  # class l's rows at k
                if k == l:
                    diagonal.add(j)
            yield ccols, [row(r) for r in sorted(found)], len(diagonal), shapes[col_count[a], row_count[a]] > 1

    return singles, each()


def _class_key(ccols: list[int], crows: list[dict], cap: int) -> tuple[int, int, frozenset]:
    """A component's local matrix: its column count, its cap, and its distinct rows on columns 0..n-1."""
    local = {c: i for i, c in enumerate(ccols)}
    return len(ccols), cap, frozenset(tuple(sorted((local[c], v) for c, v in row.items())) for row in crows)


def _class_rank(key: tuple[int, int, frozenset], prime: int | None) -> int:
    """The rank of a local matrix (``_class_key``), at most its cap."""
    n, cap, rows = key
    return _rank(list(range(n)), list(map(dict, rows)), prime, cap)


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

    Most components of a sparse tensor's system are copies of a few local
    matrices.  A component with as many columns and rows as another is
    keyed by its local matrix (``_class_key``), and each key is ranked
    once (``_class_rank``) for all its copies.  That is exact: equal
    matrices have equal rank, a repeated row adds none, and the cap is a
    bound on that same matrix.  A component of a shape of its own, such
    as the one component of a dense tensor, is ranked as it is.
    """
    singles, comps = _components(t)
    prime, rank, ranks = t.field.prime, len(singles), {}
    for ccols, crows, held, shared in comps:
        cap = len(ccols) - min(held, t.order - 1)
        if not shared:
            rank += _rank(ccols, crows, prime, cap)
            continue
        key = _class_key(ccols, crows, cap)
        if key not in ranks:
            ranks[key] = _class_rank(key, prime)
        rank += ranks[key]
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
    groups = chain((([c], [{c: 1}]) for c in singles), ((ccols, crows) for ccols, crows, *_ in comps))
    out = []
    for vec in _kernel(groups, offsets[-1], f.prime):
        mats = [{} for _ in shape]
        for c, v in vec.items():
            j = bisect_right(offsets, c) - 1
            mats[j][divmod(c - offsets[j], shape[j])] = v
        out.append(tuple(Matrix.from_nonzeros(s, s, m, f) for s, m in zip(shape, mats)))
    return out
