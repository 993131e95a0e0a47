"""Exact matrices and elimination over the rationals or a prime field.

Rank is the workhorse: stabilizer and Jacobian computations reduce to the
rank of an exact matrix.  Every elimination mod p runs in one kernel,
``_eliminate_mod_p``: the rank over Fp, ``rank_mod_p``, ``lifted_kernel``
and ``kernel_basis`` over Fp.  It splits the rows into the connected
components of the graph that joins two columns sharing a row (a
union-find, ``components``), since the rank is the sum of the ranks of
the components.  A component of one column has rank 1 or 0.  Every other
one is eliminated densely on its own columns, each row packed into one
Python int of W-bit slots with delayed reduction (``_packed_eliminate``,
W = bit_length(p + min(rows, cols) * p**2) + 1).  Stabilizer systems fall
apart into many small components; a dense system is one.  On the 343 x
147 system of a dense 7 x 7 x 7 tensor, elimination and back-solve mod
2^31 - 1 take 0.09 s (2-core host, Python 3.11).  Over Q a
rank mod p bounds the rank from below, and ``annihilates``, a check of
A B^T = 0 over the integers, bounds the nullity from below by the rank
of B when B's rows are known to be kernel vectors.

Rows are read mod p in one pass and reduced in place
(``_residue_rows``), so one set of rows is held.  Over Q an int entry
is reduced as it is, with no lcm or content pass; only a matrix that
holds a Fraction has each row multiplied by the lcm of its denominators
first (``_integral_rows``), so no denominator is inverted mod p.  Each
row read is a nonzero integer multiple of its row over Q, so the rank
mod p is still at most the rank over Q, and A x = 0 holds for the rows
read exactly when it holds for A.  A row that vanishes mod p can only
lower the rank mod p; a lift then fails its check and falls back.

The exact rank over Q is a fraction-free sparse elimination
(``_eliminate``): rows are cleared to integers, and each update cross
multiplies and then divides the row by its content, which keeps entries
at the size of minors or below.

Fraction-free elimination costs more as its entries grow, so a kernel
over Q whose vectors have small entries is cheaper to find mod a prime:
``lifted_kernel`` eliminates once mod p, back-solves one kernel vector
per free column (1 there, 0 at the other free columns), lifts every
entry to a fraction by rational reconstruction and checks A x = 0 exactly
over the integers.  The count is exact by two bounds.  Vectors that pass
the check lie in the kernel over Q, and they are independent, so the
nullity over Q is at least their number, cols - rank mod p.  A minor that
is nonzero mod p is nonzero over Q, so rank over Q is at least rank mod
p, and the nullity over Q is at most that number.  If an entry does not
lift or a check fails (a kernel of large height, or a prime that divides
a minor and drops the rank mod p), it returns None and the caller falls
back to the exact elimination.  ``kernel_basis`` returns the lifted
kernel over Q when it holds; otherwise it runs the same back-solve after
the exact elimination, or after the one mod the matrix's own prime.

Matrices, like tensors, are immutable ``SparseArray`` values that store
only their nonzero entries, keyed by row-major flat index, so a large
mostly-zero system costs memory in proportion to its nonzeros.  The dense
``entries`` tuple is built on demand.
"""

from __future__ import annotations

import random
from collections.abc import Sequence
from fractions import Fraction
from math import gcd, isqrt, lcm, prod

from .errors import SemanticError, ShapeError, SingularMatrixError
from .fields import DEFAULT_PRIME, QQ, Field, PrimeField, RationalField

RANDOM_ENTRY_BOUND = 10**6


def lin_index(idx: tuple[int, ...], shape: tuple[int, ...]) -> int:
    flat = 0
    for i, s in zip(idx, shape):
        if not 0 <= i < s:
            raise ShapeError(f"index {idx} outside shape {shape}")
        flat = flat * s + i
    return flat


def multi_index(flat: int, shape: tuple[int, ...]) -> tuple[int, ...]:
    out = []
    for s in reversed(shape):
        flat, r = divmod(flat, s)
        out.append(r)
    return tuple(reversed(out))


class SparseArray:
    """Immutable exact array over a fixed field, holding only its nonzero
    entries as {row-major flat index: value}.  Matrix and Tensor share it."""

    __slots__ = ("shape", "field", "_nz")

    def __init__(self, shape: tuple[int, ...], entries, field: Field = QQ):
        vals = [field.coerce(x) for x in entries]
        if len(vals) != prod(shape):
            raise ShapeError(f"expected {prod(shape)} entries for shape {shape}, got {len(vals)}")
        self._fill(shape, {k: v for k, v in enumerate(vals) if v}, field)

    def _fill(self, shape: tuple[int, ...], nz: dict, field: Field) -> None:
        object.__setattr__(self, "shape", shape)
        object.__setattr__(self, "field", field)
        object.__setattr__(self, "_nz", nz)

    @classmethod
    def _from_flat(cls, shape: tuple[int, ...], nz: dict, field: Field):
        """Wrap a {flat_index: nonzero field scalar} dict without copying it."""
        a = object.__new__(cls)
        a._fill(shape, nz, field)
        return a

    @staticmethod
    def _flat_items(shape: tuple[int, ...], items, field: Field) -> dict:
        """{flat_index: value} from a dict or pairs of (index tuple, value); later pairs win."""
        nz = {}
        for idx, val in items.items() if isinstance(items, dict) else items:
            k = lin_index(tuple(idx), shape)
            v = field.coerce(val)
            if v:
                nz[k] = v
            else:
                nz.pop(k, None)
        return nz

    def __setattr__(self, name, value):
        raise AttributeError(f"{type(self).__name__} is immutable")

    @property
    def entries(self) -> tuple:
        """All entries in row-major order, built on each access."""
        data = [self.field.zero] * prod(self.shape)
        for k, v in self._nz.items():
            data[k] = v
        return tuple(data)

    def nonzeros(self):
        """(index tuple, value) for every nonzero entry, in row-major order."""
        nz = self._nz
        for k in sorted(nz):
            yield multi_index(k, self.shape), nz[k]

    def is_zero(self) -> bool:
        return not self._nz

    def _compat(self, other) -> None:
        if type(other) is not type(self):
            raise SemanticError(f"expected a {type(self).__name__}")
        if self.field != other.field:
            raise SemanticError(f"{type(self).__name__} operands live over different fields")
        if self.shape != other.shape:
            raise ShapeError(f"shape mismatch: {self.shape} vs {other.shape}")

    def __add__(self, other):
        self._compat(other)
        nz = dict(self._nz)
        for k, v in other._nz.items():
            s = nz[k] + v if k in nz else v
            if s:
                nz[k] = s
            else:
                del nz[k]
        return self._from_flat(self.shape, nz, self.field)

    def __sub__(self, other):
        self._compat(other)
        return self + -other

    def __neg__(self):
        return self._from_flat(self.shape, {k: -v for k, v in self._nz.items()}, self.field)

    def scale(self, s):
        s = self.field.coerce(s)
        nz = {k: s * v for k, v in self._nz.items()} if s else {}
        return self._from_flat(self.shape, nz, self.field)

    def __eq__(self, other):
        if type(other) is not type(self):
            return NotImplemented
        return self.field == other.field and self.shape == other.shape and self._nz == other._nz

    def __hash__(self):
        return hash((type(self).__name__, self.shape, frozenset(self._nz.items()), self.field))


class Matrix(SparseArray):
    """Immutable exact matrix; shape is (rows, cols)."""

    __slots__ = ()

    def __init__(self, rows: int, cols: int, entries, field: Field = QQ):
        super().__init__(_matrix_shape(rows, cols), entries, field)

    @property
    def rows(self) -> int:
        return self.shape[0]

    @property
    def cols(self) -> int:
        return self.shape[1]

    @classmethod
    def from_rows(cls, data, field: Field = QQ) -> "Matrix":
        data = [list(r) for r in data]
        rows = len(data)
        cols = len(data[0]) if rows else 0
        if any(len(r) != cols for r in data):
            raise ShapeError("ragged rows")
        return cls(rows, cols, [x for r in data for x in r], field)

    @classmethod
    def from_nonzeros(cls, rows: int, cols: int, items, field: Field = QQ) -> "Matrix":
        """Matrix with the given entries and zeros elsewhere.

        items maps (i, j) to a value, as a dict or as an iterable of
        ((i, j), value) pairs; a later pair for the same cell wins.
        """
        shape = _matrix_shape(rows, cols)
        return cls._from_flat(shape, cls._flat_items(shape, items, field), field)

    @classmethod
    def identity(cls, n: int, field: Field = QQ) -> "Matrix":
        one = field.one
        return cls._from_flat((n, n), {i * n + i: one for i in range(n)}, field)

    @classmethod
    def zeros(cls, rows: int, cols: int, field: Field = QQ) -> "Matrix":
        return cls._from_flat(_matrix_shape(rows, cols), {}, field)

    def at(self, i: int, j: int):
        return self._nz.get(lin_index((i, j), self.shape), self.field.zero)

    def row(self, i: int) -> list:
        base, zero = i * self.cols, self.field.zero
        return [self._nz.get(base + j, zero) for j in range(self.cols)]

    def to_rows(self) -> list[list]:
        return [self.row(i) for i in range(self.rows)]

    def transpose(self) -> "Matrix":
        r, c = self.shape
        nz = {(k % c) * r + k // c: v for k, v in self._nz.items()}
        return Matrix._from_flat((c, r), nz, self.field)

    def __matmul__(self, other: "Matrix") -> "Matrix":
        if self.field != other.field:
            raise SemanticError("Matrix operands live over different fields")
        if self.cols != other.rows:
            raise ShapeError(f"cannot multiply {self.rows}x{self.cols} by {other.rows}x{other.cols}")
        orows = dict(_rows(other))
        ncols = other.cols
        nz: dict = {}
        for i, row in _rows(self):
            base = i * ncols
            for k, a in row.items():
                for j, b in orows.get(k, {}).items():
                    pos = base + j
                    s = nz[pos] + a * b if pos in nz else a * b
                    if s:
                        nz[pos] = s
                    else:
                        del nz[pos]
        return Matrix._from_flat((self.rows, ncols), nz, self.field)

    def apply(self, vec: list) -> list:
        """Matrix times column vector."""
        if len(vec) != self.cols:
            raise ShapeError("vector length mismatch")
        v = [self.field.coerce(x) for x in vec]
        out = [self.field.zero] * self.rows
        for (i, j), a in self.nonzeros():
            x = v[j]
            if x:
                out[i] = out[i] + a * x
        return out

    def __repr__(self):
        return f"Matrix({self.rows}x{self.cols} over {self.field!r})"


def _matrix_shape(rows: int, cols: int) -> tuple[int, int]:
    if rows < 0 or cols < 0:
        raise ShapeError("matrix dimensions must be nonnegative")
    return rows, cols


def _rows(m: Matrix):
    """Nonzero rows as (i, {j: value}), one at a time, rows and columns in increasing order."""
    nz, cols = m._nz, m.cols
    last, row = -1, {}
    for k in sorted(nz):
        i, j = divmod(k, cols)
        if i != last:
            if row:
                yield last, row
            last, row = i, {}
        row[j] = nz[k]
    if row:
        yield last, row


def kron(a: Matrix, b: Matrix) -> Matrix:
    """Kronecker product; row-major convention, so kron(A, B) acts on vec(M) as A M B^T."""
    if a.field != b.field:
        raise SemanticError("Matrix operands live over different fields")
    ncols = a.cols * b.cols
    b_nz = list(b.nonzeros())
    nz = {}
    for (i, j), va in a.nonzeros():
        for (k, l), vb in b_nz:
            nz[(i * b.rows + k) * ncols + j * b.cols + l] = va * vb
    return Matrix._from_flat((a.rows * b.rows, ncols), nz, a.field)


def _eliminate(rows: list[dict], pivots: list | None = None) -> int:
    """Rank over Q of sparse primitive integer rows, by fraction-free elimination.

    Each update is pivot*row - entry*pivot_row followed by division of the
    row by its content; by the Sylvester identity the content absorbs at
    least the previous pivot, so growth stays at minor scale.  The pivot
    is the entry with the least (row length, |value|, row position,
    column), so the rows that are cheapest to combine go first and small
    pivots keep entries small.

    Rows wait in buckets keyed by (length, least |entry|), and every
    column knows the rows that hold it, so a step reads one bucket and
    updates only the rows that contain the pivot column.

    Given a pivots list, each step appends (pivot column, pivot value,
    the pivot row's other entries), for a back-solve.
    """
    buckets: dict[tuple[int, int], set[int]] = {}
    where: dict[int, tuple[int, int]] = {}
    by_col: dict[int, set[int]] = {}

    def place(r: int, row: dict) -> None:
        key = (len(row), min(map(abs, row.values())))
        where[r] = key
        buckets.setdefault(key, set()).add(r)

    for r, row in enumerate(rows):
        if row:
            place(r, row)
            for c in row:
                by_col.setdefault(c, set()).add(r)
    rank = 0
    while buckets:
        key = min(buckets)
        bucket = buckets[key]
        r = min(bucket)
        bucket.remove(r)
        if not bucket:
            del buckets[key]
        del where[r]
        prow, rows[r] = rows[r], None
        pc = min(c for c, v in prow.items() if abs(v) == key[1])
        rank += 1
        pv = prow.pop(pc)
        for c in prow:
            by_col[c].discard(r)
        targets = by_col.pop(pc)
        targets.discard(r)
        if pivots is not None:
            pivots.append((pc, pv, prow))
        for t in targets:
            row = rows[t]
            rv = row.pop(pc)
            new = {c: pv * v for c, v in row.items()}
            for c, v in prow.items():
                nv = new.get(c, 0) - rv * v
                if nv:
                    new[c] = nv
                else:
                    new.pop(c, None)
            g = gcd(*new.values())
            if g > 1:
                new = {c: v // g for c, v in new.items()}
            for c in prow:
                if c in new:
                    by_col[c].add(t)
                else:
                    by_col[c].discard(t)
            key = where.pop(t)
            buckets[key].discard(t)
            if not buckets[key]:
                del buckets[key]
            rows[t] = new or None
            if new:
                place(t, new)
    return rank


def components(rows, cols: int) -> list[int]:
    """Label of each column's connected component, in the graph that joins two columns when one row holds both.

    rows is an iterable of collections of columns in range(cols).  The
    search is a union-find over the columns of each row, O(nnz).  Two
    columns get the same label, one of the component's columns, exactly
    when they are connected; a row lies in the component of each of its
    columns, and a column that no row holds is a component of its own.
    """
    parent = list(range(cols))

    def root(a: int) -> int:
        while (p := parent[a]) != a:
            g = parent[p]
            parent[a] = g
            a = g
        return a

    for row in rows:
        if len(row) > 1:
            it = iter(row)
            a = root(next(it))
            for c in it:
                if parent[c] != a and (b := root(c)) != a:
                    parent[b] = a
    return [root(c) for c in range(cols)]


def _eliminate_mod_p(rows: list[dict], cols: int, prime: int, pivots: list | None = None,
                     labels: Sequence[int] | None = None) -> int:
    """Rank mod prime of rows of residues {column: residue}, one component at a time.

    A row update only combines rows that share a column, so no row leaves
    the columns of its connected component (``components``) and the rank
    is the sum of the ranks of the components.  A component of one column
    has rank 1 if a row holds it with a nonzero residue, else 0; every other
    one is eliminated densely on its own columns (``_packed_eliminate``).
    Given labels, the components of the rows' columns, the search is skipped.

    Given a pivots list, each pivot row is appended as (pivot column, 1,
    {other column: residue}).  A pivot row holds no pivot column found
    before it, which is what ``_back_solve`` needs.
    """
    label = components(rows, cols) if labels is None else labels
    groups: dict[int, tuple[list[int], list[dict]]] = {}  # label -> (columns, rows)
    for c, a in enumerate(label):
        groups.setdefault(a, ([], []))[0].append(c)
    for row in rows:
        for c in row:
            groups[label[c]][1].append(row)
            break
    rank = 0
    for ccols, crows in groups.values():
        if len(ccols) > 1:
            rank += _packed_eliminate(crows, ccols, prime, pivots)
        elif any(row[ccols[0]] for row in crows):
            rank += 1
            if pivots is not None:
                pivots.append((ccols[0], 1, {}))
    return rank


def _packed_eliminate(rows: list[dict], cols: list[int], prime: int, pivots: list | None) -> int:
    """Rank mod prime of residue rows on the given columns, by dense elimination on packed rows.

    Each row is one Python int of W-bit slots, slot i holding column
    cols[i], so a row update is one big-int multiply-add run in C.
    Reduction is delayed (Dumas, Giorgi and Pernet, FFLAS-FFPACK 2008): a
    row is reduced by the earlier pivots in the order they were found,
    each update adds (prime - v) times a pivot row whose slots are below
    prime, and only a row that becomes a pivot is reduced slot by slot and
    scaled to 1 at its column.  A slot starts below prime and takes at
    most min(rows, columns) updates of less than prime**2 each, so W, the
    bit length of prime + min(rows, columns) * prime**2 plus one, rounded
    up to whole bytes, never carries into the next slot.

    The elimination stops once every column holds a pivot, so a component
    of full column rank skips its last rows.  Pivot rows are appended to
    pivots as ``_eliminate_mod_p`` says.
    """
    n = len(cols)
    local = {c: i for i, c in enumerate(cols)}
    size = ((prime + min(len(rows), n) * prime * prime).bit_length() + 8) // 8  # bytes per slot
    width, mask = n * size, (1 << 8 * size) - 1
    found: list[tuple[int, int]] = []  # (bit offset of its slot, row: 1 there, 0 at earlier pivot slots)
    free = list(range(n))

    def slot(buf: bytes, i: int) -> int:
        return int.from_bytes(buf[i * size:(i + 1) * size], "little")

    for row in rows:
        buf = bytearray(width)
        for c, v in row.items():
            i = local[c] * size
            buf[i:i + size] = v.to_bytes(size, "little")
        x = int.from_bytes(buf, "little")
        for at, prow in found:
            if v := (x >> at & mask) % prime:
                x += (prime - v) * prow
        buf = x.to_bytes(width, "little")
        for k, pc in enumerate(free):
            if pv := slot(buf, pc) % prime:
                break
        else:
            continue
        inv, out, rest = pow(pv, -1, prime), bytearray(width), {}
        out[pc * size] = 1
        for i in free[k + 1:]:
            if r := slot(buf, i) * inv % prime:
                out[i * size:(i + 1) * size] = r.to_bytes(size, "little")
                if pivots is not None:
                    rest[cols[i]] = r
        found.append((8 * size * pc, int.from_bytes(out, "little")))
        if pivots is not None:
            pivots.append((cols[pc], 1, rest))
        del free[k]
        if not free:
            break
    return len(found)


def _integral_rows(m: Matrix):
    """Nonzero rows of a rational matrix, one at a time, each times the lcm of its denominators."""
    ints = set(map(type, m._nz.values())) <= {int}  # then every denominator is 1
    for _, row in _rows(m):
        if not ints:
            mult = lcm(*(v.denominator for v in row.values()))
            row = {c: v.numerator * (mult // v.denominator) for c, v in row.items()}
        yield row


def _integer_rows(m: Matrix) -> list[dict]:
    """Nonzero rows of a rational matrix, each scaled to primitive integers."""
    rows = list(_integral_rows(m))
    for row in rows:
        g = gcd(*row.values())
        if g > 1:
            for c, v in row.items():
                row[c] = v // g
    return rows


def _residue_rows(m: Matrix) -> tuple[list[dict], int]:
    """Nonzero rows of residues mod a prime, each reduced in place, and the prime.

    Over Fp the prime is the field's.  Over Q it is DEFAULT_PRIME, and the
    rows are read as integers (``_integral_rows``), so no denominator is
    inverted mod p; an entry divisible by p leaves a zero residue.
    """
    prime = m.field.prime
    if prime is None:
        prime = DEFAULT_PRIME
        rows = list(_integral_rows(m))
        for row in rows:
            for c, v in row.items():
                row[c] = v % prime
        return rows, prime
    rows = [row for _, row in _rows(m)]
    for row in rows:
        for c, v in row.items():
            row[c] = v.val
    return rows, prime


def rank(m: Matrix, labels: Sequence[int] | None = None) -> int:
    """Exact rank; independent of row and column order.

    Over Q by fraction-free elimination, over Fp by ``rank_mod_p``, which
    takes the labels.
    """
    if m.field.prime is None:
        return _eliminate(_integer_rows(m))
    return rank_mod_p(m, labels)


def rank_mod_p(m: Matrix, labels: Sequence[int] | None = None) -> int:
    """Rank mod p, component by component (``_eliminate_mod_p``).

    Over Fp this is the exact rank.  A rational matrix is ranked mod
    DEFAULT_PRIME with its rows scaled to integers; that is a lower bound
    on its rank over Q, since a minor that is nonzero mod p is nonzero over
    Q, and scaling a row by a nonzero integer scales its minors alike.
    labels, the column components of m (``components``) if they are
    known, spare the search.
    """
    rows, prime = _residue_rows(m)
    return _eliminate_mod_p(rows, m.cols, prime, labels=labels)


def kernel_dim(m: Matrix) -> int:
    """Dimension of the right kernel."""
    return m.cols - rank(m)


def _back_solve(pivots: list, cols: int, prime: int | None) -> tuple[list[int], dict[int, dict]]:
    """Kernel of eliminated rows: the free columns, and {column c: {free f: x_f[c]}}.

    x_f is the kernel vector that is 1 at free column f and 0 at the other
    free columns.  A pivot row holds no pivot column chosen before it, so
    solving the rows last to first finds the other columns of each row
    already solved.  Values are residues mod prime, and over Q ints at
    the free columns and Fractions elsewhere.
    """
    taken = {pc for pc, _, _ in pivots}
    free = [c for c in range(cols) if c not in taken]
    x = {f: {f: 1} for f in free}
    for pc, pv, prow in reversed(pivots):
        acc: dict = {}
        for c, v in prow.items():
            for f, w in x[c].items():
                acc[f] = acc.get(f, 0) - v * w
        if prime:
            x[pc] = {f: r for f, s in acc.items() if (r := s % prime)}
        else:
            x[pc] = {f: Fraction(s, pv) for f, s in acc.items() if s}
    return free, x


def _kernel_vectors(free: list[int], x: dict[int, dict]) -> list[dict]:
    """The kernel vectors of a back-solve as {column: nonzero value}, in free column order."""
    vecs: dict[int, dict] = {f: {} for f in free}
    for c, col in x.items():
        for f, v in col.items():
            vecs[f][c] = v
    return list(vecs.values())


def kernel_basis(m: Matrix) -> list[list]:
    """Basis of the right kernel, one coordinate vector per free column.

    Over Q the kernel lifted from one prime is tried first
    (``lifted_kernel``); if it fails, the rows are eliminated exactly.
    """
    vecs = lifted_kernel(m) if isinstance(m.field, RationalField) else None
    if vecs is None:
        prime = m.field.prime
        pivots: list = []
        if prime is None:
            _eliminate(_integer_rows(m), pivots)
        else:
            _eliminate_mod_p(_residue_rows(m)[0], m.cols, prime, pivots)
        vecs = _kernel_vectors(*_back_solve(pivots, m.cols, prime))
    basis = []
    for vec in vecs:
        dense = [m.field.zero] * m.cols
        for c, v in vec.items():
            dense[c] = m.field.coerce(v)
        basis.append(dense)
    return basis


def _lift_residue(r: int, prime: int, bound: int) -> Fraction | None:
    """The a/b with |a|, b <= bound and a = b*r mod prime, or None (Wang 1981).

    The half extended Euclid stops at the first remainder within the
    bound; with 2*bound**2 < prime there is at most one such fraction.
    """
    r0, r1, t0, t1 = prime, r, 0, 1
    while r1 > bound:
        q = r0 // r1
        r0, r1, t0, t1 = r1, r0 - q * r1, t1, t0 - q * t1
    if abs(t1) > bound or gcd(r1, t1) != 1:
        return None
    return Fraction(r1, t1)


def lifted_kernel(m: Matrix, labels: Sequence[int] | None = None) -> list[dict] | None:
    """Exact kernel basis of a rational matrix from one elimination mod p, or None.

    The rows are read mod p = DEFAULT_PRIME (``_residue_rows``) and
    eliminated, with labels as ``rank_mod_p`` takes them.  Each
    back-solved kernel vector, 1 at its free column and 0 at the other
    free columns, is lifted by rational reconstruction and checked,
    A x = 0 over the integers.  The vectors come back sparse, as
    {column: nonzero Fraction}, and their number is the exact nullity
    (see the module docstring).  None means an entry did not lift or a
    check failed, and the caller falls back to the exact elimination.
    """
    if not isinstance(m.field, RationalField):
        raise SemanticError("lifted_kernel expects a rational matrix")
    residues, prime = _residue_rows(m)
    pivots: list = []
    _eliminate_mod_p(residues, m.cols, prime, pivots, labels)
    del residues  # freed before the back-solve; the pivot rows are copies
    free, x = _back_solve(pivots, m.cols, prime)
    bound = isqrt(prime // 2)
    denom = dict.fromkeys(free, 1)
    for col in x.values():
        for f, r in col.items():
            q = _lift_residue(r, prime, bound)
            if q is None:
                return None
            col[f] = q
            denom[f] = lcm(denom[f], q.denominator)
    # each x_f times the lcm of its denominators, as integers, column by column
    scaled = {c: [(f, q.numerator * (denom[f] // q.denominator)) for f, q in col.items()] for c, col in x.items()}
    return _kernel_vectors(free, x) if _annihilates(_integral_rows(m), scaled) else None


def _annihilates(rows, by_col: dict[int, list]) -> bool:
    """True when each integer row r has sum_c r[c] * x[c] == 0 for every
    vector x, the vectors given column by column as {c: [(x, x[c])]}."""
    for row in rows:
        acc: dict = {}
        for c, v in row.items():
            for f, w in by_col.get(c, ()):
                acc[f] = acc.get(f, 0) + v * w
        if any(acc.values()):
            return False
    return True


def annihilates(a: Matrix, b: Matrix) -> bool:
    """True when A B^T = 0 over Q, i.e. every row of b lies in the right kernel of a.

    Checked exactly over the integers, on the rows of both matrices read
    as integers (``_integral_rows``), which scales each product by a
    nonzero integer.
    """
    if not isinstance(a.field, RationalField) or b.field != a.field:
        raise SemanticError("annihilates expects two rational matrices")
    if a.cols != b.cols:
        raise ShapeError(f"cannot multiply {a.rows}x{a.cols} by the transpose of {b.rows}x{b.cols}")
    by_col: dict[int, list] = {}
    for k, row in enumerate(_integral_rows(b)):
        for c, v in row.items():
            by_col.setdefault(c, []).append((k, v))
    return _annihilates(_integral_rows(a), by_col)


def _rref(m: Matrix) -> tuple[list[dict], list[int]]:
    """Reduced row echelon form as sparse rows plus ordered pivot columns."""
    zero, one = m.field.zero, m.field.one
    active = [row for _, row in _rows(m)]
    done: list[tuple[int, dict]] = []
    while active:
        # lowest column first, then the shortest row holding it
        pc, _, ri = min((c, len(row), ri) for ri, row in enumerate(active) for c in row)
        pivot_row = active.pop(ri)
        pv = pivot_row.pop(pc)
        if isinstance(pv, int):
            pv = Fraction(pv)  # a rational int: divide exactly
        pivot_row = {c: v / pv for c, v in pivot_row.items()}
        for row in active + [r for _, r in done]:
            rv = row.pop(pc, None)
            if rv is not None:
                for c, v in pivot_row.items():
                    nv = row.get(c, zero) - rv * v
                    if nv:
                        row[c] = nv
                    else:
                        row.pop(c, None)
        active = [row for row in active if row]
        pivot_row[pc] = one
        done.append((pc, pivot_row))
    done.sort(key=lambda t: t[0])
    return [r for _, r in done], [p for p, _ in done]


def inverse(m: Matrix) -> Matrix:
    """Inverse via Gauss-Jordan on the augmented system."""
    if m.rows != m.cols:
        raise ShapeError("only square matrices can be inverted")
    n = m.rows
    items = {(i, n + i): m.field.one for i in range(n)}
    items.update(m.nonzeros())
    rows, pivots = _rref(Matrix.from_nonzeros(n, 2 * n, items, m.field))
    if pivots[:n] != list(range(n)) or len(pivots) < n:
        raise SingularMatrixError("matrix is singular")
    nz = {i * n + c - n: m.field.coerce(v) for i in range(n) for c, v in rows[i].items() if c >= n}
    return Matrix._from_flat((n, n), nz, m.field)


def is_invertible(m: Matrix) -> bool:
    return m.rows == m.cols and rank(m) == m.rows


def random_matrix(rows: int, cols: int, seed: int, field: Field = QQ, bound: int = RANDOM_ENTRY_BOUND) -> Matrix:
    """Reproducible random matrix with integer entries uniform in [-bound, bound]."""
    rng = random.Random(seed)
    ent = [rng.randint(-bound, bound) for _ in range(rows * cols)]
    return Matrix(rows, cols, ent, field)


def random_invertible(n: int, seed: int, field: Field = QQ, bound: int = RANDOM_ENTRY_BOUND) -> Matrix:
    """First invertible sample along a deterministic seed chain."""
    for attempt in range(64):
        m = random_matrix(n, n, seed + 7919 * attempt, field, bound)
        if is_invertible(m):
            return m
    raise SemanticError("could not sample an invertible matrix")  # pragma: no cover


def rank_modulo_primes(m: Matrix, primes: list[int]) -> list[int]:
    """Rank of the same rational matrix reduced mod each given prime."""
    if not isinstance(m.field, RationalField):
        raise SemanticError("rank_modulo_primes expects a rational matrix")
    items = dict(m.nonzeros())
    return [rank(Matrix.from_nonzeros(m.rows, m.cols, items, PrimeField(p))) for p in primes]
