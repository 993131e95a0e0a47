"""Exact matrices and elimination over the rationals or a prime field.

Rank is the workhorse: stabilizer computations reduce to the exact rank
of a matrix, and Jacobian ones to a rank mod p.  A linear system falls
apart into the connected components of the graph that joins two columns
sharing a row (a union-find, ``components``), and its rank, pivots and
kernel are those of its components together.  A system's components are
found once: a matrix's by ``_split``, for ``rank`` and
``pivot_columns``; a stabilizer
system's from the tensor, by ``stabilizer.stabilizer_dim`` and
``stabilizer.stabilizer_tuples``, which never build it.  Each component
is then handled on its own and never searched again.  ``_eliminate``
ranks it mod a prime: a component of one column has rank 1 or 0, and
every other one is eliminated densely on its own columns, each row
packed into one Python int of W-bit slots with delayed reduction (``_packed_eliminate``, W = bit_length(p + min(rows,
cols) * p**2) + 1).  ``_lift`` turns its eliminations into an exact
kernel, and ``_rank`` into an exact rank.  Stabilizer systems fall apart
into many small components; a dense system is one.  A cap, a bound on a
component's rank vouched for by vectors known to lie in its kernel (a
stabilizer system's scalar rows), stops its elimination early: its rows
are read in a strided order and no further than the row that reaches the
cap.  The 343 x 147 system of a dense 7 x 7 x 7 tensor has rank 145, its
cap: 145 rows are read, and the exact rank over Q takes 0.04 s, against
0.1 s for all rows, back-solve, lift and check (2-core host, Python 3.11).

Rows are read as integers (``_integral_rows``): an int entry as it is,
with no lcm or content pass; only a row that holds a Fraction is
multiplied by the lcm of its denominators, so no denominator is inverted
mod p.  Each value is reduced mod p as its row is packed, so one set of
rows serves every prime and the exact check.  Each row read is a nonzero
integer multiple of its row over Q, so the rank mod p is at most the rank
over Q, and A x = 0 holds for the rows read exactly when it holds for A.

Every kernel and exact rank comes from one path, ``_lift``, on the rows
of one component: eliminate mod p, back-solve one kernel
vector per free column (1 there, 0 at the other free columns), and over
Fp stop there.  Over Q every entry is lifted
to a fraction by rational reconstruction (Wang 1981) and A x = 0 is
checked exactly over the integers.  The count is exact by two bounds.
Vectors that pass the check lie in the kernel over Q, and they are
independent, so the nullity over Q is at least their number, cols - rank
mod p.  A minor that is nonzero mod p is nonzero over Q, so rank over Q
is at least rank mod p, and the nullity over Q is at most that number.
When an entry does not lift or the check fails (a kernel of large
height, or a prime that divides a minor), the next prime below is
eliminated too and the residues are combined by CRT until the check
passes.  A prime on which a component reaches its cap is exact with no
back-solve or lift.  The rank of a component over Q is its column count
less the nullity of its lifted kernel, or its row count less that of its
transpose's, and ``_kernel`` gathers the kernel of a system's components.
The exact check packs the vectors into one int per column
(``_annihilates``).  A Jacobian's rank does not take this path:
``jacobian`` needs only its rank mod p, a lower bound, which
``_packed_eliminate`` reads on rows built one at a time.

Matrices, like tensors, are immutable ``SparseArray`` values that store
only their nonzero entries, keyed by row-major flat index, so a large
mostly-zero system costs memory in proportion to its nonzeros.  The dense
``entries`` tuple is built on demand.  Over Fp the values are ints, reduced
mod p where they are stored (``SparseArray._fill``), so every stored value
is a residue in [0, p) and the operations need no branch on the field.
"""

from __future__ import annotations

from collections.abc import Iterable, Sized
from fractions import Fraction
from math import gcd, isqrt, lcm, prod

from .errors import SemanticError, ShapeError
from .fields import DEFAULT_PRIME, QQ, Field, is_probable_prime


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

    def _fill(self, shape: tuple[int, ...], nz: dict, field: Field, reduce: bool = True) -> None:
        """Set the attributes; over Fp the values are reduced mod p here, and the zeros dropped."""
        if reduce and (p := field.prime):
            nz = {k: r for k, v in nz.items() if (r := v % p)}
        object.__setattr__(self, "shape", shape)
        object.__setattr__(self, "field", field)
        object.__setattr__(self, "_nz", nz)

    @classmethod
    def _from_flat(cls, shape: tuple[int, ...], nz: dict, field: Field):
        """Wrap a {flat_index: nonzero scalar} dict; it is copied only to be reduced mod p."""
        a = object.__new__(cls)
        a._fill(shape, nz, field)
        return a

    @classmethod
    def _held(cls, shape: tuple[int, ...], nz: dict, field: Field):
        """Wrap a dict of nonzero scalars, reduced mod p over Fp, as it is: the array holds it."""
        a = object.__new__(cls)
        a._fill(shape, nz, field, reduce=False)
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


def _split(rows: list[dict], cols: int) -> list[tuple[list[int], list[dict]]]:
    """(columns, rows) of each connected component (``components``) that some row holds.

    A row update only combines rows that share a column, so no row leaves
    the columns of its component: the rank, pivots and kernel of the rows
    are those of the components together.  A column that no row holds is
    free, and is in no group.  This is the one search of a matrix's rows.
    """
    label = components(rows, cols)
    groups: dict[int, tuple[list[int], list[dict]]] = {}  # label -> (columns, rows)
    for row in rows:
        for c in row:
            groups.setdefault(label[c], ([], []))[1].append(row)
            break
    for c, a in enumerate(label):
        if a in groups:
            groups[a][0].append(c)
    return list(groups.values())


def _eliminate(cols: list[int], rows: list[dict], prime: int, cap: int, pivots: list | None) -> int:
    """Rank mod prime of one component's integer rows {column: value} on its columns, stopped at cap.

    A component of one column has rank 1 if a row holds it with a value
    prime does not divide, else 0.  Every other one is eliminated densely
    on its own columns (``_packed_eliminate``), its rows read in a strided
    order (``_strided``) and no further than the row that reaches cap, a
    bound on its rank that the caller vouches for.  Given a pivots list,
    each pivot row, scaled to 1 at its pivot column, is appended as (pivot
    column, {other column: residue}).  A pivot row holds no pivot column
    found before it, which is what ``_back_solve`` needs.
    """
    if len(cols) > 1:
        return _packed_eliminate(_strided(rows), cols, prime, pivots, cap)
    if any(row[cols[0]] % prime for row in rows):
        if pivots is not None:
            pivots.append((cols[0], {}))
        return 1
    return 0


def _strided(rows: list) -> list:
    """The n rows in the order k * s mod n, s near n / golden ratio and coprime to n.

    Rows laid out row-major, as a stabilizer system's are, come in runs
    that share most of their columns; this order leaves each run at once,
    so a dense component reaches its rank after about as many rows.
    """
    n = len(rows)
    s = max(1, (isqrt(5 * n * n) - n) // 2)
    while gcd(s, n) != 1:
        s += 1
    return [rows[k * s % n] for k in range(n)]


def _packed_eliminate(rows: Iterable[dict], cols: list[int], prime: int, pivots: list | None,
                      cap: int | None = None) -> int:
    """Rank mod prime of integer rows on the given columns, by dense elimination on packed rows.

    Each row is one Python int of W-bit slots, slot i holding column
    cols[i] mod prime, so a row update is one big-int multiply-add run in C.
    Reduction is delayed (Dumas, Giorgi and Pernet, FFLAS-FFPACK 2008): a
    row is reduced by the earlier pivots in the order they were found,
    each update adds (prime - v) times a pivot row whose slots are below
    prime, and only a row that becomes a pivot is reduced slot by slot and
    scaled to 1 at its column.  A slot starts below prime and takes one
    update of less than prime**2 per earlier pivot, at most min(rows,
    columns) of them, so W, the bit length of prime + min(rows, columns) *
    prime**2 plus one, rounded up to whole bytes, never carries into the
    next slot.  rows may be a stream with no length, read one row at a
    time; W is then bounded by the column count alone.

    The elimination stops at cap pivots (by default one per column), a
    bound on the rank that the caller vouches for, so a component that
    reaches it skips its last rows, and a stream is read no further.
    Pivot rows are appended to pivots as ``_eliminate`` says.
    """
    n = len(cols)
    local = {c: i for i, c in enumerate(cols)}
    updates = min(len(rows), n) if isinstance(rows, Sized) else n
    size = ((prime + updates * prime * prime).bit_length() + 8) // 8  # bytes per slot
    width, mask = n * size, (1 << 8 * size) - 1
    found: list[tuple[int, int]] = []  # (bit offset of its slot, row: 1 there, 0 at earlier pivot slots)
    free = list(range(n))
    cap = n if cap is None else cap

    def slot(buf: bytes, i: int) -> int:
        return int.from_bytes(buf[i * size:(i + 1) * size], "little")

    for row in rows:
        buf = bytearray(width)
        for c, v in row.items():
            i = local[c] * size
            buf[i:i + size] = (v % prime).to_bytes(size, "little")
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
            pivots.append((cols[pc], rest))
        del free[k]
        if len(found) == cap:
            break
    return len(found)


def _integral(row: dict) -> dict:
    """A row of ints and Fractions times the lcm of its denominators, as ints; a row of ints as it is."""
    if all(type(v) is int for v in row.values()):
        return row
    mult = lcm(*(v.denominator for v in row.values()))
    return {c: v.numerator * (mult // v.denominator) for c, v in row.items()}


def _integral_rows(m: Matrix):
    """Nonzero rows of a matrix, one at a time, each times the lcm of its denominators (``_integral``)."""
    ints = set(map(type, m._nz.values())) <= {int}  # then every denominator is 1
    for _, row in _rows(m):
        yield row if ints else _integral(row)


def rank(m: Matrix) -> int:
    """Exact rank; independent of row and column order.

    The sum of the exact ranks (``_rank``) of the components (``_split``)
    of m's integer rows (``_integral_rows``).
    """
    return sum(_rank(cols, rows, m.field.prime, len(cols))
               for cols, rows in _split(list(_integral_rows(m)), m.cols))


def _rank(cols: list[int], rows: list[dict], field_prime: int | None, cap: int) -> int:
    """Exact rank of integer rows on cols, over Fp or, with field_prime None, Q; at most cap.

    The rows are one component's, a matrix's (``rank``) or a stabilizer
    system's (``stabilizer.stabilizer_dim``); each is nonzero on cols.

    Over Fp it is the rank mod p (``_eliminate``).  Over Q it is the column
    count less the nullity of the lifted kernel (``_lift``) of whichever of
    the rows and their transpose has fewer columns; cap, a bound on the
    rank, ends the elimination of the rows early, and the transpose is
    lifted uncapped.
    """
    if field_prime is not None:
        return _eliminate(cols, rows, field_prime, cap, None)
    if len(rows) < len(cols):
        n = len(rows)
        return n - len(_lift(list(range(n)), _transpose(rows), None, n)[0])
    return len(cols) - len(_lift(cols, rows, None, cap)[0])


def _transpose(rows: list[dict]) -> list[dict]:
    """The nonzero columns of the rows, as rows {row index: value}."""
    out: dict[int, dict] = {}
    for i, row in enumerate(rows):
        for c, v in row.items():
            out.setdefault(c, {})[i] = v
    return list(out.values())


def pivot_columns(m: Matrix, prime: int | None = None) -> set[int]:
    """Pivot columns of the elimination of m mod prime, component by component (``_split``, ``_eliminate``).

    There are as many as the rank of m mod prime, and as many rows of m
    are square and invertible mod prime on them.  The prime is by default
    the field's, or DEFAULT_PRIME over Q.  A rational matrix is read with
    its rows scaled to integers (``_integral_rows``), so any prime reads it.
    """
    prime, pivots = prime or m.field.prime or DEFAULT_PRIME, []
    for cols, rows in _split(list(_integral_rows(m)), m.cols):
        _eliminate(cols, rows, prime, len(cols), pivots)
    return {pc for pc, _ in pivots}


def _back_solve(pivots: list, cols: list[int], prime: int) -> tuple[list[int], dict[int, dict]]:
    """Kernel mod prime of eliminated rows on cols: the free columns, and {column c: {free f: x_f[c]}}.

    x_f is the kernel vector that is 1 at free column f and 0 at the other
    free columns.  A pivot row holds no pivot column chosen before it, so
    solving the rows last to first finds the other columns of each row
    already solved.
    """
    taken = {pc for pc, _ in pivots}
    free = [c for c in cols if c not in taken]
    x = {f: {f: 1} for f in free}
    for pc, prow in reversed(pivots):
        acc: dict = {}
        for c, v in prow.items():
            for f, w in x[c].items():
                acc[f] = acc.get(f, 0) - v * w
        x[pc] = {f: r for f, s in acc.items() if (r := s % prime)}
    return free, x


def _kernel_vectors(free: list[int], x: dict[int, dict]) -> list[dict]:
    """The kernel vectors of a back-solve as {column: nonzero value}, in free column order."""
    vecs: dict[int, dict] = {f: {} for f in free}
    for c, col in x.items():
        for f, v in col.items():
            vecs[f][c] = v
    return list(vecs.values())


def _kernel(groups: Iterable[tuple[list[int], list[dict]]], cols: int, field_prime: int | None) -> list[dict]:
    """Exact kernel vectors of integer rows on range(cols), given as their components' (columns, rows).

    One vector {column: nonzero value} per free column f, in column order:
    1 at f and 0 at the other free columns.  A component's vectors are
    lifted from its own rows (``_lift``); a column in no component is free
    and its vector is 1 there alone.
    """
    by_free: dict[int, dict] = {}
    held = set()
    for ccols, rows in groups:
        held.update(ccols)
        by_free.update(zip(*_lift(ccols, rows, field_prime, len(ccols))))
    by_free.update((c, {c: 1}) for c in range(cols) if c not in held)
    return [by_free[f] for f in sorted(by_free)]


def _lift_residue(r: int, modulus: int, bound: int) -> Fraction | None:
    """The a/b with |a|, b <= bound and a = b*r mod modulus, or None (Wang 1981).

    The half extended Euclid stops at the first remainder within the
    bound; with 2*bound**2 < modulus there is at most one such fraction.
    """
    r0, r1, t0, t1 = modulus, r, 0, 1
    while r1 > bound:
        q = r0 // r1
        r0, r1, t0, t1 = r1, r0 - q * r1, t1, t0 - q * t1
    if abs(t1) > bound or gcd(r1, t1) != 1:
        return None
    return Fraction(r1, t1)


def _lift(cols: list[int], rows: list[dict], field_prime: int | None,
          cap: int) -> tuple[list[int], list[dict] | None]:
    """Free columns and exact kernel vectors of one component's integer rows, over as many primes as it takes.

    The component is a matrix's (``rank``) or a stabilizer system's
    (``stabilizer.stabilizer_dim``, ``stabilizer.stabilizer_tuples``), over
    Fp or, field_prime None, over Q.
    Each prime eliminates the rows mod p (``_eliminate``), stopped at cap,
    and back-solves one kernel vector per free column, as {column: nonzero
    value}.  Over Fp the prime is the field's and its back-solve is
    the answer.  Over Q the primes are DEFAULT_PRIME and then the primes
    below it.  A prime whose rank reaches cap ends the lift with the free
    columns and no vectors (None), or an empty kernel when cap is the
    column count: the caller vouches for a kernel of len(cols) - cap
    dimensions over Q, and the nullity over Q is at most the nullity mod
    p.  Over Q the (rank, free columns) of a prime is compared with the
    best seen: a higher rank wins, and at equal rank the larger list of
    free columns does, since the pivot columns are the column rank profile
    and a prime that divides a minor can only move a pivot to a later
    column.  A winner restarts the residues, a tie is combined with them by
    CRT, and a loser is skipped.  After each restart or tie the residues
    mod M, the product of their primes, are lifted with bound isqrt(M/2)
    and checked, A x = 0 over the integers, on these rows alone.  The lift
    ends: with H the Hadamard bound of the rows, every prime of a losing
    rank or profile divides one nonzero minor, so their product is at most
    H; once the product of the primes tried before the last passes 2 H**3,
    M passes 2 H**2, and every entry, a ratio of minors, lifts.  A check
    that still fails is an internal error.  So a second prime is always
    tried, even for a component whose H is below the first prime.
    """
    prime = field_prime or DEFAULT_PRIME
    best, modulus, x, tried, limit = (-1, []), 1, {}, 1, None
    while True:
        pivots: list = []
        rk = _eliminate(cols, rows, prime, cap, pivots)
        if rk == cap:
            taken = {pc for pc, _ in pivots}
            free = [c for c in cols if c not in taken]
            return free, None if free else []
        free, y = _back_solve(pivots, cols, prime)
        if field_prime is not None:
            return free, _kernel_vectors(free, y)
        seen = (rk, free)
        if seen > best:
            best, modulus, x = seen, prime, y
        elif seen == best:
            x, modulus = _crt(x, modulus, y, prime), modulus * prime
        if seen == best and (vecs := _lifted_vectors(rows, free, x, modulus)) is not None:
            return free, vecs
        if limit is None:  # bits of 2 H**3
            limit = 1 + 3 * sum((sum(v * v for v in row.values()).bit_length() + 1) // 2 for row in rows)
        if tried.bit_length() > limit:
            raise RuntimeError("the kernel did not lift within the Hadamard bound")
        tried *= prime
        prime = next(q for q in range(prime - 2, 2, -2) if is_probable_prime(q))


def _crt(x: dict[int, dict], modulus: int, y: dict[int, dict], prime: int) -> dict[int, dict]:
    """The back-solves x mod modulus and y mod prime combined into one mod modulus * prime."""
    inv = pow(modulus, -1, prime)
    out = {}
    for c in x.keys() | y.keys():
        a, b = x.get(c, {}), y.get(c, {})
        out[c] = {f: v for f in a.keys() | b.keys()
                  if (v := a.get(f, 0) + modulus * ((b.get(f, 0) - a.get(f, 0)) * inv % prime))}
    return out


def _lifted_vectors(rows: list[dict], free: list[int], x: dict[int, dict], modulus: int) -> list[dict] | None:
    """The back-solve x mod modulus lifted to fractions and checked exactly on the integer rows, or None."""
    bound = isqrt(modulus // 2)
    lifted: dict[int, dict] = {}
    denom = dict.fromkeys(free, 1)
    for c, col in x.items():
        out = lifted[c] = {}
        for f, r in col.items():
            q = _lift_residue(r, modulus, bound)
            if q is None:
                return None
            out[f] = q
            denom[f] = lcm(denom[f], q.denominator)
    # each x_f times the lcm of its denominators, as integers, column by column, at the columns rows hold
    held = {c for row in rows for c in row}
    scaled = {c: [(f, q.numerator * (denom[f] // q.denominator)) for f, q in col.items()]
              for c, col in lifted.items() if c in held}
    norm = max((sum(map(abs, row.values())) for row in rows), default=1)
    return _kernel_vectors(free, lifted) if _annihilates(rows, norm, scaled) else None


def _annihilates(rows: Iterable[dict], norm: int, by_col: dict[int, list]) -> bool:
    """True when every integer row r has sum_c r[c] * x[c] == 0 for every
    integer vector x, the vectors given column by column as {c: [(x, x[c])]}.

    norm bounds the L1 norm of every row.  Each column's entries are packed
    into one int, x_i[c] * 2**(W*i), so a nonzero of a row costs one
    multiply-add and a row one test acc == 0.  A caller may pass only the
    columns some row holds, since no row sum reads another, so a kernel of
    many vectors that each hold a column no row reads costs no int per
    vector there.  Row r has slot
    sums s_i = sum_c r[c] * x_i[c], |s_i| at most B = max |x[c]| times
    norm, and W is the bit length of B plus a sign and a guard bit.  If
    the packed sum, sum_i s_i * 2**(W*i), is zero and s_i is its first
    nonzero slot sum, 2**W divides s_i, which cannot be.

    The vectors are a lift's (``_lifted_vectors``) or the tests' oracle's;
    no Jacobian sample calls it.
    """
    width = (max((abs(w) for col in by_col.values() for _, w in col), default=0) * norm).bit_length() + 2
    slots: dict = {}
    packed = {c: sum(w << width * slots.setdefault(f, len(slots)) for f, w in col)
              for c, col in by_col.items() if col}
    for row in rows:
        acc = 0
        for c, v in row.items():
            if (w := packed.get(c)) is not None:
                acc += v * w
        if acc:
            return False
    return True
