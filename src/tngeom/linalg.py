"""Exact matrices and elimination over the rationals or a prime field.

Rank is the workhorse: stabilizer and Jacobian computations reduce to the
rank of an exact matrix.  Every elimination runs mod a prime in one
kernel, ``_eliminate_mod_p``.  It splits the rows into the connected
components of the graph that joins two columns sharing a row (a
union-find, ``components``), since the rank is the sum of the ranks of
the components.  A component of one column has rank 1 or 0.  Every other
one is eliminated densely on its own columns, each row packed into one
Python int of W-bit slots with delayed reduction (``_packed_eliminate``,
W = bit_length(p + min(rows, cols) * p**2) + 1).  Stabilizer systems fall
apart into many small components; a dense system is one.  Vectors known
to lie in the kernel (a stabilizer system's scalar rows) cap the rank of
each component, whose elimination reads its rows in a strided order and
stops at the cap.  The 343 x 147 system of a dense 7 x 7 x 7 tensor has
rank 145, its cap: 145 rows are read, and the exact rank over Q takes
0.04 s, against 0.1 s for all rows, back-solve, lift and check (2-core
host, Python 3.11).

Rows are read mod p in one pass (``_residue_rows``), so one set of rows
is held: as they are stored when every value is a residue already (over
Fp, or ints in [0, p) over Q), else reduced in place.  An int entry
is reduced as it is, with no lcm or content pass; only a matrix that
holds a Fraction has each row multiplied by the lcm of its denominators
first (``_integral_rows``), so no denominator is inverted mod p.  Each
row read is a nonzero integer multiple of its row over Q, so the rank
mod p is at most the rank over Q, and A x = 0 holds for the rows read
exactly when it holds for A.

Every kernel and exact rank comes from one path, ``_lift``: eliminate
mod p, back-solve one kernel vector per free column (1 there, 0 at the
other free columns), and over Fp stop there.  Over Q every entry is lifted
to a fraction by rational reconstruction (Wang 1981) and A x = 0 is
checked exactly over the integers.  The count is exact by two bounds.
Vectors that pass the check lie in the kernel over Q, and they are
independent, so the nullity over Q is at least their number, cols - rank
mod p.  A minor that is nonzero mod p is nonzero over Q, so rank over Q
is at least rank mod p, and the nullity over Q is at most that number.
When an entry does not lift or the check fails (a kernel of large
height, or a prime that divides a minor), the next prime below is
eliminated too and the residues are combined by CRT until the check
passes.  A prime on which every component reaches its cap is exact with
no back-solve or lift.  ``rank`` over Q is the nullity of the lifted
kernel of A or of A^T, and ``kernel_basis`` is the kernel.
``annihilates``, a check of A B^T = 0 over the integers, bounds a nullity
from below by the rank of B when B's rows are known to be kernel
vectors.  Both checks pack the vectors into one int per column
(``_annihilates``).

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
from .fields import DEFAULT_PRIME, QQ, Field, RationalField, is_probable_prime


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
        """Set the attributes; over Fp the values are reduced mod p here, and the zeros dropped."""
        if p := field.prime:
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


def _eliminate_mod_p(rows: list[dict], cols: int, prime: int, pivots: list | None = None,
                     kernel: Matrix | None = None) -> tuple[int, int]:
    """Rank mod prime of residue rows {column: residue}, and the nullity the caps vouch for.

    A row update only combines rows that share a column, so no row leaves
    the columns of its connected component (``components``) and the rank
    is the sum of the ranks of the components.  A component of one column
    has rank 1 if a row holds it with a nonzero residue, else 0; every other
    one is eliminated densely on its own columns (``_packed_eliminate``).

    kernel holds rows known to lie in the right kernel of the rows.  The
    rank mod prime of their parts on a component's columns
    (``_known_ranks``) is a nullity that component has, so its rank is at
    most its cap, |c| less that nullity.  Its rows are read in a strided
    order (``_strided``) and no further than the row that reaches the cap.
    The second number returned is the sum of those nullities, 0 without
    kernel: when the rank mod prime is cols less it, every component met
    its cap.

    Given a pivots list, each pivot row, scaled to 1 at its pivot column,
    is appended as (pivot column, {other column: residue}).  A pivot row
    holds no pivot column found before it, which is what ``_back_solve``
    needs.
    """
    label = components(rows, cols)
    known = _known_ranks(kernel, label, prime) if kernel is not None else {}
    groups: dict[int, tuple[list[int], list[dict]]] = {}  # label -> (columns, rows)
    for c, a in enumerate(label):
        groups.setdefault(a, ([], []))[0].append(c)
    for row in rows:
        for c in row:
            groups[label[c]][1].append(row)
            break
    rank = 0
    for a, (ccols, crows) in groups.items():
        if len(ccols) > 1:
            rank += _packed_eliminate(_strided(crows), ccols, prime, pivots, len(ccols) - known.get(a, 0))
        elif any(row[ccols[0]] for row in crows):
            rank += 1
            if pivots is not None:
                pivots.append((ccols[0], {}))
    return rank, sum(known.values())


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


def _known_ranks(kernel: Matrix, label: list[int], prime: int) -> dict[int, int]:
    """{a: rank mod prime of the rows of kernel on the columns c with label[c] == a}.

    Each row of a matrix with these column components lies in one
    component, so the part of a row of its kernel on one component's
    columns lies in its kernel too.
    """
    parts: dict[int, dict[int, dict]] = {}  # label -> kernel row -> {column: residue}
    for k, row in enumerate(_residue_rows(kernel, prime)):
        for c, v in row.items():
            if v:
                parts.setdefault(label[c], {}).setdefault(k, {})[c] = v
    return {a: _packed_eliminate(list(rows.values()), sorted({c for r in rows.values() for c in r}), prime, None)
            for a, rows in parts.items()}


def _packed_eliminate(rows: Iterable[dict], cols: list[int], prime: int, pivots: list | None,
                      cap: int | None = None) -> int:
    """Rank mod prime of residue rows on the given columns, by dense elimination on packed rows.

    Each row is one Python int of W-bit slots, slot i holding column
    cols[i], so a row update is one big-int multiply-add run in C.
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
    Pivot rows are appended to pivots as ``_eliminate_mod_p``
    says.
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
            pivots.append((cols[pc], rest))
        del free[k]
        if len(found) == cap:
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


def _residue_rows(m: Matrix, prime: int) -> list[dict]:
    """Nonzero rows of residues mod prime, which over Fp must be the field's.

    Over Fp the stored values are residues already, and so are those of a
    rational matrix of ints in [0, prime), such as a 0/1 stabilizer system.
    Other rational rows are read as integers (``_integral_rows``) and
    reduced in place, so no denominator is inverted mod p; an entry
    divisible by p leaves a zero residue.
    """
    vals = m._nz.values()
    if m.field.prime is not None or (set(map(type, vals)) <= {int} and 0 <= min(vals, default=0)
                                     and max(vals, default=0) < prime):
        return [row for _, row in _rows(m)]
    rows = list(_integral_rows(m))
    for row in rows:
        for c, v in row.items():
            row[c] = v % prime
    return rows


def rank(m: Matrix, kernel: Matrix | None = None) -> int:
    """Exact rank; independent of row and column order.

    Over Fp by ``rank_mod_p``.  Over Q it is the column count less the
    nullity of the lifted kernel (``_lift``) of whichever of A and A^T has
    fewer columns.  kernel, rows known to lie in A's right kernel, caps
    each component (``_eliminate_mod_p``) when A is not transposed.
    """
    if kernel is not None and (kernel.field != m.field or kernel.cols != m.cols):
        raise ShapeError("the kernel rows must have the matrix's columns and field")
    if m.field.prime is not None:
        return rank_mod_p(m, kernel)
    if m.rows < m.cols:
        return m.rows - len(_lift(m.transpose())[0])
    return m.cols - len(_lift(m, kernel)[0])


def rank_mod_p(m: Matrix, kernel: Matrix | None = None) -> int:
    """Rank mod p, component by component (``_eliminate_mod_p``), capped by the rows of kernel.

    Over Fp this is the exact rank.  A rational matrix is ranked mod
    DEFAULT_PRIME with its rows scaled to integers; that is a lower bound
    on its rank over Q, since a minor that is nonzero mod p is nonzero over
    Q, and scaling a row by a nonzero integer scales its minors alike.
    """
    prime = m.field.prime or DEFAULT_PRIME
    return _eliminate_mod_p(_residue_rows(m, prime), m.cols, prime, kernel=kernel)[0]


def pivot_columns(m: Matrix) -> set[int]:
    """Pivot columns of the elimination of m mod p, read as ``rank_mod_p`` reads it.

    There are rank_mod_p(m) of them, and as many rows of m are square and
    invertible mod p on them.
    """
    prime, pivots = m.field.prime or DEFAULT_PRIME, []
    _eliminate_mod_p(_residue_rows(m, prime), m.cols, prime, pivots)
    return {pc for pc, _ in pivots}


def _back_solve(pivots: list, cols: int, prime: int) -> tuple[list[int], dict[int, dict]]:
    """Kernel mod prime of eliminated rows: the free columns, and {column c: {free f: x_f[c]}}.

    x_f is the kernel vector that is 1 at free column f and 0 at the other
    free columns.  A pivot row holds no pivot column chosen before it, so
    solving the rows last to first finds the other columns of each row
    already solved.
    """
    taken = {pc for pc, _ in pivots}
    free = [c for c in range(cols) if c not in taken]
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


def kernel_basis(m: Matrix) -> list[list]:
    """Basis of the right kernel, one coordinate vector per free column (``_lift``).

    The vector of free column f is 1 there and 0 at the other free columns.
    """
    basis = []
    for vec in _lift(m)[1]:
        dense = [m.field.zero] * m.cols
        for c, v in vec.items():
            dense[c] = m.field.coerce(v)
        basis.append(dense)
    return basis


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


def _lift(m: Matrix, kernel: Matrix | None = None) -> tuple[list[int], list[dict] | None]:
    """Free columns and exact kernel vectors, over as many primes as it takes.

    Each prime eliminates the rows mod p (``_eliminate_mod_p``) and
    back-solves one kernel vector per free column, as {column: nonzero
    value}.  Over Fp the prime is the field's and its back-solve is the
    answer.  Over Q the primes are DEFAULT_PRIME and then the primes below
    it.  A prime of full column rank ends the lift with an empty kernel.
    Given kernel, rows known to lie in the right kernel, each component
    stops at its cap, and a prime whose nullity is the one the caps vouch
    for ends the lift with the free columns and no vectors (None): the
    parts of those rows on the components span a kernel of that dimension,
    and the nullity over Q is at most the nullity mod p.  Over Q the
    (rank, free columns) of a prime is compared with the best seen: a
    higher rank wins, and at equal rank the larger list of free columns
    does, since the pivot columns are the column rank profile and a prime
    that divides a minor can only move a pivot to a later column.  A
    winner restarts the residues, a tie is combined with them by CRT, and
    a loser is skipped.  After each restart or tie the residues mod M, the
    product of their primes, are lifted with bound isqrt(M/2) and checked,
    A x = 0 over the integers.  The lift ends: with H the Hadamard bound
    of the integer rows, every prime of a losing rank or profile divides
    one nonzero minor, so their product is at most H; once the product of
    all primes tried passes 2 H**3, M passes 2 H**2, and every entry, a
    ratio of minors, lifts.  A check that still fails is an internal error.
    """
    cols, prime = m.cols, m.field.prime or DEFAULT_PRIME
    best, modulus, x, tried, limit = (-1, []), 1, {}, 1, None
    while True:
        pivots: list = []
        # the residue rows are freed on return, before the back-solve; the pivot rows are copies
        rk, vouched = _eliminate_mod_p(_residue_rows(m, prime), cols, prime, pivots, kernel)
        if cols - rk == vouched:
            taken = {pc for pc, _ in pivots}
            free = [c for c in range(cols) if c not in taken]
            return free, None if free else []
        free, y = _back_solve(pivots, cols, prime)
        if m.field.prime is not None:
            return free, _kernel_vectors(free, y)
        seen = (rk, free)
        if seen > best:
            best, modulus, x = seen, prime, y
        elif seen == best:
            x, modulus = _crt(x, modulus, y, prime), modulus * prime
        if seen == best and (vecs := _lifted_vectors(m, free, x, modulus)) is not None:
            return free, vecs
        if limit is None:  # bits of 2 H**3
            limit = 1 + 3 * sum((sum(v * v for v in row.values()).bit_length() + 1) // 2
                                for row in _integral_rows(m))
        tried *= prime
        if tried.bit_length() > limit:
            raise RuntimeError("the kernel did not lift within the Hadamard bound")
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


def _lifted_vectors(m: Matrix, free: list[int], x: dict[int, dict], modulus: int) -> list[dict] | None:
    """The back-solve x mod modulus lifted to fractions and checked exactly, or None."""
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
    # each x_f times the lcm of its denominators, as integers, column by column
    scaled = {c: [(f, q.numerator * (denom[f] // q.denominator)) for f, q in col.items()]
              for c, col in lifted.items()}
    return _kernel_vectors(free, lifted) if _annihilates(m, scaled) else None


def _annihilates(m: Matrix, by_col: dict[int, list]) -> bool:
    """True when every row r of m has sum_c r[c] * x[c] == 0 for every
    integer vector x, the vectors given column by column as {c: [(x, x[c])]}.

    Each column's entries are packed into one int, x_i[c] * 2**(W*i), so a
    nonzero of m costs one multiply-add and a row one test acc == 0.  Only
    the columns where m holds a nonzero are packed, since no row sum reads
    another, so a kernel of many vectors that each hold a column m never
    reads costs no int per vector there.  Row r read as integers
    (``_integral_rows``) has slot sums s_i = sum_c r[c] * x_i[c], |s_i| at
    most B = max |x[c]| times the largest L1 norm of such a row, and W is
    the bit length of B plus a sign and a guard bit.  If the packed sum,
    sum_i s_i * 2**(W*i), is zero and s_i is its first nonzero slot sum,
    2**W divides s_i, which cannot be.  A row with a Fraction sums to that
    packed sum over the lcm of its denominators.
    """
    vals = m._nz.values()
    if set(map(type, vals)) <= {int}:  # a bound on every row's L1 norm, read in C
        norm = m.cols * max(map(abs, vals), default=1)
    else:
        norm = max((sum(map(abs, row.values())) for row in _integral_rows(m)), default=1)
    width = (max((abs(w) for col in by_col.values() for _, w in col), default=0) * norm).bit_length() + 2
    cols, slots = m.cols, {}
    held = {k % cols for k in m._nz}
    packed = {c: sum(w << width * slots.setdefault(f, len(slots)) for f, w in col)
              for c, col in by_col.items() if col and c in held}
    last, acc = -1, 0
    for k in sorted(k for k in m._nz if k % cols in packed):
        r = k // cols
        if r != last:
            if acc:
                return False
            last, acc = r, 0
        acc += m._nz[k] * packed[k - r * cols]
    return not acc


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
    return _annihilates(a, by_col)
