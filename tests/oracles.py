"""Independent reference implementations used to check the library, and
library helpers that only the tests call.

The reference implementations are deliberately naive: dense textbook
elimination over Fraction, brute-force contraction by summing over every
edge index assignment, trace-of-product evaluation, and Vandermonde
interpolation for polynomial coefficient recovery.  Slow but obviously
correct.

The helpers at the end were once part of the package: Kronecker products,
seeded random and inverse matrices, multilinear evaluation and the
derivation action, edge flips and gauge moves, the loop generator pairs,
conciseness, the endomorphism reading of loop instances, curve evaluation,
and the JSON writers of matrices, splittings, instances and curves.  No
command or script runs them; the tests state their checks through them.
"""

from __future__ import annotations

import itertools
import random
from fractions import Fraction
from math import prod

from tngeom.contraction import contract_network
from tngeom.curves import MatrixCurve, TensorLaurent
from tngeom.errors import SemanticError, ShapeError, SingularMatrixError
from tngeom.fields import QQ, Field
from tngeom.jsonio import (
    _SPLIT_KEYS,
    _as_dict,
    _as_int,
    _as_list,
    _field_key,
    graph_to_obj,
    matrix_from_obj,
    scalar_to_str,
    tensor_to_obj,
)
from tngeom.linalg import Matrix, _integral_rows, _kernel, _split, rank
from tngeom.networks import Edge, NetworkGraph, TNSInstance, absorb, cycle_edges
from tngeom.stabilizer import StabilizerSystem, build_system, stabilizer_dim
from tngeom.tensors import Tensor, apply_end, flatten, mlrank, mode_apply, tensordot, transpose_axes
from tngeom.zoo import Splitting, _composition_splitting, imm_loop


def naive_rank(rows: list[list[Fraction]]) -> int:
    """Row-reduce a dense copy over Fraction; count the nonzero rows."""
    m = [[Fraction(x) for x in row] for row in rows]
    if not m:
        return 0
    nrows, ncols = len(m), len(m[0])
    rank = 0
    row = 0
    for col in range(ncols):
        piv = next((r for r in range(row, nrows) if m[r][col] != 0), None)
        if piv is None:
            continue
        m[row], m[piv] = m[piv], m[row]
        inv = 1 / m[row][col]
        m[row] = [x * inv for x in m[row]]
        for r in range(nrows):
            if r != row and m[r][col] != 0:
                c = m[r][col]
                m[r] = [a - c * b for a, b in zip(m[r], m[row])]
        row += 1
        rank += 1
        if row == nrows:
            break
    return rank


def naive_rank_mod_p(rows: list[list[int]], p: int) -> int:
    """Row-reduce a dense copy of integer rows mod p; count the nonzero rows."""
    m = [[x % p for x in row] for row in rows]
    rank = 0
    for col in range(len(m[0]) if m else 0):
        piv = next((r for r in range(rank, len(m)) if m[r][col]), None)
        if piv is None:
            continue
        m[rank], m[piv] = m[piv], m[rank]
        inv = pow(m[rank][col], -1, p)
        m[rank] = [x * inv % p for x in m[rank]]
        for r in range(len(m)):
            if r != rank and m[r][col]:
                c = m[r][col]
                m[r] = [(a - c * b) % p for a, b in zip(m[r], m[rank])]
        rank += 1
    return rank


def naive_kernel(rows: list[list[int]], cols: int, p: int | None = None) -> list[list]:
    """Basis of the right kernel by dense reduction to reduced echelon form,
    over Fraction, or mod p when p is given: one vector per non-pivot column."""
    red = (lambda x: x) if p is None else (lambda x: x % p)
    m = [[red(Fraction(x) if p is None else x) for x in row] for row in rows]
    pivots: list[int] = []
    for col in range(cols):
        r = len(pivots)
        piv = next((i for i in range(r, len(m)) if m[i][col]), None)
        if piv is None:
            continue
        m[r], m[piv] = m[piv], m[r]
        inv = 1 / m[r][col] if p is None else pow(m[r][col], -1, p)
        m[r] = [red(x * inv) for x in m[r]]
        for i in range(len(m)):
            if i != r and m[i][col]:
                c = m[i][col]
                m[i] = [red(a - c * b) for a, b in zip(m[i], m[r])]
        pivots.append(col)
    basis = []
    for f in (c for c in range(cols) if c not in pivots):
        vec = [0] * cols
        vec[f] = 1
        for i, pc in enumerate(pivots):
            vec[pc] = red(-m[i][f])
        basis.append(vec)
    return basis


def naive_solve(a: list[list[Fraction]], b: list[Fraction]) -> list[Fraction]:
    """Solve a square nonsingular system by Gauss-Jordan over Fraction."""
    n = len(a)
    m = [[Fraction(x) for x in row] + [Fraction(b[i])] for i, row in enumerate(a)]
    for col in range(n):
        piv = next(r for r in range(col, n) if m[r][col] != 0)
        m[col], m[piv] = m[piv], m[col]
        inv = 1 / m[col][col]
        m[col] = [x * inv for x in m[col]]
        for r in range(n):
            if r != col and m[r][col] != 0:
                c = m[r][col]
                m[r] = [x - c * y for x, y in zip(m[r], m[col])]
    return [m[i][n] for i in range(n)]


def mat_mul(a, b):
    n, k, m = len(a), len(b), len(b[0])
    return [[sum(a[i][t] * b[t][j] for t in range(k)) for j in range(m)] for i in range(n)]


def trace_product(mats) -> Fraction:
    """trace(X_1 ... X_k) by plain matrix products."""
    mats = list(mats)
    acc = mats[0]
    for m in mats[1:]:
        acc = mat_mul(acc, m)
    return sum(acc[i][i] for i in range(len(acc)))


def brute_force_contract(inst) -> dict[tuple[int, ...], Fraction]:
    """Contract a network by summing over every edge index assignment.

    Returns a dict of nonzero output entries.  Completely independent of
    the library's pairwise contraction: for each joint assignment of an
    index to every edge, the contribution to output position (i_1..i_n)
    is the product over vertices of T_j[i_j, ins..., outs...].
    """
    g = inst.graph
    out: dict[tuple[int, ...], Fraction] = {}
    vertex_ids = [v.id for v in g.vertices]
    edge_ranges = [range(e.dim) for e in g.edges]
    edge_ids = [e.id for e in g.edges]
    for assign in itertools.product(*edge_ranges):
        amap = dict(zip(edge_ids, assign))
        # per-vertex coefficient vectors for this assignment
        vecs = []
        for vid in vertex_ids:
            ins = tuple(amap[e.id] for e in g.in_edges(vid))
            outs = tuple(amap[e.id] for e in g.out_edges(vid))
            t = inst.tensors[vid]
            vecs.append([t.at((w,) + ins + outs) for w in range(g.vertex(vid).dim)])
        for idx in itertools.product(*(range(len(v)) for v in vecs)):
            term = Fraction(1)
            for j, i in enumerate(idx):
                term *= Fraction(vecs[j][i])
                if term == 0:
                    break
            if term:
                out[idx] = out.get(idx, Fraction(0)) + term
    return {k: v for k, v in out.items() if v != 0}


def contract_in_order(inst: TNSInstance, order) -> Tensor:
    """The contraction with the vertices absorbed one at a time in the given order, axes back in graph order.

    Each vertex tensor is absorbed over every edge it shares with the ones
    before it (``absorb``), and the result's axes are transposed back.
    """
    g = inst.graph
    first, *rest = order
    cur, labels = inst.tensors[first], g.axis_labels(first)
    for vid in rest:
        cur, labels = absorb(cur, labels, inst.tensors[vid], g.axis_labels(vid))
    return transpose_axes(cur, [labels.index(("v", v.id)) for v in g.vertices])


def split_cost(g: NetworkGraph, k: int) -> tuple[int, int]:
    """(largest, held) of absorbing vertices 1..k and k+1..n in graph order and joining the two.

    A tensor holding a set of vertices has one axis per vertex and one per
    edge with exactly one end in the set.  largest is the most entries of
    the tensor of a prefix of vertices 1..k, of vertices k+1..j, or of all
    of them.  An absorption holds its two operands and its result, and the
    prefix is held while the suffix is absorbed; held is the most entries
    summed over one such moment.
    """
    vids = [v.id for v in g.vertices]
    n = len(vids)

    def size(part):
        return prod(g.vertex(vid).dim for vid in part) * prod(
            e.dim for e in g.edges if (e.tail in part) != (e.head in part))

    parts = [vids[:i] for i in range(1, k + 1)] + [vids[k:j] for j in range(k + 1, n + 1)] + [vids]
    moments = [[vids[:i - 1], vids[i - 1:i], vids[:i]] for i in range(2, k + 1)]
    moments += [[vids[:k], vids[k:j - 1], vids[j - 1:j], vids[k:j]] for j in range(k + 2, n + 1)]
    moments += [[vids[:k], vids[k:], vids]] if k < n else [[vids]]
    return max(map(size, parts)), max(sum(map(size, held)) for held in moments)


def identity_trace(t: Tensor, axis_a: int, axis_b: int) -> Tensor:
    """contract_pair by contracting the two axes with a d x d identity (``tensordot``)."""
    d = t.shape[axis_a]
    ident = Tensor._from_flat((d, d), {i * d + i: t.field.one for i in range(d)}, t.field)
    out = tensordot(t, ident, [(axis_a, 0), (axis_b, 1)])
    return out if out.order else Tensor._from_flat((1,), out._nz, t.field)


def naive_tensordot(a: Tensor, b: Tensor, pairs) -> Tensor:
    """tensordot by summing, at every index of the result, over every index of the contracted axes."""
    axes_a, axes_b = [i for i, _ in pairs], [j for _, j in pairs]
    free_a = [k for k in range(a.order) if k not in axes_a]
    free_b = [k for k in range(b.order) if k not in axes_b]
    shape = tuple(a.shape[k] for k in free_a) + tuple(b.shape[k] for k in free_b)
    entries = []
    for idx in itertools.product(*map(range, shape)):
        total = a.field.zero
        for key in itertools.product(*(range(a.shape[i]) for i in axes_a)):
            at_a = dict(zip(free_a, idx[:len(free_a)])) | dict(zip(axes_a, key))
            at_b = dict(zip(free_b, idx[len(free_a):])) | dict(zip(axes_b, key))
            total += a.at([at_a[k] for k in range(a.order)]) * b.at([at_b[k] for k in range(b.order)])
        entries.append(total)
    return Tensor(shape, entries, a.field)


def interpolate_coefficients(samples: list[tuple[int, list[Fraction]]]) -> list[list[Fraction]]:
    """Recover polynomial coefficient vectors from values at sample points.

    samples = [(t, values at t)]; returns coefficient vectors for powers
    0..len(samples)-1, each the length of the value vectors.
    """
    pts = [t for t, _ in samples]
    deg = len(pts)
    width = len(samples[0][1])
    vander = [[Fraction(t) ** k for k in range(deg)] for t in pts]
    coeffs = [[Fraction(0)] * width for _ in range(deg)]
    for j in range(width):
        rhs = [vals[j] for _, vals in samples]
        col = naive_solve(vander, rhs)
        for k in range(deg):
            coeffs[k][j] = col[k]
    return coeffs


def secant_formula(a: int, b: int, r: int) -> int:
    r = min(r, a, b)
    return r * (a + b - r)


def matrix_rows(m) -> list[list[Fraction]]:
    """Rows of a rational-backend Matrix as Fraction lists."""
    return [[Fraction(x) for x in mat_row(m, i)] for i in range(m.rows)]


def tensor_values(t) -> list[Fraction]:
    return [Fraction(x) for x in t.entries]


def kron_oracle(a, b):
    """Dense Kronecker product of Fraction row-lists."""
    ra, ca = len(a), len(a[0])
    rb, cb = len(b), len(b[0])
    out = [[Fraction(0)] * (ca * cb) for _ in range(ra * rb)]
    for i in range(ra):
        for j in range(ca):
            for k in range(rb):
                for l in range(cb):
                    out[i * rb + k][j * cb + l] = a[i][j] * b[k][l]
    return out


def per_coordinate_jacobian(inst):
    """Jacobian of the contraction map, one full contraction per column.

    The contraction is multilinear, so the partial derivative in
    coordinate b of vertex v is the contraction with v's tensor replaced
    by the b-th basis tensor.  Rows run over the contracted tensor's
    coordinates, columns over the vertex tensors' coordinates, vertex by
    vertex.
    """
    from tngeom import Matrix, Tensor, TNSInstance, contract_network
    from tngeom.linalg import lin_index

    g, f = inst.graph, inst.field
    nrows = prod(v.dim for v in g.vertices)
    shapes = [g.tensor_shape(v.id) for v in g.vertices]
    items = {}
    col = 0
    for v, shape in zip(g.vertices, shapes):
        for b in range(prod(shape)):
            tensors = dict(inst.tensors)
            tensors[v.id] = Tensor._from_flat(shape, {b: f.one}, f)
            out = contract_network(TNSInstance(g, tensors))
            for idx, val in out.nonzeros():
                items[(lin_index(idx, out.shape), col)] = val
            col += 1
    return Matrix.from_nonzeros(nrows, sum(prod(s) for s in shapes), items, f)


def naive_valence_one_reduction(dims: dict, edges: dict):
    """Valence-one reduction by rescanning every vertex before each fold.

    dims is {vertex id: dim} and edges is {edge id: (tail, head, dim)}.  The
    smallest vertex id with one incident edge and a dimension at most that
    edge's folds into its neighbour.  Returns the final dims and edges and
    the log of (removed, edge, target, new_dim) steps.
    """
    dims, edges, log = dict(dims), dict(edges), []
    while True:
        for vid in sorted(dims):
            inc = [eid for eid, (t, h, _) in edges.items() if vid in (t, h)]
            if len(inc) == 1 and dims[vid] <= edges[inc[0]][2]:
                t, h, _ = edges.pop(inc[0])
                other = h if t == vid else t
                dims[other] *= dims.pop(vid)
                log.append((vid, inc[0], other, dims[other]))
                break
        else:
            return dims, edges, log


# Helpers that no code path of the program calls; the tests state their
# checks through them.

def kernel_dim(m) -> int:
    """Dimension of the right kernel of a Matrix."""
    from tngeom.linalg import rank

    return m.cols - rank(m)


def rank_modulo_primes(m, primes: list[int]) -> list[int]:
    """Rank of the same rational Matrix reduced mod each given prime."""
    from tngeom.fields import PrimeField
    from tngeom.linalg import Matrix, rank

    items = dict(m.nonzeros())
    return [rank(Matrix.from_nonzeros(m.rows, m.cols, items, PrimeField(p))) for p in primes]


def rank_mod_p(m) -> int:
    """Rank mod p of a Matrix, component by component (``linalg._split``, ``linalg._eliminate``).

    Over Fp this is the exact rank.  A rational matrix is ranked mod
    DEFAULT_PRIME with its rows scaled to integers; that is a lower bound
    on its rank over Q, since a minor that is nonzero mod p is nonzero over
    Q, and scaling a row by a nonzero integer scales its minors alike.
    """
    from tngeom.fields import DEFAULT_PRIME
    from tngeom.linalg import _eliminate, _integral_rows, _split

    prime = m.field.prime or DEFAULT_PRIME
    return sum(_eliminate(cols, rows, prime, len(cols), None)
               for cols, rows in _split(list(_integral_rows(m)), m.cols))


def annihilates(a, b) -> bool:
    """True when A B^T = 0 over Q, i.e. every row of b lies in the right kernel of a.

    Checked exactly over the integers (``linalg._annihilates``), on the
    rows of both matrices read as integers, which scales each product by a
    nonzero integer.
    """
    from tngeom.fields import RationalField
    from tngeom.linalg import _annihilates, _integral_rows

    if not isinstance(a.field, RationalField) or b.field != a.field:
        raise SemanticError("annihilates expects two rational matrices")
    if a.cols != b.cols:
        raise ShapeError(f"cannot multiply {a.rows}x{a.cols} by the transpose of {b.rows}x{b.cols}")
    by_col: dict[int, list] = {}
    for k, row in enumerate(_integral_rows(b)):
        for c, v in row.items():
            by_col.setdefault(c, []).append((k, v))
    norm = max((sum(map(abs, row.values())) for row in _integral_rows(a)), default=1)
    return _annihilates(_integral_rows(a), norm, by_col)


def merge_axes(t, a: int, b: int):
    """Fuse axes a and b (a-major) of a Tensor into one axis placed at position min(a, b)."""
    from tngeom.tensors import Tensor, transpose_axes

    rest = [k for k in range(t.order) if k not in (a, b)]
    lo = min(a, b)
    # with b right after a the fused index is the row-major pair, so the keys carry over
    moved = transpose_axes(t, rest[:lo] + [a, b] + rest[lo:])
    shape = moved.shape[:lo] + (t.shape[a] * t.shape[b],) + moved.shape[lo + 2 :]
    return Tensor._from_flat(shape, moved._nz, t.field)


def eval_trilinear(t, p, q, r):
    """The order-3 form of t at three vectors or matrices."""
    return eval_multilinear(t, (p, q, r))


def vanishing_check(t, s) -> bool:
    """True when the projected tensor (the would-be power-0 term of the splitting's curve) vanishes."""
    from tngeom.tensors import apply_end

    return apply_end(t, list(s.projectors())).is_zero()


# Library helpers that no command or script runs, moved here from the
# package with their bodies unchanged (methods became plain functions).

# --- linalg ---

RANDOM_ENTRY_BOUND = 10**6


def mat_row(m: Matrix, i: int) -> list:
    base, zero = i * m.cols, m.field.zero
    return [m._nz.get(base + j, zero) for j in range(m.cols)]


def mat_rows(m: Matrix) -> list[list]:
    return [mat_row(m, i) for i in range(m.rows)]


def mat_transpose(m: Matrix) -> Matrix:
    r, c = m.shape
    return Matrix._from_flat((c, r), {(k % c) * r + k // c: v for k, v in m._nz.items()}, m.field)


def mat_apply(m: Matrix, vec: list) -> list:
    """Matrix times column vector."""
    if len(vec) != m.cols:
        raise ShapeError("vector length mismatch")
    f = m.field
    v = [f.coerce(x) for x in vec]
    out = [f.zero] * m.rows
    for (i, j), a in m.nonzeros():
        x = v[j]
        if x:
            out[i] = out[i] + a * x
    return [f.coerce(x) for x in out]


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


def kernel_basis(m: Matrix) -> list[list]:
    """Basis of the right kernel, one coordinate vector per free column (``linalg._kernel``).

    The vector of free column f is 1 there and 0 at the other free columns.
    """
    basis = []
    for vec in _kernel(_split(list(_integral_rows(m)), m.cols), m.cols, m.field.prime):
        dense = [m.field.zero] * m.cols
        for c, v in vec.items():
            dense[c] = m.field.coerce(v)
        basis.append(dense)
    return basis


def inverse(m: Matrix) -> Matrix:
    """Inverse read off the kernel of [A | -I], whose vectors are (x, A x).

    ``kernel_basis`` gives one vector per free column, exact over both
    fields.  A X = I for the heads X exactly when the tails are the
    identity, and then A is invertible and X is its inverse; for an
    invertible A the first n columns are the pivots, so the tails are the
    identity.
    """
    if m.rows != m.cols:
        raise ShapeError("only square matrices can be inverted")
    n, field = m.rows, m.field
    items = {(i, n + i): -field.one for i in range(n)}
    items.update(m.nonzeros())
    vecs = kernel_basis(Matrix.from_nonzeros(n, 2 * n, items, field))
    if [vec[n:] for vec in vecs] != [[int(i == j) for i in range(n)] for j in range(n)]:
        raise SingularMatrixError("matrix is singular")
    nz = {i * n + j: vec[i] for j, vec in enumerate(vecs) for i in range(n) if vec[i]}
    return Matrix._from_flat((n, n), nz, field)


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


# --- tensors ---

def _coords(x, length: int, field: Field) -> list:
    if isinstance(x, Matrix):
        vals = list(x.entries)
    else:
        vals = list(x)
    if len(vals) != length:
        raise ShapeError(f"argument has {len(vals)} coordinates, factor needs {length}")
    return [field.coerce(v) for v in vals]


def eval_multilinear(t: Tensor, args) -> object:
    """Pair the tensor with one coordinate vector (or matrix) per factor."""
    args = list(args)
    if len(args) != t.order:
        raise ShapeError(f"expected {t.order} arguments, got {len(args)}")
    vecs = [_coords(a, t.shape[j], t.field) for j, a in enumerate(args)]
    acc = t.field.zero
    for idx, v in t.nonzeros():
        term = v
        for j, i in enumerate(idx):
            term = term * vecs[j][i]
            if not term:
                break
        acc = acc + term
    return t.field.coerce(acc)


def leibniz_act(t: Tensor, maps) -> Tensor:
    """Derivation action: sum over factors of the single-slot insertion.

    This is the tangent-space counterpart of apply_end; a tuple of maps
    annihilating t lies in the symmetry algebra of t.
    """
    maps = list(maps)
    if len(maps) != t.order:
        raise ShapeError(f"expected {t.order} maps, got {len(maps)}")
    acc = Tensor.zeros(t.shape, t.field)
    for axis, m in enumerate(maps):
        if m is None:
            continue
        if m.rows != m.cols:
            raise ShapeError("derivation slots must be endomorphisms")
        acc = acc + mode_apply(t, m, axis)
    return acc


# --- networks ---

def flip_edge(obj, edge_id: int):
    """Reverse one edge.  On an instance the incident tensors keep their
    values and only reorder axes, since the edge pairing is symmetric."""
    if isinstance(obj, TNSInstance):
        g = obj.graph
        new_g = flip_edge(g, edge_id)
        e = g.edge(edge_id)
        tensors = dict(obj.tensors)
        for vid in (e.tail, e.head):
            old = g.axis_labels(vid)
            new = new_g.axis_labels(vid)
            perm = [old.index(lab) for lab in new]
            tensors[vid] = transpose_axes(tensors[vid], perm)
        return TNSInstance(new_g, tensors)
    g: NetworkGraph = obj
    e = g.edge(edge_id)
    flipped = Edge(e.id, e.head, e.tail, e.dim)
    return NetworkGraph(g.vertices, tuple(flipped if x.id == edge_id else x for x in g.edges))


def gauge_transform(inst: TNSInstance, edge_id: int, g_mat: Matrix) -> TNSInstance:
    """Act by g on the tail side of an edge and by its inverse transpose on
    the head side; the contraction is unchanged."""
    g = inst.graph
    e = g.edge(edge_id)
    if g_mat.rows != g_mat.cols or g_mat.rows != e.dim:
        raise ShapeError(f"gauge for edge {edge_id} must be {e.dim}x{e.dim}")
    g_inv_t = mat_transpose(inverse(g_mat))
    tensors = dict(inst.tensors)
    tail_axis = g.axis_labels(e.tail).index(("e", edge_id))
    head_axis = g.axis_labels(e.head).index(("e", edge_id))
    tensors[e.tail] = mode_apply(tensors[e.tail], g_mat, tail_axis)
    tensors[e.head] = mode_apply(tensors[e.head], g_inv_t, head_axis)
    return TNSInstance(g, tensors)


# --- stabilizer ---

def column_label(system: StabilizerSystem, col: int) -> tuple[int, int, int]:
    """Map a column index back to (slot, row, col) of the elementary matrix."""
    for j in range(len(system.shape) - 1, -1, -1):
        if col >= system.offsets[j]:
            k, l = divmod(col - system.offsets[j], system.shape[j])
            return j, k, l
    raise ShapeError(f"column {col} outside system")


def orbit_dim(t: Tensor) -> int:
    """Rank of the built system (``linalg.rank``), uncapped: a reference for the streamed ``stabilizer_dim``."""
    return rank(build_system(t).matrix)


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
            right = kron(Matrix.identity(rows_j, field), mat_transpose(alpha))
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


# --- varieties ---

def is_concise(t: Tensor) -> bool:
    """True when every flattening has full rank, i.e. no factor can shrink."""
    return mlrank(t) == t.shape


def _cycle_walk(g: NetworkGraph) -> list[int]:
    for v in g.vertices:
        if len(g.in_edges(v.id)) != 1 or len(g.out_edges(v.id)) != 1:
            raise SemanticError("needs a directed loop: one edge in, one out per vertex")
    seq = cycle_edges(g)
    if seq is None:
        raise SemanticError("graph is not a single directed loop")
    return [e.tail for e in seq]


def loop_endomorphisms(inst: TNSInstance) -> tuple[list[int], list[Matrix]]:
    """Read one endomorphism per vertex off a critical directed-loop instance.

    Each vertex tensor, with its edge pair fused row-major, is a square
    matrix from the fused edge space to the vertex space.  Returns the
    cycle walk (vertex ids) and the matrices in walk order.
    """
    g = inst.graph
    walk = _cycle_walk(g)
    maps = []
    for u in walk:
        a = g.in_edges(u)[0].dim
        b = g.out_edges(u)[0].dim
        vdim = g.vertex(u).dim
        if vdim != a * b:
            raise SemanticError(f"vertex {u} is not critical: {vdim} != {a}*{b}")
        maps.append(flatten(inst.tensors[u], 0))
    return walk, maps


def end_orbit_consistency(inst: TNSInstance) -> bool:
    """Check that a critical loop contraction is the endomorphism-translated
    cyclic trace tensor read off the vertex tensors themselves."""
    g = inst.graph
    walk, maps = loop_endomorphisms(inst)
    dims = [g.out_edges(u)[0].dim for u in walk]
    acted = apply_end(imm_loop(dims, inst.field), maps)
    pos = {u: k for k, u in enumerate(walk)}
    acted = transpose_axes(acted, [pos[v.id] for v in g.vertices])
    return acted == contract_network(inst)


# --- curves ---

def _power(t, p: int) -> Fraction:
    """t**p as a Fraction, so a negative power stays exact over both fields.

    ``scale`` coerces it into the field: over Fp, t is a residue, and the
    denominator of a negative power is inverted mod p.
    """
    return Fraction(t) ** p


def constant_curve(m: Matrix) -> MatrixCurve:
    return MatrixCurve(((0, m),))


def evaluate_curve(curve: MatrixCurve, t_value) -> Matrix:
    """Value at a nonzero scalar parameter."""
    f = curve.field
    t = f.coerce(t_value)
    if not t and any(p < 0 for p, _ in curve.terms):
        raise SemanticError("cannot evaluate negative powers at t = 0")
    acc = Matrix.zeros(curve.size, curve.size, f)
    for p, m in curve.terms:
        acc = acc + m.scale(_power(t, p))
    return acc


def shifted_curve(curve: MatrixCurve, k: int) -> MatrixCurve:
    return MatrixCurve(tuple((p + k, m) for p, m in curve.terms))


def coefficient(expansion: TensorLaurent, power: int) -> Tensor | None:
    for p, t in expansion.terms:
        if p == power:
            return t
    return None


def evaluate_laurent(expansion: TensorLaurent, t_value) -> Tensor:
    if not expansion.terms:
        raise SemanticError("empty expansion has no well-defined shape")
    f = expansion.terms[0][1].field
    t = f.coerce(t_value)
    acc = None
    for p, tensor in expansion.terms:
        term = tensor.scale(_power(t, p))
        acc = term if acc is None else acc + term
    return acc


# --- jsonio ---

def matrix_to_obj(m: Matrix) -> dict:
    return {
        "rows": m.rows,
        "cols": m.cols,
        "entries": [scalar_to_str(x) for x in m.entries],
    }


def instance_to_obj(inst: TNSInstance) -> dict:
    obj = graph_to_obj(inst.graph)
    obj["tensors"] = {str(v.id): tensor_to_obj(inst.tensors[v.id]) for v in inst.graph.vertices}
    return obj


def splitting_to_obj(s: Splitting) -> dict:
    return {k: matrix_to_obj(p) for k, p in zip(_SPLIT_KEYS, s.projectors())}


def curve_to_obj(factor: int, curve: MatrixCurve) -> dict:
    return {
        "factor": factor,
        "terms": [{"power": p, "matrix": matrix_to_obj(m)} for p, m in curve.terms],
    }


def curve_from_obj(obj, field: Field) -> tuple[int, MatrixCurve]:
    d = _as_dict(obj, "curve")
    factor = _as_int(_field_key(d, "factor", "curve"), "curve factor")
    terms = []
    for term in _as_list(_field_key(d, "terms", "curve"), "curve terms"):
        td = _as_dict(term, "curve term")
        power = _as_int(_field_key(td, "power", "curve term"), "power")
        terms.append((power, matrix_from_obj(_field_key(td, "matrix", "curve term"), field)))
    return factor, MatrixCurve(tuple(terms))


# --- zoo ---

def block_splitting(e1p: int, e1pp: int, e2p: int, e2pp: int, e3p: int, e3pp: int, field: Field = QQ) -> Splitting:
    """Two-block splitting of each edge space, e_j = e_j' + e_j''.

    Factors 1 and 2 keep the diagonal blocks; factor 3 keeps the
    anti-diagonal blocks.  With every e_j = 2 split as 1 + 1 this is the
    diagonal splitting.
    """
    for part in (e1p, e1pp, e2p, e2pp, e3p, e3pp):
        if part < 1:
            raise SemanticError("all block sizes must be at least 1")
    return _composition_splitting((e1p, e1pp), (e2p, e2pp), (e3p, e3pp), field)
