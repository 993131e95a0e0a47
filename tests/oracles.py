"""Independent reference implementations used to check the library.

Everything here is deliberately naive: dense textbook elimination over
Fraction, brute-force contraction by summing over every edge index
assignment, trace-of-product evaluation, and Vandermonde interpolation
for polynomial coefficient recovery.  Slow but obviously correct.
"""

from __future__ import annotations

import itertools
from fractions import Fraction
from math import prod


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
    return min(r * (a + b - r), a * b)


def expected_cycle_dim(edge_dims) -> int:
    e = list(edge_dims)
    n = len(e)
    return sum(e[j] ** 2 * e[(j + 1) % n] ** 2 for j in range(n)) - (sum(x * x for x in e) - 1)


def matrix_rows(m) -> list[list[Fraction]]:
    """Rows of a rational-backend Matrix as Fraction lists."""
    return [[Fraction(x) for x in m.row(i)] for i in range(m.rows)]


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


def prod_shape(shape) -> int:
    return prod(shape)


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
    from tngeom.tensors import eval_multilinear

    return eval_multilinear(t, (p, q, r))


def vanishing_check(t, s) -> bool:
    """True when the projected tensor (the would-be power-0 term of the splitting's curve) vanishes."""
    from tngeom.tensors import apply_end

    return apply_end(t, list(s.projectors())).is_zero()
