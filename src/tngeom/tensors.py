"""Sparse exact tensors with the multilinear operations the rest of the
package is built from: pairwise contraction (tensordot, and outer products
on top of it), single-tensor traces, flattenings, multilinear rank and
endomorphism actions.

Conventions, fixed once and used everywhere:

* entries are keyed row-major (last index fastest), and only nonzeros are
  stored, in the same ``SparseArray`` form as matrices;
* a matrix space factor of size r x c is linearized as row*c + col;
* flattening along axis j keeps the remaining axes in their original order;
* a flat index is decoded run by run of adjacent axes, off small tables
  (``_decoder``), never axis by axis.
"""

from __future__ import annotations

import random
from itertools import product
from math import isqrt, prod
from operator import mul

from .errors import SemanticError, ShapeError
from .fields import QQ, Field
from .linalg import Matrix, SparseArray, lin_index, rank

INSTANCE_ENTRY_BOUND = 999  # random tensors stay small to keep exact ranks cheap


def _tensor_shape(shape) -> tuple[int, ...]:
    shape = tuple(int(s) for s in shape)
    if any(s < 1 for s in shape):
        raise ShapeError(f"axis dimensions must be positive: {shape}")
    return shape


class Tensor(SparseArray):
    """Immutable exact tensor over a field, holding only its nonzero entries."""

    __slots__ = ()

    def __init__(self, shape, entries, field: Field = QQ):
        super().__init__(_tensor_shape(shape), entries, field)

    @classmethod
    def zeros(cls, shape, field: Field = QQ) -> "Tensor":
        return cls._from_flat(_tensor_shape(shape), {}, field)

    @classmethod
    def from_nonzeros(cls, shape, items, field: Field = QQ) -> "Tensor":
        shape = _tensor_shape(shape)
        return cls._from_flat(shape, cls._flat_items(shape, items, field), field)

    @property
    def order(self) -> int:
        return len(self.shape)

    def at(self, idx) -> object:
        return self._nz.get(lin_index(tuple(idx), self.shape), self.field.zero)

    def __repr__(self):
        return f"Tensor(shape={self.shape}, nnz={len(self._nz)}, field={self.field!r})"


def _strides(shape: tuple[int, ...]) -> list[int]:
    st = [1] * len(shape)
    for k in range(len(shape) - 2, -1, -1):
        st[k] = st[k + 1] * shape[k + 1]
    return st


def _decoder(shape: tuple[int, ...], nnz: int, table):
    """The function that decodes a flat index run by run: one divmod and one lookup per run.

    The axes are cut into runs of adjacent axes.  A run grows while its
    index product stays at most min(nnz, ceil(sqrt(dense size))), and an
    axis longer than that is a run on its own, so the table of a run holds
    at most nnz entries unless it is such an axis.  table(lo, hi)[j] is what
    the run of axes lo..hi-1 contributes, j being the row-major index over
    them; the contributions are added first run leftmost, so text entries
    join in axis order.
    """
    cap = min(nnz, isqrt(prod(shape) - 1) + 1)
    runs, hi = [], len(shape)  # last run first
    while hi:
        lo = hi - 1
        while lo and prod(shape[lo - 1:hi]) <= cap:
            lo -= 1
        runs.append((prod(shape[lo:hi]), table(lo, hi)))
        hi = lo
    *low, (_, top) = runs or [(1, table(0, 0))]
    if not low:
        return top.__getitem__

    def decode(flat: int):
        flat, j = divmod(flat, low[0][0])
        acc = low[0][1][j]
        for size, tab in low[1:]:
            flat, j = divmod(flat, size)
            acc = tab[j] + acc
        return top[flat] + acc

    return decode


def _offsets(shape: tuple[int, ...], nnz: int, weights):
    """The decoder (``_decoder``) of a flat index to the sum of i_k * weights[k] over its indices i_k.

    The weights are positive; a run of one axis reads its offset off a range.
    """
    def table(lo: int, hi: int):
        if hi - lo == 1:
            return range(0, shape[lo] * weights[lo], weights[lo])
        return [sum(map(mul, idx, weights[lo:hi])) for idx in product(*map(range, shape[lo:hi]))]

    return _decoder(shape, nnz, table)


def tensordot(a: Tensor, b: Tensor, pairs) -> Tensor:
    """Contract axis i of a with axis j of b for every (i, j) in pairs, in one pass.

    The result keeps the uncontracted axes of a, then those of b, each in
    their original order; with no pairs it is the outer product.  Only the
    operand with fewer nonzeros is grouped, by its indices on the contracted
    axes; the other one's nonzeros stream straight into the result.
    """
    if a.field != b.field:
        raise SemanticError("tensors live over different fields")
    axes_a = [i for i, _ in pairs]
    axes_b = [j for _, j in pairs]
    for axes, t in ((axes_a, a), (axes_b, b)):
        if len(set(axes)) != len(axes) or not all(0 <= k < t.order for k in axes):
            raise ShapeError(f"bad contraction axes {axes} for order {t.order}")
    for i, j in zip(axes_a, axes_b):
        if a.shape[i] != b.shape[j]:
            raise ShapeError(f"contracted axes must agree: {a.shape[i]} vs {b.shape[j]}")
    shape = tuple(n for k, n in enumerate(a.shape) if k not in axes_a) + \
        tuple(n for k, n in enumerate(b.shape) if k not in axes_b)
    size = prod(shape)
    # an operand's flat index decodes to key * size + its share of the result's flat index
    key_steps = [s * size for s in _strides(tuple(a.shape[i] for i in axes_a))]
    out_steps = iter(_strides(shape))
    operands = []
    for t, axes in ((a, axes_a), (b, axes_b)):
        steps = dict(zip(axes, key_steps))
        weights = [steps[k] if k in steps else next(out_steps) for k in range(t.order)]
        operands.append((t._nz, _offsets(t.shape, len(t._nz), weights)))
    (small, decode_small), (big, decode_big) = sorted(operands, key=lambda op: len(op[0]))
    groups: dict[int, list] = {}
    for flat, v in small.items():
        key, pos = divmod(decode_small(flat), size)
        groups.setdefault(key, []).append((pos, v))
    out: dict[int, object] = {}
    for flat, v in big.items():
        key, pos = divmod(decode_big(flat), size)
        for p, w in groups.get(key, ()):
            p += pos
            s = out.get(p)
            out[p] = w * v if s is None else s + w * v
    if prime := a.field.prime:  # reduced here, in the dict no other array holds, rather than in a copy
        for pos, s in out.items():
            out[pos] = s % prime
    for pos in [pos for pos, s in out.items() if not s]:
        del out[pos]
    return Tensor._held(shape, out, a.field)


def outer(a: Tensor, b: Tensor) -> Tensor:
    return tensordot(a, b, ())


def transpose_axes(t: Tensor, perm) -> Tensor:
    """Axis k of the result is axis perm[k] of t; the identity returns t itself."""
    perm = tuple(perm)
    if perm == tuple(range(t.order)):
        return t  # tensors are immutable, so sharing is safe
    if sorted(perm) != list(range(t.order)):
        raise ShapeError(f"{perm} is not a permutation of {t.order} axes")
    new_shape = tuple(t.shape[p] for p in perm)
    step = [s for _, s in sorted(zip(perm, _strides(new_shape)))]  # by t's axis
    nz = dict(zip(map(_offsets(t.shape, len(t._nz), step), t._nz), t._nz.values()))
    return Tensor._held(new_shape, nz, t.field)  # t's values, reduced already


def contract_pair(t: Tensor, axis_a: int, axis_b: int) -> Tensor:
    """Sum over equal indices on two axes of one tensor; both axes are dropped.

    One pass over the nonzeros: a flat index decodes to (i_a * d + i_b) *
    size + its flat index in the result, and i_a * d + i_b is a multiple of
    d + 1 exactly when i_a = i_b, the entries summed.  A trace of every
    axis has shape (1,).
    """
    n = t.order
    if axis_a == axis_b or not (0 <= axis_a < n and 0 <= axis_b < n):
        raise ShapeError(f"bad axis pair ({axis_a},{axis_b}) for order {n}")
    d = t.shape[axis_a]
    if t.shape[axis_b] != d:
        raise ShapeError(f"contracted axes must agree: {d} vs {t.shape[axis_b]}")
    shape = tuple(s for k, s in enumerate(t.shape) if k not in (axis_a, axis_b))
    size = prod(shape)
    steps = iter(_strides(shape))
    weights = [size * d if k == axis_a else size if k == axis_b else next(steps) for k in range(n)]
    decode = _offsets(t.shape, len(t._nz), weights)
    out: dict[int, object] = {}
    for flat, v in t._nz.items():
        key, pos = divmod(decode(flat), size)
        if key % (d + 1) == 0:
            out[pos] = out.get(pos, 0) + v
    return Tensor._from_flat(shape or (1,), {pos: s for pos, s in out.items() if s}, t.field)


def mode_apply(t: Tensor, m: Matrix, axis: int) -> Tensor:
    """Apply a matrix to one axis: out[.., i, ..] = sum_k m[i,k] t[.., k, ..]."""
    if not (0 <= axis < t.order):
        raise ShapeError(f"axis {axis} outside order {t.order}")
    if m.cols != t.shape[axis]:
        raise ShapeError(f"map expects dimension {m.cols}, axis has {t.shape[axis]}")
    if m.field != t.field:
        raise SemanticError("map and tensor live over different fields")
    cols_nz: dict[int, list[tuple[int, object]]] = {}
    for (i, k), v in m.nonzeros():
        cols_nz.setdefault(k, []).append((i, v))
    new_shape = tuple(m.rows if k == axis else s for k, s in enumerate(t.shape))
    stride = _strides(t.shape)[axis]
    dim = t.shape[axis]
    out: dict[int, object] = {}
    for flat, v in t._nz.items():
        hi, lo = divmod(flat, stride)
        hi, k = divmod(hi, dim)
        nbase = hi * stride * m.rows + lo
        for i, c in cols_nz.get(k, ()):
            pos = nbase + i * stride
            s = out.get(pos)
            out[pos] = c * v if s is None else s + c * v
    return Tensor._from_flat(new_shape, {p: x for p, x in out.items() if x}, t.field)


def apply_end(t: Tensor, maps) -> Tensor:
    """Act factor-wise by the given maps; None leaves a factor untouched."""
    maps = list(maps)
    if len(maps) != t.order:
        raise ShapeError(f"expected {t.order} maps, got {len(maps)}")
    out = t
    for axis, m in enumerate(maps):
        if m is not None:
            out = mode_apply(out, m, axis)
    return out


def flatten(t: Tensor, axis: int) -> Matrix:
    """Flattening along one axis: rows indexed by that axis, columns by the rest.

    Its row-major keys are those of t with that axis moved to the front.
    """
    if not (0 <= axis < t.order):
        raise ShapeError(f"axis {axis} outside order {t.order}")
    moved = transpose_axes(t, [axis, *(k for k in range(t.order) if k != axis)])
    return Matrix._from_flat((t.shape[axis], prod(t.shape) // t.shape[axis]), moved._nz, t.field)


def mlrank(t: Tensor) -> tuple[int, ...]:
    """Multilinear rank: the tuple of flattening ranks."""
    return tuple(rank(flatten(t, j)) for j in range(t.order))


def random_tensor(shape, seed: int, field: Field = QQ, bound: int = INSTANCE_ENTRY_BOUND) -> Tensor:
    """Reproducible random tensor with integer entries uniform in [-bound, bound]."""
    rng = random.Random(seed)
    return Tensor(tuple(shape), [rng.randint(-bound, bound) for _ in range(prod(tuple(shape)))], field)

