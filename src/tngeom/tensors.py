"""Sparse exact tensors with the multilinear operations the rest of the
package is built from: pairwise contraction (tensordot, and outer products
and single-tensor traces on top of it), flattenings, multilinear rank,
endomorphism actions and the induced derivation action.

Conventions, fixed once and used everywhere:

* entries are keyed row-major (last index fastest), and only nonzeros are
  stored, in the same ``SparseArray`` form as matrices;
* a matrix space factor of size r x c is linearized as row*c + col;
* flattening along axis j keeps the remaining axes in their original order.
"""

from __future__ import annotations

import random
from math import prod

from .errors import SemanticError, ShapeError
from .fields import QQ, Field
from .linalg import Matrix, SparseArray, lin_index, multi_index, rank

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


def _grouped(t: Tensor, axes: list[int]) -> tuple[dict, tuple[int, ...]]:
    """Nonzeros keyed by their indices on the given axes, each stored as
    (row-major index over the other axes, value), and the other axes' shape."""
    shape = t.shape
    free = [k for k in range(t.order) if k not in axes]
    free_shape = tuple(shape[k] for k in free)
    strides = _strides(shape)
    key_axes = [(strides[k], shape[k]) for k in axes]
    rest_axes = [(strides[k], shape[k], s) for k, s in zip(free, _strides(free_shape))]
    groups: dict[tuple, list] = {}
    for flat, v in t._nz.items():
        rest = 0
        for st, n, s in rest_axes:
            rest += flat // st % n * s
        groups.setdefault(tuple([flat // st % n for st, n in key_axes]), []).append((rest, v))
    return groups, free_shape


def tensordot(a: Tensor, b: Tensor, pairs) -> Tensor:
    """Contract axis i of a with axis j of b for every (i, j) in pairs, in one pass.

    The result keeps the uncontracted axes of a, then those of b, each in
    their original order; with no pairs it is the outer product.
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
    groups_a, shape_a = _grouped(a, axes_a)
    groups_b, shape_b = _grouped(b, axes_b)
    size_b = prod(shape_b)
    out: dict[int, object] = {}
    for key, items_a in groups_a.items():
        items_b = groups_b.get(key, ())
        for fa, va in items_a:
            base = fa * size_b
            for fb, vb in items_b:
                s = out.get(base + fb)
                out[base + fb] = va * vb if s is None else s + va * vb
    return Tensor._from_flat(shape_a + shape_b, {k: v for k, v in out.items() if v}, a.field)


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
    step = [0] * t.order
    for q, s in zip(perm, _strides(new_shape)):
        step[q] = s
    nz = {sum(i * s for i, s in zip(multi_index(flat, t.shape), step)): v for flat, v in t._nz.items()}
    return Tensor._from_flat(new_shape, nz, t.field)


def contract_pair(t: Tensor, axis_a: int, axis_b: int) -> Tensor:
    """Sum over equal indices on two axes of one tensor; both axes are dropped."""
    n = t.order
    if axis_a == axis_b or not (0 <= axis_a < n and 0 <= axis_b < n):
        raise ShapeError(f"bad axis pair ({axis_a},{axis_b}) for order {n}")
    d = t.shape[axis_a]
    ident = Tensor._from_flat((d, d), {i * d + i: t.field.one for i in range(d)}, t.field)
    out = tensordot(t, ident, [(axis_a, 0), (axis_b, 1)])
    return out if out.order else Tensor._from_flat((1,), out._nz, t.field)


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


def flatten(t: Tensor, axis: int) -> Matrix:
    """Flattening along one axis: rows indexed by that axis, columns by the rest."""
    if not (0 <= axis < t.order):
        raise ShapeError(f"axis {axis} outside order {t.order}")
    stride = _strides(t.shape)[axis]
    dim = t.shape[axis]
    ncols = prod(t.shape) // dim
    nz = {}
    for flat, v in t._nz.items():
        hi, lo = divmod(flat, stride)
        hi, i = divmod(hi, dim)
        nz[i * ncols + hi * stride + lo] = v
    return Matrix._from_flat((dim, ncols), nz, t.field)


def mlrank(t: Tensor) -> tuple[int, ...]:
    """Multilinear rank: the tuple of flattening ranks."""
    return tuple(rank(flatten(t, j)) for j in range(t.order))


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


def random_tensor(shape, seed: int, field: Field = QQ, bound: int = INSTANCE_ENTRY_BOUND) -> Tensor:
    """Reproducible random tensor with integer entries uniform in [-bound, bound]."""
    rng = random.Random(seed)
    return Tensor(tuple(shape), [rng.randint(-bound, bound) for _ in range(prod(tuple(shape)))], field)

