"""Dense exact tensors with the multilinear operations the rest of the
package is built from: outer products, edge contractions, flattenings,
multilinear rank, endomorphism actions and the induced derivation action.

Conventions, fixed once and used everywhere:

* entries are stored row-major (last index fastest);
* a matrix space factor of size r x c is linearized as row*c + col;
* flattening along axis j keeps the remaining axes in their original order.
"""

from __future__ import annotations

import random
from math import prod

from .errors import SemanticError, ShapeError
from .fields import QQ, Field, RationalField
from .linalg import Matrix, rank

INSTANCE_ENTRY_BOUND = 999  # random tensors stay small to keep exact ranks cheap


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


class Tensor:
    """Immutable dense tensor over an exact field."""

    __slots__ = ("shape", "entries", "field")

    def __init__(self, shape, entries, field: Field = QQ):
        shape = tuple(int(s) for s in shape)
        if any(s < 1 for s in shape):
            raise ShapeError(f"axis dimensions must be positive: {shape}")
        ent = tuple(field.coerce(x) for x in entries)
        if len(ent) != prod(shape):
            raise ShapeError(f"expected {prod(shape)} entries for shape {shape}, got {len(ent)}")
        object.__setattr__(self, "shape", shape)
        object.__setattr__(self, "entries", ent)
        object.__setattr__(self, "field", field)

    def __setattr__(self, name, value):
        raise AttributeError("Tensor is immutable")

    @classmethod
    def zeros(cls, shape, field: Field = QQ) -> "Tensor":
        return cls(shape, [field.zero] * prod(tuple(shape)), field)

    @classmethod
    def from_nonzeros(cls, shape, items, field: Field = QQ) -> "Tensor":
        shape = tuple(shape)
        data = [field.zero] * prod(shape)
        for idx, val in dict(items).items():
            data[lin_index(tuple(idx), shape)] = field.coerce(val)
        return cls(shape, data, field)

    @property
    def order(self) -> int:
        return len(self.shape)

    def at(self, idx) -> object:
        return self.entries[lin_index(tuple(idx), self.shape)]

    def nonzeros(self):
        for flat, v in enumerate(self.entries):
            if v:
                yield multi_index(flat, self.shape), v

    def is_zero(self) -> bool:
        return not any(self.entries)

    def __add__(self, other: "Tensor") -> "Tensor":
        self._compat(other)
        return Tensor(self.shape, [a + b for a, b in zip(self.entries, other.entries)], self.field)

    def __sub__(self, other: "Tensor") -> "Tensor":
        self._compat(other)
        return Tensor(self.shape, [a - b for a, b in zip(self.entries, other.entries)], self.field)

    def __neg__(self) -> "Tensor":
        return Tensor(self.shape, [-a for a in self.entries], self.field)

    def scale(self, s) -> "Tensor":
        s = self.field.coerce(s)
        return Tensor(self.shape, [s * a for a in self.entries], self.field)

    def _compat(self, other: "Tensor"):
        if not isinstance(other, Tensor):
            raise SemanticError("expected a Tensor")
        if self.field != other.field:
            raise SemanticError("tensors live over different fields")
        if self.shape != other.shape:
            raise ShapeError(f"shape mismatch: {self.shape} vs {other.shape}")

    def __eq__(self, other):
        if not isinstance(other, Tensor):
            return NotImplemented
        return self.field == other.field and self.shape == other.shape and self.entries == other.entries

    def __hash__(self):
        return hash((self.shape, self.entries, self.field))

    def __repr__(self):
        nnz = sum(1 for v in self.entries if v)
        return f"Tensor(shape={self.shape}, nnz={nnz}, field={self.field!r})"


def _strides(shape: tuple[int, ...]) -> list[int]:
    st = [1] * len(shape)
    for k in range(len(shape) - 2, -1, -1):
        st[k] = st[k + 1] * shape[k + 1]
    return st


def outer(a: Tensor, b: Tensor) -> Tensor:
    if a.field != b.field:
        raise SemanticError("tensors live over different fields")
    size_b = prod(b.shape)
    data = [a.field.zero] * (prod(a.shape) * size_b)
    for fa, va in enumerate(a.entries):
        if not va:
            continue
        base = fa * size_b
        for fb, vb in enumerate(b.entries):
            if vb:
                data[base + fb] = va * vb
    return Tensor(a.shape + b.shape, data, a.field)


def transpose_axes(t: Tensor, perm) -> Tensor:
    perm = tuple(perm)
    if sorted(perm) != list(range(t.order)):
        raise ShapeError(f"{perm} is not a permutation of {t.order} axes")
    new_shape = tuple(t.shape[p] for p in perm)
    data = [t.field.zero] * len(t.entries)
    for flat, v in enumerate(t.entries):
        if v:
            idx = multi_index(flat, t.shape)
            data[lin_index(tuple(idx[p] for p in perm), new_shape)] = v
    return Tensor(new_shape, data, t.field)


def merge_axes(t: Tensor, a: int, b: int) -> Tensor:
    """Fuse axes a and b (a-major) into a single axis placed at position a."""
    if a == b:
        raise ShapeError("cannot merge an axis with itself")
    if b < a:
        t = transpose_axes(t, [b if k == a else a if k == b else k for k in range(t.order)])
        a, b = b, a
    new_shape = []
    for k, s in enumerate(t.shape):
        if k == a:
            new_shape.append(t.shape[a] * t.shape[b])
        elif k != b:
            new_shape.append(s)
    new_shape = tuple(new_shape)
    data = [t.field.zero] * len(t.entries)
    for flat, v in enumerate(t.entries):
        if v:
            idx = multi_index(flat, t.shape)
            fused = idx[a] * t.shape[b] + idx[b]
            rest = [fused if k == a else idx[k] for k in range(t.order) if k != b]
            data[lin_index(tuple(rest), new_shape)] = v
    return Tensor(new_shape, data, t.field)


def contract_pair(t: Tensor, axis_a: int, axis_b: int) -> Tensor:
    """Sum over equal indices on two axes of one tensor; both axes are dropped."""
    n = t.order
    if axis_a == axis_b or not (0 <= axis_a < n and 0 <= axis_b < n):
        raise ShapeError(f"bad axis pair ({axis_a},{axis_b}) for order {n}")
    if t.shape[axis_a] != t.shape[axis_b]:
        raise ShapeError(f"contracted axes must agree: {t.shape[axis_a]} vs {t.shape[axis_b]}")
    keep = [k for k in range(n) if k not in (axis_a, axis_b)]
    new_shape = tuple(t.shape[k] for k in keep) or (1,)
    scalar_out = not keep
    data = [t.field.zero] * prod(new_shape)
    for flat, v in enumerate(t.entries):
        if v:
            idx = multi_index(flat, t.shape)
            if idx[axis_a] == idx[axis_b]:
                pos = 0 if scalar_out else lin_index(tuple(idx[k] for k in keep), new_shape)
                data[pos] = data[pos] + v
    return Tensor(new_shape, data, t.field)


def mode_apply(t: Tensor, m: Matrix, axis: int) -> Tensor:
    """Apply a matrix to one axis: out[.., i, ..] = sum_k m[i,k] t[.., k, ..]."""
    if not (0 <= axis < t.order):
        raise ShapeError(f"axis {axis} outside order {t.order}")
    if m.cols != t.shape[axis]:
        raise ShapeError(f"map expects dimension {m.cols}, axis has {t.shape[axis]}")
    if m.field != t.field:
        raise SemanticError("map and tensor live over different fields")
    cols_nz: list[list[tuple[int, object]]] = [[] for _ in range(m.cols)]
    for (i, k), v in m.nonzeros():
        cols_nz[k].append((i, v))
    new_shape = tuple(m.rows if k == axis else s for k, s in enumerate(t.shape))
    stride = _strides(t.shape)[axis]
    out = [t.field.zero] * prod(new_shape)
    dim = t.shape[axis]
    for flat, v in enumerate(t.entries):
        if not v:
            continue
        k = (flat // stride) % dim
        base = flat - k * stride
        hi, lo = divmod(base, stride * dim)
        nbase = hi * stride * m.rows + lo
        for i, c in cols_nz[k]:
            pos = nbase + i * stride
            out[pos] = out[pos] + c * v
    return Tensor(new_shape, out, t.field)


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
    keep = [k for k in range(t.order) if k != axis]
    rest_shape = tuple(t.shape[k] for k in keep)
    ncols = prod(rest_shape) if rest_shape else 1
    items = {}
    for idx, v in t.nonzeros():
        col = lin_index(tuple(idx[k] for k in keep), rest_shape) if rest_shape else 0
        items[idx[axis], col] = v
    return Matrix.from_nonzeros(t.shape[axis], ncols, items, t.field)


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
    return acc


def eval_trilinear(t: Tensor, p, q, r) -> object:
    """Order-3 form evaluation; arguments may be flat vectors or matrices."""
    if t.order != 3:
        raise ShapeError("eval_trilinear needs an order-3 tensor")
    return eval_multilinear(t, (p, q, r))


def random_tensor(shape, seed: int, field: Field = QQ, bound: int = INSTANCE_ENTRY_BOUND) -> Tensor:
    """Reproducible random tensor with integer entries uniform in [-bound, bound]."""
    rng = random.Random(seed)
    return Tensor(tuple(shape), [rng.randint(-bound, bound) for _ in range(prod(tuple(shape)))], field)


def tensor_rank_upper(t: Tensor) -> int:  # pragma: no cover - diagnostic helper
    """Cheap upper bound: number of nonzero entries."""
    return sum(1 for v in t.entries if v)
