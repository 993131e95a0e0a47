"""JSON wire formats.

All scalars travel as strings ("3", "-7/2", prime-field residues as
decimal digits) so nothing is ever rounded.  A scalar string must read
-?[0-9]+(/[0-9]+)? in ASCII: anything else (an exponent, whose short
"1e30000000" stands for an integer of millions of digits, a decimal
point, a sign "+", spaces, underscores, non-ASCII digits) is refused
before any number is built.  Serialization is
deterministic: fixed key order, nonzero tensor entries in lexicographic
index order, two-space indentation, trailing newline.  Reports are
written by `dump`, a small indent-2 writer that gives the bytes of
`dumps` (the `json` module's indent-2 encoder) and writes each Tensor in
a report entry by entry, as `tensor_to_obj` would spell it, without
building its list of entry dicts.

Structural problems (missing keys, wrong JSON types, unparsable scalars)
raise FormatError; well-formed data describing an impossible object
(bad shapes, non-idempotent projectors, dangling edges) is left to the
constructors, which raise SemanticError subclasses.
"""

from __future__ import annotations

import json
import re
import sys
from contextlib import nullcontext
from fractions import Fraction

from .curves import MatrixCurve
from .errors import FormatError, SemanticError
from .fields import Field
from .linalg import Matrix
from .networks import NetworkGraph, TNSInstance
from .tensors import Tensor
from .varieties import Certificate
from .zoo import Splitting


def dumps(obj) -> str:
    return json.dumps(obj, indent=2) + "\n"


def dump(obj, path: str | None) -> None:
    """Write a report to the file at path, or to stdout when path is empty or None.

    A report is made of dicts with string keys, lists, JSON leaves and
    Tensors.  The bytes are those of dumps(obj) with each Tensor t replaced
    by tensor_to_obj(t), but t is written entry by entry, so its list of
    entry dicts is never built.  Every tensor scalar is checked against
    Python's digit limit before the file is opened or a byte is written.
    A file that cannot be opened for writing raises FormatError.
    """
    _check_scalars(obj)
    try:
        out = open(path, "w", encoding="utf-8") if path else nullcontext(sys.stdout)
    except OSError as exc:
        raise FormatError(f"cannot write {path}: {exc}") from exc
    with out as fh:
        fh.writelines(_pieces(obj, "\n"))
        fh.write("\n")


def _pieces(obj, nl: str):
    """The text of json.dumps(obj, indent=2) in pieces; nl is a newline and the indent of obj's line."""
    inner = nl + "  "
    if isinstance(obj, Tensor):
        yield "{" + inner + '"shape": ' + _ints(obj.shape, inner) + "," + inner + '"entries": '
        yield from _entries(obj, inner)
        yield nl + "}"
    elif isinstance(obj, dict) and obj:
        sep = "{" + inner
        for key, value in obj.items():
            yield sep + json.dumps(key) + ": "
            yield from _pieces(value, inner)
            sep = "," + inner
        yield nl + "}"
    elif isinstance(obj, (list, tuple)) and obj:
        sep = "[" + inner
        for value in obj:
            yield sep
            yield from _pieces(value, inner)
            sep = "," + inner
        yield nl + "]"
    else:
        yield json.dumps(obj)


def _ints(xs, nl: str) -> str:
    inner = nl + "  "
    return "[" + inner + ("," + inner).join(map(str, xs)) + nl + "]" if xs else "[]"


def _entries(t: Tensor, nl: str):
    """The "entries" list of tensor_to_obj(t) in pieces, one per nonzero entry."""
    if t.is_zero():
        yield "[]"
        return
    i1, i2 = nl + "  ", nl + "    "
    sep = "[" + i1
    for idx, v in t.nonzeros():
        # a scalar string is -?[0-9]+(/[0-9]+)?, so it needs no escaping
        yield sep + "{" + i2 + '"idx": ' + _ints(idx, i2) + "," + i2 + '"val": "' + str(v) + '"' + i1 + "}"
        sep = "," + i1
    yield nl + "]"


def _check_scalars(obj) -> None:
    """Turn every tensor scalar of a report into text once, so that one past
    Python's digit limit is refused before any output exists."""
    if isinstance(obj, Tensor):
        for v in obj._nz.values():
            scalar_to_str(v)
    elif isinstance(obj, (dict, list, tuple)):
        for value in obj.values() if isinstance(obj, dict) else obj:
            _check_scalars(value)


def loads(text: str):
    try:
        return json.loads(text)
    except ValueError as exc:  # a JSONDecodeError, or an integer past the int digit limit
        raise FormatError(f"invalid JSON: {exc}") from exc


def load_path(path: str):
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return loads(fh.read())
    except OSError as exc:
        raise FormatError(f"cannot read {path}: {exc}") from exc


def _require(cond: bool, msg: str):
    if not cond:
        raise FormatError(msg)


def _as_dict(obj, what: str) -> dict:
    _require(isinstance(obj, dict), f"{what} must be a JSON object")
    return obj


def _as_list(obj, what: str) -> list:
    _require(isinstance(obj, list), f"{what} must be a JSON array")
    return obj


def _as_int(obj, what: str) -> int:
    _require(isinstance(obj, int) and not isinstance(obj, bool), f"{what} must be an integer")
    return obj


def _field_key(d: dict, key: str, what: str):
    _require(key in d, f"{what} is missing key '{key}'")
    return d[key]


_SCALAR = re.compile(r"(-?[0-9]+)(?:/([0-9]+))?")


def _abbrev(s: str) -> str:
    return repr(s) if len(s) <= 40 else f"{s[:40]!r}... ({len(s)} characters)"


def scalar_to_str(x) -> str:
    try:
        return str(x)
    except ValueError as exc:  # an integer past Python's limit for writing one as text
        raise SemanticError(f"a report scalar has more than {sys.get_int_max_str_digits()} digits, "
                            "Python's limit for writing an integer as text") from exc


def parse_scalar(s, field: Field):
    if isinstance(s, int) and not isinstance(s, bool):
        return field.coerce(s)
    _require(isinstance(s, str), f"scalar must be a string, got {type(s).__name__}")
    m = _SCALAR.fullmatch(s)
    if m is None:
        raise FormatError(f"bad scalar {_abbrev(s)}: a scalar reads -?[0-9]+(/[0-9]+)? in ASCII digits, "
                          "with no exponent, decimal point, '+' or spaces")
    num, den = m.groups()
    try:
        q = int(num) if den is None else Fraction(int(num), int(den))
    except (ValueError, ZeroDivisionError) as exc:  # an integer past the digit limit, or a zero denominator
        raise FormatError(f"bad scalar {_abbrev(s)}: {exc}") from exc
    return field.coerce(q)


# --- matrices ---

def matrix_to_obj(m: Matrix) -> dict:
    return {
        "rows": m.rows,
        "cols": m.cols,
        "entries": [scalar_to_str(x) for x in m.entries],
    }


def matrix_from_obj(obj, field: Field) -> Matrix:
    d = _as_dict(obj, "matrix")
    rows = _as_int(_field_key(d, "rows", "matrix"), "rows")
    cols = _as_int(_field_key(d, "cols", "matrix"), "cols")
    raw = _as_list(_field_key(d, "entries", "matrix"), "matrix entries")
    _require(len(raw) == rows * cols, f"matrix needs {rows * cols} entries, got {len(raw)}")
    return Matrix(rows, cols, [parse_scalar(x, field) for x in raw], field)


# --- tensors (nonzero entries only) ---

def tensor_to_obj(t: Tensor) -> dict:
    entries = []
    for idx, v in t.nonzeros():
        entries.append({"idx": list(idx), "val": scalar_to_str(v)})
    return {"shape": list(t.shape), "entries": entries}


def tensor_from_obj(obj, field: Field) -> Tensor:
    d = _as_dict(obj, "tensor")
    shape = tuple(_as_int(s, "shape entry") for s in _as_list(_field_key(d, "shape", "tensor"), "shape"))
    items = {}
    for ent in _as_list(_field_key(d, "entries", "tensor"), "tensor entries"):
        ed = _as_dict(ent, "tensor entry")
        idx = tuple(_as_int(i, "index entry") for i in _as_list(_field_key(ed, "idx", "tensor entry"), "idx"))
        _require(len(idx) == len(shape), f"index {idx} has wrong length for shape {shape}")
        items[idx] = parse_scalar(_field_key(ed, "val", "tensor entry"), field)
    return Tensor.from_nonzeros(shape, items, field)


# --- graphs and instances ---

def graph_to_obj(g: NetworkGraph) -> dict:
    return {
        "vertices": [{"id": v.id, "dim": v.dim} for v in g.vertices],
        "edges": [
            {"id": e.id, "tail": e.tail, "head": e.head, "dim": e.dim} for e in g.edges
        ],
    }


def graph_from_obj(obj) -> NetworkGraph:
    d = _as_dict(obj, "graph")
    vertices = []
    for v in _as_list(_field_key(d, "vertices", "graph"), "vertices"):
        vd = _as_dict(v, "vertex")
        vertices.append((_as_int(_field_key(vd, "id", "vertex"), "vertex id"),
                         _as_int(_field_key(vd, "dim", "vertex"), "vertex dim")))
    edges = []
    for e in _as_list(_field_key(d, "edges", "graph"), "edges"):
        ed = _as_dict(e, "edge")
        edges.append((_as_int(_field_key(ed, "id", "edge"), "edge id"),
                      _as_int(_field_key(ed, "tail", "edge"), "edge tail"),
                      _as_int(_field_key(ed, "head", "edge"), "edge head"),
                      _as_int(_field_key(ed, "dim", "edge"), "edge dim")))
    return NetworkGraph.build(vertices, edges)


def instance_to_obj(inst: TNSInstance) -> dict:
    obj = graph_to_obj(inst.graph)
    obj["tensors"] = {str(v.id): tensor_to_obj(inst.tensors[v.id]) for v in inst.graph.vertices}
    return obj


def instance_from_obj(obj, field: Field) -> TNSInstance:
    d = _as_dict(obj, "instance")
    g = graph_from_obj(d)
    tensors = {}
    for key, tobj in _as_dict(_field_key(d, "tensors", "instance"), "tensors").items():
        try:
            vid = int(key)
        except ValueError as exc:
            raise FormatError(f"tensor key {_abbrev(key)} is not a vertex id") from exc
        # int() also reads " 1", "01", "+1", "1_0" and non-ASCII digits, so two keys could name one vertex
        _require(key == str(vid), f"tensor key {_abbrev(key)} is not a vertex id; write it as '{vid}'")
        tensors[vid] = tensor_from_obj(tobj, field)
    return TNSInstance(g, tensors)


# --- splittings and curves ---

_SPLIT_KEYS = ("X0", "Y0", "Z0")


def splitting_to_obj(s: Splitting) -> dict:
    return {k: matrix_to_obj(p) for k, p in zip(_SPLIT_KEYS, s.projectors())}


def splitting_from_obj(obj, field: Field) -> Splitting:
    d = _as_dict(obj, "splitting")
    mats = [matrix_from_obj(_field_key(d, k, "splitting"), field) for k in _SPLIT_KEYS]
    return Splitting(*mats)


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


# --- reports ---

def certificate_to_obj(c: Certificate) -> dict:
    return {
        "e": c.e,
        "stab_mmult": c.stab_mmult,
        "stab_mtilde": c.stab_mtilde,
        "mlrank_mtilde": list(c.mlrank_mtilde),
        "leading_power": c.leading_power,
        "leading_matches_formula": c.leading_matches_formula,
        "conclusion": c.conclusion,
        "reason": c.reason,
    }


def field_label(field: Field) -> dict:
    if field.prime is None:
        return {"field": "rational", "prime": None}
    return {"field": "Fp", "prime": field.prime}
