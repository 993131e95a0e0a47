"""Reference computations the benchmark checks `tngeom` reports against.

Nothing here imports `tngeom`: every expected value is worked out from
the definitions (graphs, splittings, the trace form) and the paper's
closed-form counts, so a change to the program cannot change what its
output is compared with.  Each check reads only the report keys it needs,
so extra keys in a report do not break it.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from math import prod


class CheckFailed(Exception):
    """An operation's output does not have the property its check asks for."""


def expect(cond: bool, msg: str) -> None:
    if not cond:
        raise CheckFailed(msg)


# --- graphs, as the benchmark writes them ---

def loop_graph(edge_dims, vertex_dims=None) -> dict:
    """Cycle on n vertices; edge j runs from vertex j to vertex j+1 (mod n)."""
    n = len(edge_dims)
    if vertex_dims is None:
        vertex_dims = [edge_dims[j - 1] * edge_dims[j] for j in range(n)]
    return {
        "vertices": [{"id": j + 1, "dim": vertex_dims[j]} for j in range(n)],
        "edges": [{"id": j + 1, "tail": j + 1, "head": (j + 1) % n + 1, "dim": edge_dims[j]}
                  for j in range(n)],
    }


def chain_graph(vertex_dims, edge_dims) -> dict:
    """Path graph; edge j runs from vertex j to vertex j+1."""
    return {
        "vertices": [{"id": j + 1, "dim": d} for j, d in enumerate(vertex_dims)],
        "edges": [{"id": j + 1, "tail": j + 1, "head": j + 2, "dim": d}
                  for j, d in enumerate(edge_dims)],
    }


def fold_valence_one(graph: dict) -> tuple[dict, list[dict]]:
    """Fold valence-one vertices whose dimension fits inside their edge.

    The rule of the paper's reduction: a leaf of dimension at most its edge
    dimension is absorbed by its neighbour, whose dimension is multiplied
    by the leaf's.  Leaves are taken by ascending vertex id, one at a time.
    Returns the vertex dims and edges left, and the merges in order.
    """
    dims = {v["id"]: v["dim"] for v in graph["vertices"]}
    edges = {e["id"]: (e["tail"], e["head"], e["dim"]) for e in graph["edges"]}
    merges = []
    while True:
        for vid in sorted(dims):
            inc = [eid for eid, (t, h, _) in edges.items() if vid in (t, h)]
            if len(inc) == 1 and dims[vid] <= edges[inc[0]][2]:
                break
        else:
            break
        eid = inc[0]
        tail, head, _ = edges.pop(eid)
        other = head if tail == vid else tail
        dims[other] *= dims.pop(vid)
        merges.append({"removed": vid, "edge": eid, "target": other, "new_dim": dims[other]})
    return {"dims": dims, "edges": edges}, merges


def _loop_count(edge_dims) -> int:
    """Dimension of the critical n-loop set, n >= 3: sum e_j^2 e_{j+1}^2 - (sum e_j^2 - 1)."""
    n = len(edge_dims)
    return (sum(edge_dims[j] ** 2 * edge_dims[(j + 1) % n] ** 2 for j in range(n))
            - (sum(e * e for e in edge_dims) - 1))


def expected_tns_dim(graph: dict) -> int:
    """Closed-form dimension for the graph families the `dim` workload uses.

    After valence-one folds: two vertices joined by edges of total
    dimension r give the secant count min(r(a + b - r), ab); a loop gives
    the critical-loop count on the vertex dims clamped to their edge
    products f, plus the supercritical offset sum f(v - f).
    """
    folded, _ = fold_valence_one(graph)
    dims, edges = folded["dims"], folded["edges"]
    if len(dims) == 2:
        a, b = dims.values()
        r = prod(d for _, _, d in edges.values())
        return min(r * (a + b - r), a * b)
    expect(len(edges) == len(dims) >= 3, "closed form needs a loop or two vertices")
    walk, seq = [], []
    vid = min(dims)
    for _ in dims:
        out = [(h, d) for t, h, d in edges.values() if t == vid]
        expect(len(out) == 1, "closed form expects a directed loop")
        walk.append(vid)
        vid, d = out[0]
        seq.append(d)
    expect(vid == walk[0] and len(set(walk)) == len(dims), "closed form expects a single loop")
    offset = 0
    for j, vid in enumerate(walk):
        f = seq[j - 1] * seq[j]
        expect(dims[vid] >= f, "closed form expects critical or supercritical vertices")
        offset += f * (dims[vid] - f)
    return _loop_count(seq) + offset


# --- tensors and the trace form ---

def tensor_obj(shape, items) -> dict:
    """Wire-format tensor from {index tuple: int}; zero entries are left out."""
    return {"shape": list(shape),
            "entries": [{"idx": list(idx), "val": str(v)} for idx, v in sorted(items.items()) if v]}


def read_tensor(obj: dict, prime: int | None) -> dict:
    """{index tuple: value} of a reported tensor, reduced mod prime if given."""
    out = {}
    for ent in obj["entries"]:
        v = Fraction(ent["val"])
        if prime is not None:
            v = v.numerator * pow(v.denominator, -1, prime) % prime
        out[tuple(ent["idx"])] = v
    return out


def loop_trace_entry(tensors: list[dict], edge_dims, idx) -> int:
    """Entry idx of a contracted loop: trace(M_1 ... M_n), M_j = T_j[i_j, :, :].

    tensors[j] maps (vertex index, in-edge index, out-edge index) to an int;
    vertex j's in-edge is edge j-1 and its out-edge is edge j.
    """
    n = len(tensors)
    acc = None
    for j in range(n):
        rows, cols = edge_dims[j - 1], edge_dims[j]
        m = [[tensors[j].get((idx[j], a, b), 0) for b in range(cols)] for a in range(rows)]
        acc = m if acc is None else [[sum(acc[r][k] * m[k][c] for k in range(len(m)))
                                      for c in range(cols)] for r in range(len(acc))]
    return sum(acc[k][k] for k in range(len(acc)))


def mmult_support(e: int) -> list[tuple[int, int, int]]:
    """Nonzeros (all equal to 1) of the e x e trace form (P, Q, R) -> trace(PQR),
    with matrices linearized row-major: P[i][a] Q[a][u] R[u][i]."""
    return [(i * e + a, a * e + u, u * e + i)
            for i in range(e) for a in range(e) for u in range(e)]


def diagonal_splitting_cells(e: int):
    """Kept cells of the diagonal splitting: diagonal on factors 1 and 2,
    off-diagonal on factor 3."""
    diag = frozenset(i * e + i for i in range(e))
    off = frozenset(i * e + j for i in range(e) for j in range(e) if i != j)
    return diag, diag, off


def block_splitting_cells(parts):
    """Kept cells of the two-block splitting e_j = e_j' + e_j''.

    parts = (e1', e1'', e2', e2'', e3', e3''); factor 1 holds e2 x e3
    matrices, factor 2 e3 x e1 and factor 3 e1 x e2.  Factors 1 and 2 keep
    the diagonal blocks, factor 3 the anti-diagonal blocks.
    """
    (a1, b1), (a2, b2), (a3, b3) = parts[0:2], parts[2:4], parts[4:6]

    def cells(rsplit, csplit, anti):
        rows, cols = sum(rsplit), sum(csplit)
        return frozenset(i * cols + j for i in range(rows) for j in range(cols)
                         if ((i < rsplit[0]) == (j < csplit[0])) != anti)

    return (cells((a2, b2), (a3, b3), False),
            cells((a3, b3), (a1, b1), False),
            cells((a1, b1), (a2, b2), True))


def projector_obj(n: int, kept: set[int]) -> dict:
    """Wire-format n x n coordinate projector keeping the given cells."""
    return {"rows": n, "cols": n,
            "entries": ["1" if r == c and r in kept else "0" for r in range(n) for c in range(n)]}


def splitting_limit(e: int, kept) -> tuple[int, dict]:
    """Leading power and term of the trace form along the curve P0 + t(1 - P0).

    A nonzero of the trace form picks up t once for every factor whose
    cell lies outside the kept set, so the coefficient of t^k is the sum
    of the projected traces with exactly k complemented factors.
    """
    by_power: dict[int, dict] = {}
    for idx in mmult_support(e):
        k = sum(1 for j in range(3) if idx[j] not in kept[j])
        by_power.setdefault(k, {})[idx] = 1
    power = min(by_power)
    return power, by_power[power]


def stabilizer_dim(items: dict, shape) -> int:
    """Dimension of the stabilizer algebra of a tensor, exactly over Q.

    Unknowns are the matrices X_j in gl(n_j); the equations are the entries
    of sum_j X_j acting on factor j, which must vanish.  Unknown (j, i, a),
    the entry X_j[i][a], takes the tensor's entry at index idx into entry
    idx with idx[j] replaced by i.  The rank comes from sparse elimination
    with Fractions, so this is meant for sparse tensors such as the limits
    of the trace form.
    """
    rows: dict[tuple, dict] = {}
    for idx, v in items.items():
        for j, n in enumerate(shape):
            for i in range(n):
                row = rows.setdefault(idx[:j] + (i,) + idx[j + 1:], {})
                col = (j, i, idx[j])
                row[col] = row.get(col, 0) + v
    pivots: dict[tuple, dict] = {}  # leading unknown -> row with coefficient 1 there
    for row in rows.values():
        row = {c: Fraction(v) for c, v in row.items() if v}
        while row:
            lead = min(row)
            piv = pivots.get(lead)
            if piv is None:
                inv = 1 / row[lead]
                pivots[lead] = {c: v * inv for c, v in row.items()}
                break
            f = row[lead]
            for c, v in piv.items():
                w = row.get(c, 0) - f * v
                if w:
                    row[c] = w
                else:
                    row.pop(c, None)
    return sum(n * n for n in shape) - len(pivots)


@lru_cache(maxsize=None)
def limit_stabilizer_dim(e: int, kept: tuple[frozenset, frozenset, frozenset]) -> int:
    """Stabilizer dimension over Q of the leading term of the splitting's limit."""
    _, term = splitting_limit(e, kept)
    return stabilizer_dim(term, (e * e,) * 3)


# --- per-subcommand checks ---

def check_certify(report: dict, e: int, kept) -> None:
    """The certificate for the splitting with the given kept cells.  The limit's
    stabilizer is compared with the benchmark's own exact count over Q, also
    when the report's figure was taken mod p."""
    n = e * e
    expect(report["conclusion"] == "not_closed_certified", f"conclusion {report['conclusion']!r}")
    expect(report["stab_mmult"] == 3 * n - 1, f"stab_mmult {report['stab_mmult']} != 3e^2-1")
    expect(report["mlrank_mtilde"] == [n, n, n], f"mlrank_mtilde {report['mlrank_mtilde']}")
    expect(report["leading_power"] == 1, f"leading_power {report['leading_power']}")
    want = limit_stabilizer_dim(e, kept)
    expect(report["stab_mtilde"] == want, f"stab_mtilde {report['stab_mtilde']} != {want}")
    expect(report["stab_mtilde"] > report["stab_mmult"], "no stabilizer excess")


def check_stabilizer(report: dict, shape, want: int) -> None:
    """`want` is the stabilizer dimension the tensor must have: order - 1 for a
    dense random tensor (only the scalars a I, b I, c I, ... with sum zero fix
    it), or the benchmark's own count."""
    group = sum(s * s for s in shape)
    expect(report["stab_dim"] + report["orbit_dim"] == group,
           f"stab_dim + orbit_dim != {group}")
    expect(report["stab_dim"] == want, f"stab_dim {report['stab_dim']} != {want}")


def check_dim(report: dict, graph: dict) -> None:
    want = expected_tns_dim(graph)
    expect(report["jacobian_dim"] == want, f"jacobian_dim {report['jacobian_dim']} != {want}")


def check_contract(report: dict, tensors, vertex_dims, edge_dims, positions, prime: int | None) -> None:
    shape = list(vertex_dims)
    expect(report["shape"] == shape, f"shape {report['shape']} != {shape}")
    got = read_tensor(report, prime)
    for idx in positions:
        want = loop_trace_entry(tensors, edge_dims, idx)
        if prime is not None:
            want %= prime
        expect(got.get(tuple(idx), 0) == want, f"entry {idx}: {got.get(tuple(idx), 0)} != {want}")


def check_reduce(report: dict, graph: dict) -> None:
    folded, merges = fold_valence_one(graph)
    expect([{k: m[k] for k in ("removed", "edge", "target", "new_dim")} for m in report["merges"]] == merges,
           "merge log differs")
    got = {v["id"]: v["dim"] for v in report["graph"]["vertices"]}
    expect(got == folded["dims"], f"folded dims {got} != {folded['dims']}")
    got_edges = {e["id"]: (e["tail"], e["head"], e["dim"]) for e in report["graph"]["edges"]}
    expect(got_edges == folded["edges"], "edges left after folding differ")


def check_limit(report: dict, e: int, kept) -> None:
    power, term = splitting_limit(e, kept)
    expect(report["leading_power"] == power, f"leading_power {report['leading_power']} != {power}")
    got = read_tensor(report["leading_term"], None)
    expect(report["leading_term"]["shape"] == [e * e] * 3, "leading term shape")
    expect(got == term, "leading term is not the sum of the mixed projected traces")
