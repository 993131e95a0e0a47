"""The benchmark's workloads: seeded inputs and the `tngeom` operations run on them.

Each workload is a fixed list of CLI invocations (operations).  Its
inputs are written from the seed before any timing starts; the seed
changes the random entries and the sampled instances, never the sizes,
so every seed asks for the same amount of work.  Each operation carries
the check its report must pass and a name that stays fixed across
changes to the program.
"""

from __future__ import annotations

import itertools
import json
import random
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

from . import checks

DEFAULT_PRIME = 2**31 - 1  # the modulus `--field fp` uses when --prime is not given
ENTRY_BOUND = 999
# seed of the files frontier tensor's entries: of the draws of seeds 1 to 10, this
# one's time is nearest their median (see README)
FRONTIER_DRAW = 9


@dataclass(frozen=True)
class Op:
    """One `tngeom` invocation; its report goes to `out` and must pass `check`.

    `after` runs on a report that passed its check, before the next
    operation, to hand part of the report on to a later operation.
    """

    name: str
    argv: tuple[str, ...]
    out: Path
    check: Callable[[dict], None]
    after: Callable[[dict], None] | None = None


@dataclass(frozen=True)
class Workload:
    frontier: str  # the operation whose time is reported as frontier_op_s
    ops: list[Op]


def _write(path: Path, obj) -> str:
    path.write_text(json.dumps(obj), encoding="utf-8")
    return str(path)


def _field_args(field: str | None) -> tuple[str, ...]:
    return () if field is None else ("--field", field)


def certify_workload(seed: int, work: Path) -> Workload:
    """The diagonal-splitting certificate at e = 3, 4 over both fields, and e = 5
    with the field left to the CLI (3e^4 > 800 picks Fp)."""
    ops = []
    for e, field in ((3, "rational"), (3, "fp"), (4, "rational"), (4, "fp"), (5, None)):
        name = f"certify-e{e}" + (f"-{field}" if field else "")
        out = work / f"{name}.json"
        ops.append(Op(name, ("certify", "--e", str(e), *_field_args(field), "--seed", str(seed),
                             "--out", str(out)),
                      out, lambda r, e=e: checks.check_certify(r, e, checks.diagonal_splitting_cells(e))))
    return Workload("certify-e5", ops)


def dim_workload(seed: int, work: Path) -> Workload:
    """Sampled Jacobian dimensions of loops and a foldable chain."""
    graphs = [
        ("loop2x3", checks.loop_graph([2, 2, 2]), ("rational", "fp")),
        ("loop2x4", checks.loop_graph([2, 2, 2, 2]), ("rational", "fp")),
        ("loop2x5", checks.loop_graph([2] * 5), ("fp",)),
        ("loop232", checks.loop_graph([2, 3, 2]), (None,)),
        ("superloop6444", checks.loop_graph([2, 2, 2, 2], [6, 4, 4, 4]), (None,)),
        ("chain3663", checks.chain_graph([3, 6, 6, 3], [3, 2, 3]), (None,)),
    ]
    ops = []
    for gname, graph, fields in graphs:
        path = _write(work / f"{gname}.graph.json", graph)
        for field in fields:
            name = f"dim-{gname}" + (f"-{field}" if field else "")
            out = work / f"{name}.json"
            ops.append(Op(name, ("dim", path, *_field_args(field), "--seed", str(seed), "--out", str(out)),
                          out, lambda r, g=graph: checks.check_dim(r, g)))
    return Workload("dim-loop2x5-fp", ops)


def _dense_items(rng: random.Random, shape) -> dict:
    return {idx: rng.randint(-ENTRY_BOUND, ENTRY_BOUND) for idx in itertools.product(*map(range, shape))}


def _loop_instance(rng: random.Random, edge_dims):
    """Critical loop instance with dense random vertex tensors of shape (v, in, out)."""
    graph = checks.loop_graph(edge_dims)
    tensors, raw = {}, []
    for j in range(len(edge_dims)):
        shape = (edge_dims[j - 1] * edge_dims[j], edge_dims[j - 1], edge_dims[j])
        items = _dense_items(rng, shape)
        tensors[str(j + 1)] = checks.tensor_obj(shape, items)
        raw.append(items)
    return dict(graph, tensors=tensors), raw, [v["dim"] for v in graph["vertices"]]


def _random_tree(rng: random.Random, n: int) -> dict:
    """Random tree on n vertices with random edge orientations and small dims,
    so that some leaves fold and some do not."""
    vertices = [{"id": 1, "dim": rng.randint(1, 4)}]
    edges = []
    for vid in range(2, n + 1):
        parent = rng.randint(1, vid - 1)
        vertices.append({"id": vid, "dim": rng.randint(1, 4)})
        tail, head = (parent, vid) if rng.random() < 0.5 else (vid, parent)
        edges.append({"id": vid - 1, "tail": tail, "head": head, "dim": rng.randint(1, 4)})
    return {"vertices": vertices, "edges": edges}


def files_workload(seed: int, work: Path) -> Workload:
    """The file-driven subcommands on JSON inputs written from the seed."""
    rng = random.Random(seed)
    ops = []

    for kind, shape, field in (("dense", (4, 4, 4), "rational"), ("fixed", (7, 7, 7), "rational"),
                               ("dense", (6, 6, 6), "rational"), ("dense", (5, 5, 5), "fp"),
                               ("dense", (6, 6, 6), "fp")):
        tag = "x".join(map(str, shape))
        # The frontier tensor is the same for every seed, since eliminating a dense system
        # over Q takes up to twice as long on one draw of entries as on another of the same
        # size; the seeded tensors over Q keep that dependence on the entries measured.
        source = random.Random(FRONTIER_DRAW) if kind == "fixed" else rng
        path = _write(work / f"{kind}{tag}-{field}.tensor.json", checks.tensor_obj(shape, _dense_items(source, shape)))
        name = f"stabilizer-{kind}{tag}-{field}"
        out = work / f"{name}.json"
        ops.append(Op(name, ("stabilizer", path, "--field", field, "--out", str(out)), out,
                      lambda r, s=shape: checks.check_stabilizer(r, s, len(s) - 1)))

    for tag, edge_dims, field in (("2x5", [2] * 5, "fp"), ("2323", [2, 3, 2, 3], "rational"),
                                  ("2x7", [2] * 7, "rational")):
        inst, raw, vdims = _loop_instance(rng, edge_dims)
        path = _write(work / f"loop{tag}-{field}.instance.json", inst)
        positions = [[rng.randrange(v) for v in vdims] for _ in range(64)]
        prime = DEFAULT_PRIME if field == "fp" else None
        name = f"contract-loop{tag}-{field}"
        out = work / f"{name}.json"
        ops.append(Op(name, ("contract", path, "--field", field, "--out", str(out)), out,
                      lambda r, raw=raw, v=vdims, e=edge_dims, p=positions, q=prime:
                          checks.check_contract(r, raw, v, e, p, q)))

    chain = checks.chain_graph([rng.randint(1, 3), 6, 4, 6, rng.randint(1, 3)],
                               [3, rng.randint(2, 3), rng.randint(2, 3), 3])
    for gname, graph in (("chain5", chain), ("tree12", _random_tree(rng, 12))):
        path = _write(work / f"{gname}.graph.json", graph)
        name = f"reduce-{gname}"
        out = work / f"{name}.json"
        ops.append(Op(name, ("reduce", path, "--out", str(out)), out,
                      lambda r, g=graph: checks.check_reduce(r, g)))

    # limit writes its leading term; the benchmark hands it to stabilizer
    term_path = work / "limit-e4-term.tensor.json"
    out = work / "limit-e4.json"
    ops.append(Op("limit-e4", ("limit", "--e", "4", "--out", str(out)), out,
                  lambda r: checks.check_limit(r, 4, checks.diagonal_splitting_cells(4)),
                  after=lambda r: _write(term_path, r["leading_term"])))
    out = work / "stabilizer-limit-e4.json"
    ops.append(Op("stabilizer-limit-e4", ("stabilizer", str(term_path), "--out", str(out)), out,
                  lambda r: checks.check_stabilizer(r, (16, 16, 16),
                                                    checks.limit_stabilizer_dim(4, checks.diagonal_splitting_cells(4)))))

    parts = tuple(x for _ in range(3) for x in rng.choice(((1, 2), (2, 1))))
    kept = checks.block_splitting_cells(parts)
    split = {key: checks.projector_obj(9, cells) for key, cells in zip(("X0", "Y0", "Z0"), kept)}
    path = _write(work / "block-splitting-e3.json", split)
    out = work / "certify-e3-block.json"
    ops.append(Op("certify-e3-block", ("certify", "--e", "3", "--splitting", path, "--out", str(out)), out,
                  lambda r: checks.check_certify(r, 3, kept)))
    return Workload("stabilizer-fixed7x7x7-rational", ops)


WORKLOADS = {"certify": certify_workload, "dim": dim_workload, "files": files_workload}
