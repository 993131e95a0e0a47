"""Layer spans for the traced run, recorded from outside the program.

Run as a script, this file stands in for `python -m tngeom`:

    python3 tnbench/tracing.py SPANS.json <tngeom arguments...>

It imports `tngeom.cli`, wraps the public functions each module calls in
another module at the names the caller looks them up (for example
`tngeom.varieties.stabilizer_dim` calls `tngeom.stabilizer.build_system`,
so the wrapper is installed as `tngeom.stabilizer.build_system`), runs
the CLI, and writes the spans it kept in memory to SPANS.json when the
command ends.  The exit code is the CLI's.

Imported as a module, it turns a spans file into per-layer metrics: the
self time of each layer (span time minus the time its child spans cover)
and the counters recorded at the same boundaries.

`tngeom.fields` is not wrapped: its calls are per scalar, so timing them
from outside would distort the run.  Their cost shows in the self time of
the layers that call them, chiefly `linalg.matrix_init`.
"""

from __future__ import annotations

import json
import sys
import time
from math import prod

TIMED = (
    "cli.import",
    "jsonio.load",
    "jsonio.dump",
    "zoo.build",
    "curves.act_curve",
    "stabilizer.build_system",
    "linalg.matrix_init",
    "linalg.rank",
    "tensors.outer",
    "tensors.contract_pair",
    "tensors.mlrank",
    "networks.contract",
    "varieties.jacobian",
    "varieties.tns_dim",
)
COUNTERS = (
    "jsonio.bytes_written",
    "stabilizer.system_cells",
    "stabilizer.system_nnz",
    "linalg.matrix_entries",
    "linalg.rank_calls",
    "linalg.rank_nnz",
    "tensors.max_intermediate_entries",
    "networks.contract_calls",
    "varieties.jacobian_cells",
    "varieties.jacobian_samples",
)
MAX_COUNTERS = {"tensors.max_intermediate_entries"}  # the largest, not the sum
METRICS = tuple(f"{name}_s" for name in TIMED) + COUNTERS


def _cells(m) -> int:
    return m.rows * m.cols


def _nnz(m) -> int:
    """Nonzero entries of a matrix.  `tuple.count` compares by identity
    first, so the zero object shared by a freshly built system is counted
    at C speed; other zeros still compare equal to it."""
    zero = next((v for v in m.entries if not v), None)
    return _cells(m) if zero is None else _cells(m) - m.entries.count(zero)


class Tracer:
    """In-memory spans: [name, start, end, parent index, counters or None]."""

    def __init__(self):
        self.spans: list[list] = []
        self._stack: list[int] = []

    @staticmethod
    def _wrap_points():
        """(module, attribute, span name, counters from (args, result)) for each wrapped call."""
        return [
            ("cli", "load_path", "jsonio.load", None),
            ("cli", "graph_from_obj", "jsonio.load", None),
            ("cli", "instance_from_obj", "jsonio.load", None),
            ("cli", "splitting_from_obj", "jsonio.load", None),
            ("cli", "tensor_from_obj", "jsonio.load", None),
            ("cli", "dumps", "jsonio.dump", lambda a, r: {"jsonio.bytes_written": len(r.encode())}),
            ("cli", "tensor_to_obj", "jsonio.dump", None),
            ("cli", "graph_to_obj", "jsonio.dump", None),
            ("cli", "certificate_to_obj", "jsonio.dump", None),
            ("cli", "field_label", "jsonio.dump", None),
            ("cli", "diagonal_splitting", "zoo.build", None),
            ("cli", "mmult", "zoo.build", None),
            ("varieties", "mmult", "zoo.build", None),
            ("varieties", "m_tilde_formula", "zoo.build", None),
            ("cli", "act_curve", "curves.act_curve", None),
            ("varieties", "act_curve", "curves.act_curve", None),
            *[(mod, "build_system", "stabilizer.build_system",
               lambda a, r: {"stabilizer.system_cells": _cells(r.matrix), "stabilizer.system_nnz": _nnz(r.matrix)})
              for mod in ("cli", "stabilizer")],
            *[(mod, "rank", "linalg.rank", lambda a, r: {"linalg.rank_calls": 1, "linalg.rank_nnz": _nnz(a[0])})
              for mod in ("cli", "linalg", "stabilizer", "tensors", "varieties")],
            *[("networks", fn, f"tensors.{fn}",
               lambda a, r: {"tensors.max_intermediate_entries": prod(r.shape)})
              for fn in ("outer", "contract_pair")],
            ("varieties", "mlrank", "tensors.mlrank", None),
            *[(mod, "contract_network", "networks.contract", lambda a, r: {"networks.contract_calls": 1})
              for mod in ("cli", "varieties")],
            ("varieties", "contraction_jacobian", "varieties.jacobian",
             lambda a, r: {"varieties.jacobian_cells": _cells(r), "varieties.jacobian_samples": 1}),
            ("cli", "tns_dim", "varieties.tns_dim", None),
        ]

    def record(self, name: str, start: float, end: float) -> None:
        self.spans.append([name, start, end, self._stack[-1] if self._stack else -1, None])

    def wrap(self, name: str, fn, count=None):
        def traced(*args, **kwargs):
            span = [name, 0.0, 0.0, self._stack[-1] if self._stack else -1, None]
            self._stack.append(len(self.spans))
            self.spans.append(span)
            span[1] = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = time.perf_counter()
                self._stack.pop()
            if count is not None:
                span[4] = count(args, result)
            return result

        traced.__wrapped__ = fn
        return traced

    def install(self) -> None:
        import tngeom

        for mod, attr, name, count in self._wrap_points():
            module = getattr(tngeom, mod)
            setattr(module, attr, self.wrap(name, getattr(module, attr), count))
        matrix = tngeom.linalg.Matrix
        matrix.__init__ = self.wrap("linalg.matrix_init", matrix.__init__,
                                    lambda a, r: {"linalg.matrix_entries": _cells(a[0])})


def layer_metrics(spans) -> dict:
    """Self time per layer and summed counters of one operation's spans."""
    out = dict.fromkeys(METRICS, 0)
    child_time = [0.0] * len(spans)
    for name, start, end, parent, _ in spans:
        if parent >= 0:
            child_time[parent] += end - start
    for k, (name, start, end, _, counts) in enumerate(spans):
        out[f"{name}_s"] += end - start - child_time[k]
        for key, v in (counts or {}).items():
            out[key] = max(out[key], v) if key in MAX_COUNTERS else out[key] + v
    return out


def main(argv) -> int:
    spans_path, args = argv[0], argv[1:]
    tracer = Tracer()
    start = time.perf_counter()
    import tngeom.cli

    tracer.record("cli.import", start, time.perf_counter())
    tracer.install()
    try:
        return tngeom.cli.main(args)
    finally:
        with open(spans_path, "w", encoding="utf-8") as fh:
            json.dump(tracer.spans, fh)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
