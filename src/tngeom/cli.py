"""Command-line front end.

Each subcommand reads JSON, runs one pipeline, and writes a JSON report
to --out or stdout.  Reports are byte-stable given the same inputs and
flags.  Exit codes: 0 success or certified, 1 inconclusive, 2 parse or
usage error, 3 semantic error (bad shapes, invalid objects), 141 (128 +
SIGPIPE) when the reader of stdout closed it before the report was
written, as in `tngeom certify --e 4 | head -5`.

A process imports only what its subcommand runs.  This module imports
errors and fields; each command fetches the names it calls (``_LAZY``)
when it starts.  So `tngeom --help` loads no pipeline module,
`tngeom stabilizer` no network, curve or variety code, and `tngeom dim`
no curve, named-tensor, stabilizer, certificate or whole-network
contraction code.
"""

from __future__ import annotations

import argparse
import importlib
import os
import sys

from .errors import FormatError, SemanticError, check_peak
from .fields import DEFAULT_PRIME, QQ, Field, PrimeField

# The names the commands call, and the module that defines each.  A module
# is imported when a command first needs one of its names, so `--help`
# loads only this module, errors and fields, `stabilizer` never loads
# networks or varieties, and `dim` never loads stabilizer, varieties or
# contraction.
# Each name is still an attribute of this module (module __getattr__), so
# code that wraps or replaces one here, such as a tracer or a test, is the
# code the commands call: `_fetch` binds a name only when nothing is bound
# to it yet.  rank, build_system, dumps and tensor_to_obj are not called by
# any command; they stay for code that wraps them here.
_LAZY = {name: module for module, names in (
    ("curves", "act_curve curve_from_splitting leading_term"),
    ("jsonio", "certificate_to_obj dump dumps field_label graph_from_obj graph_to_obj instance_from_obj "
               "load_path splitting_from_obj tensor_from_obj tensor_to_obj"),
    ("jacobian", "tns_dim"),
    ("linalg", "rank"),
    ("contraction", "contract_network"),
    ("networks", "expected_dim reduce_valence_one"),
    ("stabilizer", "build_system stabilizer_dim system_bytes"),
    ("varieties", "certify_not_closed"),
    ("zoo", "diagonal_splitting mmult"),
) for name in names.split()}


def __getattr__(name: str):
    if name not in _LAZY:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f".{_LAZY[name]}", __package__), name)
    globals()[name] = value
    return value


def _fetch(*names: str) -> None:
    """Bind each name in this module's globals, unless something is bound to it already."""
    bound = globals()
    for name in names:
        if name not in bound:
            __getattr__(name)


def _add_common(sp: argparse.ArgumentParser):
    sp.add_argument("--field", choices=("rational", "fp"), default="rational",
                    help="scalar backend: exact rationals, or residues mod --prime (default: rational)")
    sp.add_argument("--prime", type=int, default=DEFAULT_PRIME,
                    help="modulus for --field fp; must be a prime with 2**30 < p < 2**64")
    sp.add_argument("--seed", type=int, default=0, help="seed for randomized pipelines")
    sp.add_argument("--out", default=None, help="output path (default: stdout)")


def _resolve_field(args) -> Field:
    if args.field == "rational":
        return QQ
    try:
        return PrimeField(args.prime)
    except SemanticError as exc:
        # bad modulus is a configuration problem, not a data problem
        raise FormatError(str(exc)) from exc


def cmd_contract(args) -> int:
    _fetch("load_path", "instance_from_obj", "contract_network", "dump")
    field = _resolve_field(args)
    inst = instance_from_obj(load_path(args.instance), field)
    dump(contract_network(inst), args.out)
    return 0


def cmd_stabilizer(args) -> int:
    _fetch("load_path", "tensor_from_obj", "stabilizer_dim", "field_label", "dump")
    t = tensor_from_obj(load_path(args.tensor), _resolve_field(args))
    stab = stabilizer_dim(t)
    report = {"stab_dim": stab, "orbit_dim": sum(s * s for s in t.shape) - stab}
    report.update(field_label(t.field))
    dump(report, args.out)
    return 0


def _splitting(args) -> Splitting:
    """The --splitting file, or the diagonal splitting, over the --field."""
    _fetch("load_path", "splitting_from_obj", "diagonal_splitting")
    field = _resolve_field(args)
    if args.splitting:
        return splitting_from_obj(load_path(args.splitting), field)
    return diagonal_splitting(args.e, field)


def cmd_certify(args) -> int:
    _fetch("system_bytes", "certify_not_closed", "certificate_to_obj", "field_label", "dump")
    # the stabilizer system of mmult(e, e, e) before anything is built; its components are checked when found
    check_peak(system_bytes(args.e**3, (args.e**2,) * 3), "ranking the trace tensor's stabilizer system")
    s = _splitting(args)
    cert = certify_not_closed(s, args.e)
    report = certificate_to_obj(cert)
    report.update(field_label(s.field))
    dump(report, args.out)
    return 0 if cert.certified else 1


def cmd_dim(args) -> int:
    _fetch("load_path", "graph_from_obj", "tns_dim", "expected_dim", "field_label", "dump")
    g = graph_from_obj(load_path(args.graph))
    field = _resolve_field(args)
    jac, upper = tns_dim(g, seed=args.seed, field=field)
    formula = expected_dim(g)
    report = {
        "jacobian_dim": jac,
        "formula_dim": formula if formula is not None else "unknown",
        "agree": (jac == formula) if formula is not None else None,
    }
    report.update(field_label(field))
    report["seed"] = args.seed
    report["jacobian_dim_bound"] = "exact" if jac == upper else "lower"
    report["jacobian_dim_upper"] = upper
    dump(report, args.out)
    return 0


def cmd_reduce(args) -> int:
    _fetch("load_path", "graph_from_obj", "reduce_valence_one", "graph_to_obj", "dump")
    g = graph_from_obj(load_path(args.graph))
    reduced, log = reduce_valence_one(g)
    report = {
        "graph": graph_to_obj(reduced),
        "merges": [
            {"removed": m.removed, "edge": m.edge, "target": m.target, "new_dim": m.new_dim}
            for m in log
        ],
    }
    dump(report, args.out)
    return 0


def cmd_limit(args) -> int:
    # before anything is built: the e^3 nonzeros of the trace tensor and the terms of their expansion.  Peak
    # RSS past `import tngeom.cli` grew by 0.48 to 0.55 KB per e^3 at e = 20 to 80 (2-core host, Python 3.11)
    check_peak(700 * args.e**3, "expanding the trace tensor's curve")
    _fetch("mmult", "act_curve", "curve_from_splitting", "leading_term", "dump")
    s = _splitting(args)
    m = mmult(args.e, args.e, args.e, s.field)
    expansion = act_curve(m, curve_from_splitting(s))
    # never zero: at t = 1 every curve P0 + t (I - P0) is I, so the coefficients sum to m
    power, lead = leading_term(expansion)
    report = {
        "e": args.e,
        "leading_power": power,
        "leading_term": lead,
        "terms": [{"power": p, "tensor": t} for p, t in expansion.terms],
    }
    dump(report, args.out)
    return 0


def make_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="tngeom",
        description="Exact contraction, symmetry and limit pipelines for tensor networks.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    sp = sub.add_parser("contract", help="contract an instance file to a tensor")
    sp.add_argument("instance", help="instance JSON path")
    _add_common(sp)
    sp.set_defaults(func=cmd_contract)

    sp = sub.add_parser("stabilizer", help="symmetry algebra dimensions of a tensor")
    sp.add_argument("tensor", help="tensor JSON path")
    _add_common(sp)
    sp.set_defaults(func=cmd_stabilizer)

    sp = sub.add_parser("certify", help="non-closedness certificate for the square trace tensor")
    sp.add_argument("--e", type=int, required=True, help="matrix size (edge dimension), at least 2")
    sp.add_argument("--splitting", default=None, help="splitting JSON path (default: diagonal)")
    _add_common(sp)
    sp.set_defaults(func=cmd_certify)

    sp = sub.add_parser("dim", help="Jacobian dimension of a graph's contraction family")
    sp.add_argument("graph", help="graph JSON path")
    _add_common(sp)
    sp.set_defaults(func=cmd_dim)

    sp = sub.add_parser("reduce", help="fold valence-one vertices and log the merges")
    sp.add_argument("graph", help="graph JSON path")
    _add_common(sp)
    sp.set_defaults(func=cmd_reduce)

    sp = sub.add_parser("limit", help="curve expansion and leading term for a splitting")
    sp.add_argument("--e", type=int, required=True, help="matrix size (edge dimension), at least 2")
    sp.add_argument("--splitting", default=None, help="splitting JSON path (default: diagonal)")
    _add_common(sp)
    sp.set_defaults(func=cmd_limit)

    return parser


def main(argv=None) -> int:
    args = make_parser().parse_args(argv)
    try:
        return args.func(args)
    except FormatError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except SemanticError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3


def entry():
    try:
        code = main()
        sys.stdout.flush()
    except BrokenPipeError:
        # stdout now points at devnull, so the flush at exit is quiet too
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        code = 141
    sys.exit(code)
