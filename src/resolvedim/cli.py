"""Command-line front end: solve, enumerate, query the catalog,
generate families, and run the verification suites.

Exit codes: 0 success, 2 usage error (bad flags, unknown family or
suite), 3 input error (unreadable or malformed graph, a graph of order
above `graphio.MAX_ORDER` = 2000, bad parameter values, a verify
`--max-order` outside 1..6 or a negative `--samples`), 4 verification
failure (a suite or a witness check failed).
"""

from __future__ import annotations

import argparse
import functools
import json
import sys
import time
from dataclasses import asdict, dataclass, field
from typing import Optional

from . import __version__, families, formulas, graphio
from .graphs import Graph, all_pairs_distances
from .solvers import (
    enumerate_min_broadcasts,
    revalidate,
    solve_adim,
    solve_bdim,
    solve_dim,
    solve_dim_k,
)
from .verify import SUITES, VerifyContext, run_suites

SCHEMA = "resolvedim.report/1"


@dataclass
class Report:
    """JSON-serializable record of one solve; round-trips losslessly."""

    input: str
    parameter: str
    value: int
    witness: list
    stats: dict = field(default_factory=dict)
    bounds: list = field(default_factory=list)
    timing_ms: int = 0
    schema: str = SCHEMA
    tool_version: str = __version__

    def to_json(self) -> str:
        return json.dumps(asdict(self), sort_keys=True, indent=2)

    @classmethod
    def from_json(cls, text: str) -> "Report":
        return cls(**json.loads(text))


def _read_graph(path: str) -> Graph:
    if path == "-":
        return graphio.parse_graph(sys.stdin.read())
    with open(path) as fh:
        return graphio.parse_graph(fh.read())


def _emit(text: str, out: Optional[str]) -> None:
    if out:
        with open(out, "w") as fh:
            fh.write(text if text.endswith("\n") else text + "\n")
    else:
        print(text)


def _parse_params(text: Optional[str]) -> dict:
    """Parse k=v pairs; bare values extend the previous key into a tuple,
    so parts=1,2,2 becomes parts=(1, 2, 2)."""
    params: dict = {}
    if not text:
        return params
    last = None
    for token in text.split(","):
        token = token.strip()
        if not token:
            continue
        if "=" in token:
            key, raw = token.split("=", 1)
            last = key.strip()
            if last in params:
                raise ValueError(f"parameter {last!r} is given twice")
            params[last] = _coerce(raw.strip())
        elif last is None:
            raise ValueError(f"parameter value {token!r} has no key")
        else:
            prev = params[last]
            if not isinstance(prev, tuple):
                prev = (prev,)
            params[last] = prev + (_coerce(token),)
    return params


def _coerce(raw: str):
    try:
        return int(raw)
    except ValueError:
        pass
    try:
        return float(raw)
    except ValueError:
        raise ValueError(f"parameter value {raw!r} is not a number") from None


def _bounds_payload(g: Graph, parameter: str, value: int, d) -> list:
    kwargs = {parameter: value} if parameter in formulas.KINDS else {}
    records = formulas.bound_report(g, d=d, **kwargs)
    return [
        {
            "id": r.id,
            "applicable": r.applicable,
            "lhs": r.lhs,
            "rhs": r.rhs,
            "holds": r.holds if r.applicable else None,
            "note": r.note,
        }
        for r in records
    ]


def _solve_command(args: argparse.Namespace) -> int:
    g = _read_graph(args.graph)
    d = all_pairs_distances(g)
    started = time.perf_counter()
    if args.command == "dim":
        res = solve_dim(g, d)
    elif args.command == "adim":
        res = solve_adim(g, d)
    elif args.command == "dimk":
        res = solve_dim_k(g, args.k, d)
    else:
        res = solve_bdim(g, d)
    elapsed = int((time.perf_counter() - started) * 1000)
    if not revalidate(g, res, k=args.k if args.command == "dimk" else None, d=d):
        print("error: solver witness failed re-validation", file=sys.stderr)
        return 4
    witness = list(res.witness.values) if args.command == "bdim" else list(res.witness)
    stats = {
        "candidates_examined": res.candidates_examined,
        "candidates_checked": res.candidates_checked,
        "lower_bound_used": res.lower_bound_used,
        "order": g.n,
        "size": g.m,
    }
    if args.command == "dimk":
        stats["k"] = args.k
    report = Report(
        input=f"{args.graph} n={g.n} m={g.m}",
        parameter=res.kind,
        value=res.value,
        witness=witness,
        stats=stats,
        bounds=_bounds_payload(g, args.command, res.value, d),
        timing_ms=elapsed,
    )
    if args.format == "json":
        _emit(report.to_json(), args.output)
    else:
        lines = [
            f"graph: {report.input}",
            f"{res.kind} = {res.value}",
            f"witness: {witness}",
            f"examined {res.candidates_examined} candidates, checked {res.candidates_checked}"
            f" (lower bound {res.lower_bound_used})",
            f"time: {elapsed} ms",
        ]
        _emit("\n".join(lines), args.output)
    return 0


def _enum_command(args: argparse.Namespace) -> int:
    g = _read_graph(args.graph)
    d = all_pairs_distances(g)
    started = time.perf_counter()
    res = enumerate_min_broadcasts(g, d)
    elapsed = int((time.perf_counter() - started) * 1000)
    payload = {
        "schema": "resolvedim.enumeration/1",
        "tool_version": __version__,
        "input": f"{args.graph} n={g.n} m={g.m}",
        "optimal_cost": res.optimal_cost,
        "count": len(res.broadcasts),
        "broadcasts": [list(b) for b in res.broadcasts],
        "timing_ms": elapsed,
    }
    if args.format == "json":
        _emit(json.dumps(payload, sort_keys=True, indent=2), args.output)
    else:
        lines = [
            f"graph: {payload['input']}",
            f"optimal cost = {res.optimal_cost} ({len(res.broadcasts)} minimum broadcasts)",
        ]
        lines += [f"  {list(b)}" for b in res.broadcasts]
        lines.append(f"time: {elapsed} ms")
        _emit("\n".join(lines), args.output)
    return 0


def _formula_command(args: argparse.Namespace) -> int:
    if args.family not in formulas.catalog_families():
        raise KeyError(args.family)
    query = formulas.FormulaQuery(args.param, args.family, _parse_params(args.params))
    res = formulas.closed_form(query)
    payload = {
        "schema": "resolvedim.formula/1",
        "tool_version": __version__,
        "family": args.family,
        "parameter": args.param,
        "params": {k: list(v) if isinstance(v, tuple) else v for k, v in query.params.items()},
        "applicable": res.applicable,
        "value": res.value,
        "detail": res.detail,
    }
    if args.format == "json":
        _emit(json.dumps(payload, sort_keys=True, indent=2), args.output)
    elif res.applicable:
        _emit(f"{args.param}({args.family} {query.params}) = {res.value}", args.output)
    else:
        _emit(f"not applicable: {res.detail}", args.output)
    return 0


def _gen_command(args: argparse.Namespace) -> int:
    spec = families.FamilySpec(args.family, _parse_params(args.params))
    # The solvers would refuse the graph as input, so it is not built.
    graphio.check_order(families.order(spec))
    g = families.generate(spec)
    if args.format == "json":
        _emit(graphio.graph_to_json(g), args.output)
    else:
        _emit(graphio.graph_to_edge_list(g), args.output)
    return 0


def _verify_command(args: argparse.Namespace) -> int:
    suite_ids = args.suite.split(",") if args.suite else None
    ctx = VerifyContext(max_order=args.max_order, samples=args.samples, seed=args.seed)
    results = run_suites(suite_ids, ctx)
    failed = [r for r in results if not r.ok]
    if args.format == "json":
        payload = {
            "schema": "resolvedim.verify/1",
            "tool_version": __version__,
            "max_order": args.max_order,
            "samples": args.samples,
            "seed": args.seed,
            "ok": not failed,
            "suites": [
                {
                    "suite": r.suite,
                    "description": r.description,
                    "checked": r.checked,
                    "failures": [
                        {"instance": c.instance, "detail": c.detail} for c in r.failures
                    ],
                }
                for r in results
            ],
        }
        _emit(json.dumps(payload, sort_keys=True, indent=2), args.output)
    else:
        lines = []
        for r in results:
            status = "ok  " if r.ok else "FAIL"
            lines.append(f"{status} {r.suite:<20} {r.checked:>6} checks")
            for c in r.failures[:5]:
                lines.append(f"       {c.instance}: {c.detail}")
            if len(r.failures) > 5:
                lines.append(f"       ... {len(r.failures) - 5} more failures")
        lines.append(
            f"{len(results) - len(failed)}/{len(results)} suites passed"
            f" (max order {args.max_order}, {args.samples} samples, seed {args.seed})"
        )
        _emit("\n".join(lines), args.output)
    return 4 if failed else 0


def _add_common(sub: argparse.ArgumentParser, formats=("text", "json")) -> None:
    sub.add_argument("--format", choices=formats, default=formats[0])
    sub.add_argument("-o", "--output", default=None, help="write to a file instead of stdout")


@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="resolvedim",
        description="exact metric, adjacency, distance-k, and broadcast dimension",
    )
    parser.add_argument("--version", action="version", version=f"resolvedim {__version__}")
    commands = parser.add_subparsers(dest="command", required=True)

    for name, helptext in (
        ("dim", "metric dimension"),
        ("adim", "adjacency dimension"),
        ("dimk", "distance-k dimension"),
        ("bdim", "broadcast dimension"),
    ):
        sub = commands.add_parser(name, help=f"exact {helptext} with a lex-least witness")
        sub.add_argument("graph", help="edge-list or JSON graph file, or - for stdin")
        if name == "dimk":
            sub.add_argument("-k", type=int, required=True, help="distance cutoff, k >= 1")
        _add_common(sub)
        sub.set_defaults(handler=_solve_command)

    sub = commands.add_parser("enum-min", help="all minimum resolving broadcasts")
    sub.add_argument("graph", help="edge-list or JSON graph file, or - for stdin")
    _add_common(sub)
    sub.set_defaults(handler=_enum_command)

    sub = commands.add_parser("formula", help="closed-form catalog lookup")
    sub.add_argument("--param", required=True, choices=sorted(formulas.KINDS))
    sub.add_argument("--family", required=True)
    sub.add_argument("--params", default=None, help="k=v pairs, e.g. n=7 or parts=1,2,2")
    _add_common(sub)
    sub.set_defaults(handler=_formula_command)

    sub = commands.add_parser("gen", help="generate a named family instance")
    sub.add_argument("--family", required=True)
    sub.add_argument("--params", default=None, help="k=v pairs, e.g. x=4,s=2")
    _add_common(sub, formats=("edgelist", "json"))
    sub.set_defaults(handler=_gen_command)

    sub = commands.add_parser("verify", help="run verification suites")
    sub.add_argument("--suite", default=None, help="comma-separated suite ids (default: all)")
    sub.add_argument("--max-order", type=int, default=4, dest="max_order")
    sub.add_argument("--samples", type=int, default=15)
    sub.add_argument("--seed", type=int, default=0)
    sub.add_argument("--list", action="store_true", help="list suite ids and exit")
    _add_common(sub)
    sub.set_defaults(handler=_verify_command)

    return parser


def main(argv: Optional[list[str]] = None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return 0 if exc.code in (0, None) else 2
    if getattr(args, "list", False) and args.command == "verify":
        for sid in SUITES:
            print(f"{sid:<20} {SUITES[sid][1]}")
        return 0
    try:
        return args.handler(args)
    except KeyError as exc:
        reason = exc.args[0] if exc.args else exc
        print(f"error: {reason}" if "unknown" in str(reason) else f"error: unknown name {reason!r}", file=sys.stderr)
        return 2
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
