"""Command-line front end.

Commands read a graph from an edge-list file (or '-' for stdin) and emit
a JSON report, or plain text with --text where supported.  Exit codes:
0 success, 1 domain error (with a machine-readable error object on
stdout), 2 usage error.
"""

from __future__ import annotations

import argparse
import json
import sys
from itertools import islice
from pathlib import Path
from typing import Any

from . import __version__
from .alternating import AlternatingWalk
from .decomposition import SdKePartition, sd_ke_partition
from .determinantal import det_adjacency, enumerate_sachs, perm_adjacency, sachs_census
from .errors import SdkeError
from .graph import Graph, export_dot, graph_hash, parse_edge_list, serialize_edge_list
from .matching import (
    Matching,
    iter_maximum_matchings,
    iter_perfect_matchings,
    maximum_matching,
    parse_matching,
)
from .verification import DEFAULT_SUITE_ORDER, random_matchable_graph, run_theorem_suite


class _ParserExit(Exception):
    """(status, message) of a usage error, --help or --version."""


class _Parser(argparse.ArgumentParser):
    def exit(self, status=0, message=None):  # run_cli returns the status
        raise _ParserExit(status, message)

    def error(self, message):
        self.exit(2, f"usage error: {message}\n")


def _read_text(path: str) -> str:
    if path == "-":
        return sys.stdin.read()
    try:
        return Path(path).read_text()
    except OSError as exc:
        raise SdkeError(f"cannot read {path}: {exc}") from exc


def _load_graph(path: str) -> Graph:
    return parse_edge_list(_read_text(path))


def _graph_block(graph: Graph) -> dict[str, Any]:
    return {
        "n": graph.n,
        "edges": [list(e) for e in graph.edges],
        "labels": list(graph.labels),
        "hash": graph_hash(graph),
    }


def _base_report(command: str, graph: Graph) -> dict[str, Any]:
    return {
        "version": __version__,
        "command": command,
        "graph": _graph_block(graph),
    }


def _walk_json(graph: Graph, walk: AlternatingWalk) -> dict[str, Any]:
    return {"vertices": graph.labels_of(walk.vertices), "kind": walk.kind}


def _partition_json(graph: Graph, part: SdKePartition) -> dict[str, Any]:
    return {
        "sd": graph.labels_of(sorted(part.sd_vertices)),
        "ke": graph.labels_of(sorted(part.ke_vertices)),
        "cut": [graph.labels_of(e) for e in sorted(part.cut)],
        "witnesses": {
            str(graph.labels[v]): _walk_json(graph, w)
            for v, w in sorted(part.witnesses.items())
        },
    }


def _emit(payload: dict[str, Any]) -> None:
    print(json.dumps(payload, indent=2))


def _resolve_matching(graph: Graph, source: str) -> Matching:
    if source == "auto":
        return maximum_matching(graph)
    return parse_matching(_read_text(source), graph.n)


def _cmd_decompose(args) -> int:
    graph = _load_graph(args.input)
    matching = _resolve_matching(graph, args.matching)
    part = sd_ke_partition(graph, matching)
    if args.dot:
        try:
            Path(args.dot).write_text(export_dot(graph, partition=part, matching=matching))
        except OSError as exc:
            raise SdkeError(f"cannot write {args.dot}: {exc}") from exc
    if args.text:
        print("sd:", " ".join(map(str, graph.labels_of(sorted(part.sd_vertices)))))
        print("ke:", " ".join(map(str, graph.labels_of(sorted(part.ke_vertices)))))
        cut = " ".join(f"{a}-{b}" for a, b in (graph.labels_of(e) for e in sorted(part.cut)))
        print("cut:", cut)
    else:
        payload = _base_report("decompose", graph)
        payload["matching"] = [graph.labels_of(e) for e in matching.edge_pairs()]
        payload["partition"] = _partition_json(graph, part)
        _emit(payload)
    return 0


def _cmd_value(args) -> int:
    # det and perm: args.routes maps each --method to its function.
    graph = _load_graph(args.input)
    value = args.routes[args.method](graph)
    payload = _base_report(args.command, graph)
    payload["method"] = args.method
    payload[args.command] = str(value)
    _emit(payload)
    return 0


def _cmd_verify(args) -> int:
    graph = _load_graph(args.input)
    suite = run_theorem_suite(graph, max_order=args.max_n)
    payload = _base_report("verify", graph)
    checks = []
    for c in suite.checks:
        entry: dict[str, Any] = {"name": c.name, "pass": c.passed}
        if c.counterexample is not None:
            entry["counterexample"] = c.counterexample
        checks.append(entry)
    payload["checks"] = checks
    report = suite.factorization
    payload["determinants"] = {
        "det_g": str(report.det_g),
        "det_sd": str(report.det_sd),
        "det_ke": str(report.det_ke),
        "ok": report.det_product_ok,
    }
    payload["permanents"] = {
        "perm_g": str(report.perm_g),
        "perm_sd": str(report.perm_sd),
        "perm_ke": str(report.perm_ke),
        "ok": report.perm_product_ok,
    }
    _emit(payload)
    return 0 if suite.all_passed else 1


def _cmd_sachs(args) -> int:
    graph = _load_graph(args.input)
    payload = _base_report("sachs", graph)
    if args.list:
        subgraphs = [
            {
                "k2": [graph.labels_of(e) for e in s.k2_edges],
                "cycles": [graph.labels_of(c) for c in s.cycles],
            }
            for s in enumerate_sachs(graph)
        ]
        payload["count"] = len(subgraphs)
        payload["subgraphs"] = subgraphs
    else:
        payload["count"] = sum(1 for _ in enumerate_sachs(graph))
    _emit(payload)
    return 0


def _cmd_matchings(args) -> int:
    graph = _load_graph(args.input)
    if args.maximum:
        found = iter_maximum_matchings(graph)
        kind = "maximum"
    else:
        found = iter_perfect_matchings(graph)
        kind = "perfect"
    # Count by streaming; only the first --limit matchings are kept.
    shown = list(islice(found, args.limit))
    payload = _base_report("matchings", graph)
    payload["kind"] = kind
    payload["count"] = len(shown) + sum(1 for _ in found)
    payload["matchings"] = [
        [graph.labels_of(e) for e in m.edge_pairs()] for m in shown
    ]
    _emit(payload)
    return 0


def _cmd_gen(args) -> int:
    graph = random_matchable_graph(args.n, args.p, args.seed)
    sys.stdout.write(serialize_edge_list(graph))
    return 0


def _cmd_export_dot(args) -> int:
    graph = _load_graph(args.input)
    if args.decorate:
        matching = maximum_matching(graph)
        part = sd_ke_partition(graph, matching)
        sys.stdout.write(export_dot(graph, partition=part, matching=matching))
    else:
        sys.stdout.write(export_dot(graph))
    return 0


def _non_negative_int(text: str) -> int:
    try:
        value = int(text)
    except ValueError:
        value = -1
    if value < 0:
        raise argparse.ArgumentTypeError(f"expected a non-negative int, got {text!r}")
    return value


def _build_parser() -> _Parser:
    parser = _Parser(prog="sdke", description=__doc__)
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("decompose", help="SD-KE separation of a matchable graph")
    p.add_argument("input")
    p.add_argument("--matching", default="auto", help="'auto' or a matching file")
    fmt = p.add_mutually_exclusive_group()
    fmt.add_argument("--json", action="store_true", default=True)
    fmt.add_argument("--text", action="store_true")
    p.add_argument("--dot", metavar="OUT", help="also write a decorated DOT file")
    p.set_defaults(func=_cmd_decompose)

    for name, what, routes in (
        ("det", "determinant", {"elimination": det_adjacency,
                                "sachs": lambda g: sachs_census(g)[1]}),
        ("perm", "permanent", {"ryser": perm_adjacency,
                               "sachs": lambda g: sachs_census(g)[2]}),
    ):
        p = sub.add_parser(name, help=f"{what} of the adjacency matrix")
        p.add_argument("input")
        p.add_argument("--method", choices=tuple(routes), default=next(iter(routes)))
        p.set_defaults(func=_cmd_value, routes=routes)

    p = sub.add_parser("verify", help="run the theorem suite")
    p.add_argument("input")
    p.add_argument("--max-n", type=int, default=DEFAULT_SUITE_ORDER)
    p.set_defaults(func=_cmd_verify)

    p = sub.add_parser("sachs", help="enumerate Sachs subgraphs")
    p.add_argument("input")
    group = p.add_mutually_exclusive_group()
    group.add_argument("--list", action="store_true")
    group.add_argument("--count", action="store_true")
    p.set_defaults(func=_cmd_sachs)

    p = sub.add_parser("matchings", help="enumerate perfect or maximum matchings")
    p.add_argument("input")
    group = p.add_mutually_exclusive_group()
    group.add_argument("--perfect", action="store_true")
    group.add_argument("--maximum", action="store_true")
    p.add_argument("--limit", type=_non_negative_int, default=None)
    p.set_defaults(func=_cmd_matchings)

    p = sub.add_parser("gen", help="generate a seeded random matchable graph")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--p", type=float, required=True)
    p.add_argument("--seed", type=int, required=True)
    p.set_defaults(func=_cmd_gen)

    p = sub.add_parser("export-dot", help="render the graph as DOT")
    p.add_argument("input")
    p.add_argument("--decorate", action="store_true",
                   help="color the SD-KE separation and matching")
    p.set_defaults(func=_cmd_export_dot)
    return parser


def run_cli(argv: list[str] | None = None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except _ParserExit as exc:
        status, message = exc.args
        sys.stderr.write(message or "")
        return status
    try:
        return args.func(args)
    except SdkeError as exc:
        print(json.dumps({"error": {"type": type(exc).__name__, "message": str(exc)}}))
        return 1


def main() -> None:
    sys.exit(run_cli())
