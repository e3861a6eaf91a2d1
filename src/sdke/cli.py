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
from json.encoder import encode_basestring_ascii
from pathlib import Path
from typing import Any

from . import __version__
from .alternating import AlternatingWalk
from .decomposition import SdKePartition, sd_ke_partition
from .errors import SdkeError
from .graph import Graph, export_dot, graph_hash, parse_edge_list, serialize_edge_list
from .matching import (
    Matching,
    iter_maximum_matchings,
    iter_perfect_matchings,
    maximum_matching,
    parse_matching,
)

# determinantal and verification are imported by the commands that run
# them, so decompose, matchings and export-dot start without either.


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


def _json_text(x: Any, indent: str = "\n") -> str:
    """The text of ``json.dumps(x, indent=2)``, in about 60 % of its time.

    json has a C encoder only for indent=None.  Here strings go through
    json's C escaper, ints through ``int.__repr__`` as json writes them,
    each container is one join, and any other value through json.dumps.
    Dict keys must be str, as in every report; another key is a TypeError.
    On a 146 KB decompose report, 3.2 ms against json's 5.4 ms (2-core VM,
    Python 3.11).
    """
    if isinstance(x, str):
        return encode_basestring_ascii(x)
    if x is None or x is True or x is False:
        return "null" if x is None else "true" if x else "false"
    if isinstance(x, int):
        return int.__repr__(x)
    inner = indent + "  "
    if isinstance(x, dict):
        if not x:
            return "{}"
        items = [encode_basestring_ascii(k) + ": " + _json_text(v, inner) for k, v in x.items()]
        return "{" + inner + ("," + inner).join(items) + indent + "}"
    if isinstance(x, (list, tuple)):
        if not x:
            return "[]"
        # An int item, the common case, is written without a call.
        items = [int.__repr__(v) if type(v) is int else _json_text(v, inner) for v in x]
        return "[" + inner + ("," + inner).join(items) + indent + "]"
    return json.dumps(x)


def _emit(payload: dict[str, Any]) -> None:
    print(_json_text(payload))


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
    # det and perm: the direct route (elimination, ryser) or the Sachs census.
    from .determinantal import det_adjacency, perm_adjacency, sachs_census

    graph = _load_graph(args.input)
    if args.method == "sachs":
        value = sachs_census(graph)[1 if args.command == "det" else 2]
    elif args.command == "det":
        value = det_adjacency(graph)
    else:
        value = perm_adjacency(graph)
    payload = _base_report(args.command, graph)
    payload["method"] = args.method
    payload[args.command] = str(value)
    _emit(payload)
    return 0


def _cmd_verify(args) -> int:
    from .verification import DEFAULT_SUITE_ORDER, run_theorem_suite

    graph = _load_graph(args.input)
    max_order = DEFAULT_SUITE_ORDER if args.max_n is None else args.max_n
    suite = run_theorem_suite(graph, max_order=max_order)
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
    from .determinantal import enumerate_sachs

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
    from .verification import random_matchable_graph

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


def _decompose_args(p: _Parser) -> None:
    p.add_argument("input")
    p.add_argument("--matching", default="auto", help="'auto' or a matching file")
    fmt = p.add_mutually_exclusive_group()
    fmt.add_argument("--json", action="store_true", default=True)
    fmt.add_argument("--text", action="store_true")
    p.add_argument("--dot", metavar="OUT", help="also write a decorated DOT file")
    p.set_defaults(func=_cmd_decompose)


def _value_args(*methods: str):
    def add(p: _Parser) -> None:
        p.add_argument("input")
        p.add_argument("--method", choices=methods, default=methods[0])
        p.set_defaults(func=_cmd_value)

    return add


def _verify_args(p: _Parser) -> None:
    p.add_argument("input")
    # None stands for verification.DEFAULT_SUITE_ORDER, read when verify runs.
    p.add_argument("--max-n", type=int, default=None)
    p.set_defaults(func=_cmd_verify)


def _sachs_args(p: _Parser) -> None:
    p.add_argument("input")
    group = p.add_mutually_exclusive_group()
    group.add_argument("--list", action="store_true")
    group.add_argument("--count", action="store_true")
    p.set_defaults(func=_cmd_sachs)


def _matchings_args(p: _Parser) -> None:
    p.add_argument("input")
    group = p.add_mutually_exclusive_group()
    group.add_argument("--perfect", action="store_true")
    group.add_argument("--maximum", action="store_true")
    p.add_argument("--limit", type=_non_negative_int, default=None)
    p.set_defaults(func=_cmd_matchings)


def _gen_args(p: _Parser) -> None:
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--p", type=float, required=True)
    p.add_argument("--seed", type=int, required=True)
    p.set_defaults(func=_cmd_gen)


def _export_dot_args(p: _Parser) -> None:
    p.add_argument("input")
    p.add_argument("--decorate", action="store_true",
                   help="color the SD-KE separation and matching")
    p.set_defaults(func=_cmd_export_dot)


# Each command's help line and the function that adds its arguments.
_COMMANDS = {
    "decompose": ("SD-KE separation of a matchable graph", _decompose_args),
    "det": ("determinant of the adjacency matrix", _value_args("elimination", "sachs")),
    "perm": ("permanent of the adjacency matrix", _value_args("ryser", "sachs")),
    "verify": ("run the theorem suite", _verify_args),
    "sachs": ("enumerate Sachs subgraphs", _sachs_args),
    "matchings": ("enumerate perfect or maximum matchings", _matchings_args),
    "gen": ("generate a seeded random matchable graph", _gen_args),
    "export-dot": ("render the graph as DOT", _export_dot_args),
}


def _build_parser(command: str | None = None) -> _Parser:
    """The parser of every command, or of the named command alone.

    A subparser's prog and messages do not depend on its siblings, so a
    command line that starts with a command's name parses, fails and
    prints help the same under either.
    """
    parser = _Parser(prog="sdke", description=__doc__)
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (what, add_args) in _COMMANDS.items():
        if command in (None, name):
            add_args(sub.add_parser(name, help=what))
    return parser


def run_cli(argv: list[str] | None = None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    parser = _build_parser(argv[0] if argv and argv[0] in _COMMANDS else None)
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
