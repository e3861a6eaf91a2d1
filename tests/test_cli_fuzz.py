"""A bounded fuzz pass over the command line.

Malformed and oversized edge-list text, matching files and arguments go
through ``run_cli`` in process.  Every run must end in exit 0, 1 or 2
without an exception escaping; exit 1 prints one JSON error object and
exit 2 a usage message.  A graph has at most 12 vertices and 14 edge
lines, or a huge header over those lines, so the enumerating commands
stay small.
"""

import io
import json
import os
import tempfile
from contextlib import redirect_stderr, redirect_stdout
from unittest import mock

from hypothesis import event, given, settings, strategies as st

from sdke.cli import run_cli

_IDS = st.integers(-2, 13)
_JUNK_LINES = ("", "   ", "# comment", "1", "0 1 2", "a b", "1.5 2", "0x1 2", "1_0 2", "-0 +1")
# Headers the parser must refuse or that declare mostly isolated vertices.
_HUGE = (60_000, 70_000, 10**9, 10**30, -(10**30))


def _lines(edges):
    return [f"{u} {v}" for u, v in edges]


@st.composite
def _graphs(draw):
    """Edge-list and matching text: a well-formed graph, often corrupted.

    The graph has a planted perfect matching on an even order, so the
    commands that need one reach their normal path; the matching file is
    that matching or a part of it.
    """
    n = draw(st.sampled_from((0, 2, 4, 6, 8, 10, 12)))
    order = draw(st.permutations(range(n)))
    planted = [tuple(sorted(order[i:i + 2])) for i in range(0, n, 2)]
    pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
    extra = draw(st.lists(st.sampled_from(pairs), max_size=8, unique=True)) if pairs else []
    edges = sorted(set(planted) | set(extra))
    body = _lines(edges)
    # Loops, duplicates, out-of-range ids, bad token counts and non-integers.
    bad = st.one_of(
        st.tuples(_IDS, _IDS).map("{0[0]} {0[1]}".format), st.sampled_from(_JUNK_LINES)
    )
    for line in draw(st.lists(bad, max_size=2)):
        body.insert(draw(st.integers(0, len(body))), line)
    m = sum(1 for ln in body if ln.strip() and not ln.lstrip().startswith("#"))
    header = draw(st.one_of(
        st.just(f"{n} {m}"),
        st.sampled_from(_HUGE + (-1,)).map(f"{{}} {m}".format),
        st.integers(-1, 40).map(f"{n} {{}}".format),
        st.sampled_from(("", "# header comment", "x y", f"{n}", f"{n} {m} 1", "9" * 5000 + " 0")),
    ))
    text = "\n".join([header, *body]) + draw(st.sampled_from(("", "\n", "\r\n")))
    kept = draw(st.lists(st.sampled_from(planted), unique=True)) if planted else []
    matching = draw(st.sampled_from((_lines(planted), _lines(kept), ["0 1 2"], ["# none"])))
    return text, "\n".join(matching)


# Per command, the option groups a run may add; {names} are files.
_OPTIONS = {
    "decompose": (("--matching", "{matching}"), ("--matching", "auto"), ("--text",),
                  ("--dot", "{missing}/g.dot"), ("--dot", "{out}")),
    "det": (("--method", "elimination"), ("--method", "sachs"), ("--method", "ryser")),
    "perm": (("--method", "ryser"), ("--method", "sachs"), ("--method", "elimination")),
    "verify": tuple(("--max-n", k) for k in ("-1", "0", "4", "12", "14", "x")),
    "sachs": (("--list",), ("--count",)),
    "matchings": (("--perfect",), ("--maximum",))
                 + tuple(("--limit", k) for k in ("-1", "0", "2", "x")),
    "export-dot": (("--decorate",),),
}
_GEN_VALUES = {
    "--n": ("-2", "-1", "0", "3", "12", "1000000000", "x"),
    "--p": ("-0.5", "0", "0.3", "1", "1.5", "nan", "inf"),
    "--seed": ("0", "7", "-1", "x"),
}
_INPUTS = ("{graph}", "-", "{missing}/g.edges")
_JSON_COMMANDS = {"decompose", "det", "perm", "verify", "sachs", "matchings"}


@st.composite
def _argvs(draw):
    command = draw(st.sampled_from((*_OPTIONS, "gen", "bogus")))
    if command == "gen":
        flags = draw(st.lists(st.sampled_from(tuple(_GEN_VALUES)), min_size=2, max_size=3,
                              unique=True))
        argv = [command]
        for flag in flags:
            argv += [flag, draw(st.sampled_from(_GEN_VALUES[flag]))]
        return argv
    argv = [command, draw(st.sampled_from(_INPUTS))]
    for group in draw(st.lists(st.sampled_from(_OPTIONS.get(command, (("--x",),))),
                               max_size=3)):
        argv += group
    return argv


@settings(max_examples=200, derandomize=True, deadline=None)
@given(graph=_graphs(), argv=_argvs())
def test_cli_exits_cleanly_on_malformed_and_oversized_input(graph, argv):
    text, matching = graph
    with tempfile.TemporaryDirectory() as tmp:
        names = {
            "graph": os.path.join(tmp, "g.edges"),
            "matching": os.path.join(tmp, "m.txt"),
            "missing": os.path.join(tmp, "missing"),
            "out": os.path.join(tmp, "g.dot"),
        }
        with open(names["graph"], "w") as f:
            f.write(text)
        with open(names["matching"], "w") as f:
            f.write(matching)
        argv = [a.format(**names) for a in argv]
        out, err = io.StringIO(), io.StringIO()
        with mock.patch("sys.stdin", io.StringIO(text)), redirect_stdout(out), \
                redirect_stderr(err):
            code = run_cli(argv)
    event(f"{argv[0]} exit {code}")
    assert code in (0, 1, 2), argv
    if code == 1:
        data = json.loads(out.getvalue())
        assert list(data) == ["error"], argv
        assert set(data["error"]) == {"type", "message"}, argv
    elif code == 2:
        assert out.getvalue() == "" and err.getvalue().startswith("usage error"), argv
    elif argv[0] in _JSON_COMMANDS and "--text" not in argv:
        json.loads(out.getvalue())
