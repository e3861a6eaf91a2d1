import hashlib
import io
import json
import os
import subprocess
import sys
import tracemalloc
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from sdke import (
    AlternatingWalk,
    BoundExceededError,
    iter_maximum_matchings,
    iter_perfect_matchings,
    parse_edge_list,
    random_matchable_graph,
    serialize_edge_list,
    verify_walk,
)
from sdke.cli import _COMMANDS, _ParserExit, _build_parser, _json_text, run_cli
from fixtures import (
    complete_graph,
    cycle_graph,
    flower9,
    k10_pendant,
    ladder8,
    mixed32,
    path_graph,
    posy12,
    tangle8,
)
from oracles import brute_sachs_count
from test_api import PUBLIC_NAMES


@pytest.fixture
def files(tmp_path):
    paths = {}
    for name, g in (
        ("ladder8", ladder8()),
        ("tangle8", tangle8()),
        ("posy12", posy12()),
        ("c5", cycle_graph(5)),
        ("k2", parse_edge_list("2 1\n0 1\n")),
    ):
        p = tmp_path / f"{name}.edges"
        p.write_text(serialize_edge_list(g))
        paths[name] = str(p)
    return paths


def run_json(capsys, argv):
    code = run_cli(argv)
    out = capsys.readouterr().out
    return code, json.loads(out)


def test_decompose_tangle8_all_sd(files, capsys):
    code, data = run_json(capsys, ["decompose", files["tangle8"]])
    assert code == 0
    assert data["partition"]["sd"] == list(range(8))
    assert data["partition"]["ke"] == []
    assert data["partition"]["cut"] == []
    assert data["command"] == "decompose" and data["version"]


def test_decompose_posy12_partition_and_witnesses(files, capsys):
    code, data = run_json(capsys, ["decompose", files["posy12"]])
    assert code == 0
    assert data["partition"]["ke"] == [10, 11]
    assert data["partition"]["cut"] == [[8, 10]]
    g = posy12()
    from sdke import maximum_matching

    m = maximum_matching(g)
    assert sorted(data["matching"]) == sorted([list(e) for e in m.edge_pairs()])
    for v, w in data["partition"]["witnesses"].items():
        walk = AlternatingWalk(tuple(w["vertices"]), w["kind"])
        assert walk.vertices[0] == int(v)
        assert verify_walk(g, m, walk)


def test_decompose_matching_file(files, tmp_path, capsys):
    mfile = tmp_path / "m.txt"
    mfile.write_text("0 1\n2 3\n4 5\n6 7\n8 9\n10 11\n")
    code, data = run_json(
        capsys, ["decompose", files["posy12"], "--matching", str(mfile)]
    )
    assert code == 0
    assert data["partition"]["ke"] == [10, 11]


def test_decompose_text_mode(files, capsys):
    code = run_cli(["decompose", files["posy12"], "--text"])
    out = capsys.readouterr().out
    assert code == 0
    assert "ke: 10 11" in out
    assert "cut: 8-10" in out


def test_decompose_writes_dot(files, tmp_path, capsys):
    out = tmp_path / "g.dot"
    code = run_cli(["decompose", files["posy12"], "--dot", str(out)])
    capsys.readouterr()
    assert code == 0
    text = out.read_text()
    assert "fillcolor=lightblue" in text and "color=red" in text


def test_decompose_dot_into_missing_directory_is_domain_error(files, tmp_path, capsys):
    out = tmp_path / "missing" / "g.dot"
    code = run_cli(["decompose", files["posy12"], "--dot", str(out)])
    stdout = capsys.readouterr().out
    assert code == 1
    assert json.loads(stdout)["error"]["type"] == "SdkeError"
    assert f"cannot write {out}" in stdout
    assert not out.parent.exists()


def test_det_with_isolated_vertices_builds_no_matrix(tmp_path, capsys):
    # A header may declare up to 65,536 vertices beyond the text's length;
    # a zero row gives 0 before any n-by-n matrix is built.
    path = tmp_path / "isolated.edges"
    path.write_text("3000 1\n0 1\n")
    tracemalloc.start()
    try:
        code, data = run_json(capsys, ["det", str(path)])
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert code == 0 and data["det"] == "0"
    assert peak < 8 << 20  # the 3000-by-3000 matrix alone takes 72 MB


def test_det_sachs_k2(files, capsys):
    code, data = run_json(capsys, ["det", files["k2"], "--method", "sachs"])
    assert code == 0
    assert data["det"] == "-1"


def test_det_methods_agree(files, capsys):
    values = {}
    for method in ("elimination", "sachs"):
        code, data = run_json(capsys, ["det", files["tangle8"], "--method", method])
        assert code == 0
        values[method] = data["det"]
    assert values["elimination"] == values["sachs"]


def test_perm_methods_agree(files, capsys):
    values = {}
    for method in ("ryser", "sachs"):
        code, data = run_json(capsys, ["perm", files["ladder8"], "--method", method])
        assert code == 0
        values[method] = data["perm"]
    assert values["ryser"] == values["sachs"]


def test_verify_passes_on_matchable(files, capsys):
    code, data = run_json(capsys, ["verify", files["posy12"]])
    assert code == 0
    assert all(c["pass"] for c in data["checks"])
    assert data["determinants"]["ok"] is True
    assert data["permanents"]["ok"] is True
    assert data["determinants"]["det_ke"] == "-1"


def test_verify_runs_each_permanent_once(files, capsys, monkeypatch):
    # Wrap perm_adjacency in every sdke namespace that binds it, so a call
    # through any import path is counted.
    from sdke.determinantal import perm_adjacency

    calls = []

    def counted(*args, **kwargs):
        calls.append(args[0].n)
        return perm_adjacency(*args, **kwargs)

    for name, module in list(sys.modules.items()):
        if name == "sdke" or name.startswith("sdke."):
            for attr, value in vars(module).items():
                if value is perm_adjacency:
                    monkeypatch.setattr(module, attr, counted)
    code, data = run_json(capsys, ["verify", files["posy12"]])
    assert code == 0 and data["permanents"]["ok"] is True
    assert sorted(calls) == [2, 10, 12]  # G, its SD part and its KE part


def test_verify_not_matchable_is_domain_error(files, capsys):
    # The factorization report comes first, so the partition refuses.
    code, data = run_json(capsys, ["verify", files["c5"]])
    assert code == 1
    assert data["error"] == {
        "type": "NotMatchableError",
        "message": "SD-KE separation requires a graph with a perfect matching",
    }


def test_verify_fails_when_stability_skips_an_edge(tmp_path, capsys, monkeypatch):
    # The only KE edge of this fixture sends G - e to the exhaustive
    # search.  When that search hits a work bound, the check may not pass
    # what it did not check, so verify exits 1; unbounded, it passes.
    from sdke import configurations

    path = tmp_path / "k10_pendant.edges"
    path.write_text(serialize_edge_list(k10_pendant()))
    code, data = run_json(capsys, ["verify", str(path)])
    assert code == 0 and all(c["pass"] for c in data["checks"])

    def bounded(graph, **bounds):
        raise BoundExceededError("work bound")

    monkeypatch.setattr(configurations, "sd_vertices_bruteforce", bounded)
    code, data = run_json(capsys, ["verify", str(path)])
    assert code == 1
    failed = [c for c in data["checks"] if not c["pass"]]
    assert [c["name"] for c in failed] == ["stability_under_deletion"]
    assert failed[0]["counterexample"] == {
        "skipped": [{"edge": [10, 11], "bound": "work bound"}]
    }


def test_sachs_count_and_list(files, capsys):
    code, data = run_json(capsys, ["sachs", files["k2"], "--list"])
    assert code == 0
    assert data["count"] == 1
    assert data["subgraphs"] == [{"k2": [[0, 1]], "cycles": []}]


def test_sachs_count_streams_without_listing(files, capsys):
    code, data = run_json(capsys, ["sachs", files["tangle8"], "--count"])
    assert code == 0
    assert data["count"] == brute_sachs_count(tangle8()) == 15
    assert "subgraphs" not in data


def test_matchings_perfect_and_maximum(files, capsys):
    code, data = run_json(capsys, ["matchings", files["c5"], "--maximum"])
    assert code == 0 and data["count"] == 5
    code, data = run_json(capsys, ["matchings", files["ladder8"], "--perfect", "--limit", "1"])
    assert code == 0 and data["count"] == 5 and len(data["matchings"]) == 1


def test_matchings_limit_keeps_a_prefix_of_the_full_count(tmp_path, capsys):
    k8 = complete_graph(8)
    path = tmp_path / "k8.edges"
    path.write_text(serialize_edge_list(k8))
    for flag, full in (("--perfect", list(iter_perfect_matchings(k8))),
                       ("--maximum", list(iter_maximum_matchings(k8)))):
        listed = [[list(e) for e in m.edge_pairs()] for m in full]
        for limit in (0, 1, 7, 105, 200):
            code, data = run_json(capsys, ["matchings", str(path), flag, "--limit", str(limit)])
            assert code == 0 and data["count"] == len(full) == 105
            assert data["matchings"] == listed[:limit]


def test_perm_above_bound_is_domain_error(tmp_path, capsys):
    path = tmp_path / "k23.edges"
    path.write_text(serialize_edge_list(complete_graph(23)))
    code, data = run_json(capsys, ["perm", str(path)])
    assert code == 1
    assert data["error"]["type"] == "BoundExceededError"
    assert "permanent bound 22" in data["error"]["message"]


def test_method_selects_its_route(tmp_path, capsys):
    # Both routes give the same value, so each route's order bound shows
    # which one ran: P21 is within the direct bounds, above the Sachs one.
    path = tmp_path / "p21.edges"
    path.write_text(serialize_edge_list(path_graph(21)))
    for cmd, direct in (("det", "elimination"), ("perm", "ryser")):
        code, data = run_json(capsys, [cmd, str(path), "--method", direct])
        assert (code, data["method"], data[cmd]) == (0, direct, "0")
        code, data = run_json(capsys, [cmd, str(path), "--method", "sachs"])
        assert code == 1
        assert "Sachs enumeration bound 20" in data["error"]["message"]


def test_gen_roundtrip(capsys):
    code = run_cli(["gen", "--n", "8", "--p", "0.3", "--seed", "5"])
    out = capsys.readouterr().out
    assert code == 0
    g = parse_edge_list(out)
    assert g.n == 8
    # Deterministic for a fixed seed.
    run_cli(["gen", "--n", "8", "--p", "0.3", "--seed", "5"])
    assert capsys.readouterr().out == out


def test_gen_above_bound_is_domain_error(capsys):
    code, data = run_json(capsys, ["gen", "--n", "1000000000", "--p", "0", "--seed", "1"])
    assert code == 1
    assert data["error"]["type"] == "BoundExceededError"
    assert "order 1000000000 exceeds generator bound" in data["error"]["message"]


def _count_suite_draws(monkeypatch):
    # The perfect matchings the theorem suite draws, one entry each.
    from sdke import verification

    drawn = []

    def counted(*args, **kwargs):
        for m in iter_perfect_matchings(*args, **kwargs):
            drawn.append(1)
            yield m

    monkeypatch.setattr(verification, "iter_perfect_matchings", counted)
    return drawn


def test_verify_caps_perfect_matchings(tmp_path, capsys, monkeypatch):
    # --max-n lifts only the order bound; K8 has 105 perfect matchings,
    # and verify must stop at the cap with a JSON error.
    from sdke import verification

    monkeypatch.setattr(verification, "_MAX_MATCHINGS", 100)
    drawn = _count_suite_draws(monkeypatch)
    path = tmp_path / "k8.edges"
    path.write_text(serialize_edge_list(complete_graph(8)))
    code, data = run_json(capsys, ["verify", str(path), "--max-n", "8"])
    assert code == 1
    assert data["error"]["type"] == "BoundExceededError"
    assert "more than 100 perfect matchings" in data["error"]["message"]
    assert 100 < len(drawn) <= 105


def test_verify_refuses_k30_before_drawing_a_matching(tmp_path, capsys, monkeypatch):
    # K30 is within --max-n 30 but above the permanent bound, which the
    # factorization report meets before any perfect matching is drawn.
    drawn = _count_suite_draws(monkeypatch)
    path = tmp_path / "k30.edges"
    path.write_text(serialize_edge_list(complete_graph(30)))
    code, data = run_json(capsys, ["verify", str(path), "--max-n", "30"])
    assert code == 1
    assert data["error"] == {
        "type": "BoundExceededError",
        "message": "graph order 30 exceeds permanent bound 22",
    }
    assert drawn == []


def test_export_dot(files, capsys):
    code = run_cli(["export-dot", files["k2"]])
    out = capsys.readouterr().out
    assert code == 0 and "graph G {" in out
    code = run_cli(["export-dot", files["posy12"], "--decorate"])
    out = capsys.readouterr().out
    assert code == 0 and "fillcolor=lightblue" in out


def test_output_is_byte_stable(files, capsys):
    runs = []
    for _ in range(2):
        code = run_cli(["decompose", files["posy12"]])
        assert code == 0
        runs.append(capsys.readouterr().out)
    assert runs[0] == runs[1]


# SHA-256 of the CLI output, pinned so a change to any byte shows.
GOLDEN_SHA256 = {
    ("posy12", "decompose"):
        "a94b11b5b5761adaaf84f56e657bc5cdb338a505670a1f275fdc3f641c97c18c",
    ("posy12", "export-dot --decorate"):
        "280bf5566397cce9385f200196d70fcc8178d8dc564f5fbd96a93680dcc0bb86",
    ("tangle8", "decompose"):
        "6b35a8003003bba3ebc190dcfa64c153f52422aaa681292f7b21747b3ee533a4",
    ("tangle8", "export-dot --decorate"):
        "bde7812fde82929521e22728e8fcb78a9fba93f1fd1ab65e08cd02adf46b3e09",
    ("mixed32", "decompose"):
        "b11d9e826ee227f05185ecd4c676340ed6ac24d3bef62a3c083c0beb6890fca9",
    ("mixed32", "export-dot --decorate"):
        "a2bf34d368c6e189b543d64a56f8f05b1d79b19816ce76fdfe2f3757edf4d98a",
    # 60 vertices, 93 edges: 34 SD, 26 KE, 21 cut edges.
    ("sparse60", "decompose"):
        "8a64a38d9ebf79393d835aa30625020390bc0045b1b6fe1df080dbc8c119d481",
    ("sparse60", "export-dot --decorate"):
        "a4ee93a1da42899e9e586dce1aba1ad641d8c5a08d763fd5a6a6b10f2d82e06c",
    # The matching enumerator, perfect and maximum, and the theorem suite.
    ("posy12", "matchings"):
        "3996f05349422d444e904a356b99c9dfd98e3ed64ab22678f54fce23087aaeb2",
    ("posy12", "matchings --maximum"):
        "3351a28c605f85863c65fce9af83bcc183a78f0c62ec241f99fada6c77a472a6",
    ("posy12", "verify"):
        "1463529982f4fa0f605767f4cc81c27a47cdb2bf0cdeb55ef4d9c78f533b74ef",
    ("tangle8", "matchings"):
        "3a860fbf4a22cefac622420c99febd10ef663a16b867703cb96a5dc2e31c1801",
    ("tangle8", "matchings --maximum"):
        "4a8e887534ec4ff9dcce715718a1f47358b444a0c27737ee20161f62fe5233fc",
    ("tangle8", "verify"):
        "6723016a29736f1b47cf2d046ff4354bc60b8f6371856a3071f9ac36b8003074",
    # det and perm by each method, recorded before the two handlers merged.
    ("posy12", "det"):
        "a2bde78e6aa9dcf16bf30c292d7d34ed2efccff018047bc0b25ff17a09ddfdfe",
    ("posy12", "det --method sachs"):
        "f3aee166481e65bdb2fe4c6bfb9f55ac79c53637b625db9c7f6c4ec8f005658c",
    ("posy12", "perm"):
        "110f1731859a91c4f3155a12abfc035de856faefc7137b434cf8ee0aa3639dec",
    ("posy12", "perm --method sachs"):
        "41e59bfe3f82d78296d82d71ef49fcfe7284ca835efde2e847e8845615f30620",
    ("tangle8", "det"):
        "dc23b8c5009fb73e1daf0275f908ce078680ccdb7c3728925e974f402583654f",
    ("tangle8", "det --method sachs"):
        "bf0fb82e403b895478787ce88b13f6041ccd01bfa5a835bee3273f4687920f1e",
    ("tangle8", "perm"):
        "571c91827bd4a57de7fa6b7d2baca8aeb2910345a0d93e8fa51c5f1a927aab40",
    ("tangle8", "perm --method sachs"):
        "05edab97d9e9fd452019180085eb25d29d90ed0d8d0a77594d415de7c30aa05f",
    # Odd order, so every maximum matching leaves one vertex unmatched.
    ("flower9", "matchings --maximum"):
        "8c886e6777c5093869311b9c298c5af3e4155c8525ed102d2e6f3cd23dce9334",
    # Deleting some KE edge leaves no perfect matching, so the stability
    # check takes the exhaustive route on G - e.
    ("random12a", "verify"):
        "5c41f018bacc10a9920a45514db1f79af35988d2b69a54cf0e2b3b8c940200f3",
    ("random12b", "verify"):
        "058e36466a241e3a8a046abdc0d65412dd4ddf23c4dd0861fb1adad1c8d04a3b",
}


@pytest.mark.parametrize("name, command", sorted(GOLDEN_SHA256))
def test_output_bytes_match_golden_hashes(name, command, tmp_path, capsys):
    graph = {
        "posy12": posy12,
        "tangle8": tangle8,
        "mixed32": mixed32,
        "flower9": flower9,
        "sparse60": lambda: random_matchable_graph(60, 0.04, 3),
        "random12a": lambda: random_matchable_graph(12, 0.2, 6),
        "random12b": lambda: random_matchable_graph(12, 0.3, 0),
    }[name]()
    path = tmp_path / f"{name}.edges"
    path.write_text(serialize_edge_list(graph))
    cmd, *flags = command.split()
    assert run_cli([cmd, str(path), *flags]) == 0
    out = capsys.readouterr().out
    assert hashlib.sha256(out.encode()).hexdigest() == GOLDEN_SHA256[name, command]


_JSON_TEXT = st.text(st.characters() | st.sampled_from('"\\/\n\t\x00\x1f\x7f\u00e9\u2028\U0001f600'))
_JSON_SCALARS = (
    st.none() | st.booleans() | st.integers()
    | st.integers(min_value=2**64, max_value=2**200)
    | st.integers(min_value=-(2**200), max_value=-(2**64))
    | st.floats() | _JSON_TEXT
)
_JSON_VALUES = st.recursive(
    _JSON_SCALARS,
    lambda inner: (st.lists(inner, max_size=4) | st.lists(inner, max_size=3).map(tuple)
                   | st.dictionaries(_JSON_TEXT, inner, max_size=4)),
    max_leaves=24,
)


@settings(max_examples=300, derandomize=True, deadline=None)
@given(_JSON_VALUES)
def test_report_writer_matches_json_dumps(value):
    # json.dumps with indent=2 is the oracle for the CLI's own writer.
    assert _json_text(value) == json.dumps(value, indent=2)


def test_report_writer_refuses_values_json_refuses_and_keys_that_are_not_str():
    for value in ({(1, 2): 0}, {"a": [object()]}, {1: 0}, {None: 0}):
        with pytest.raises(TypeError):
            _json_text(value)


def test_usage_errors_exit_2(capsys):
    assert run_cli(["det"]) == 2
    assert run_cli(["no-such-command", "x"]) == 2
    assert run_cli(["det", "in.edges", "--method", "bogus"]) == 2
    assert run_cli(["matchings", "in.edges", "--limit", "-1"]) == 2


def test_version_and_help_return_0(capsys):
    # argparse exits from inside parse_args for both; run_cli must return.
    from sdke import __version__

    assert run_cli(["--version"]) == 0
    assert capsys.readouterr() == (f"{__version__}\n", "")
    assert run_cli(["verify", "--help"]) == 0
    out, err = capsys.readouterr()
    assert out.startswith("usage: sdke verify [-h] [--max-n MAX_N] input\n") and err == ""


def _parse_outcome(parser, argv):
    """(vars of the namespace or None, exit status, stdout, stderr) of one parse."""
    out, err = io.StringIO(), io.StringIO()
    args, status = None, None
    with redirect_stdout(out), redirect_stderr(err):
        try:
            args = vars(parser.parse_args(argv))
        except _ParserExit as exc:
            status, message = exc.args
            err.write(message or "")
    return args, status, out.getvalue(), err.getvalue()


def test_one_command_parser_matches_the_full_parser():
    # run_cli builds only the subparser that argv[0] names.  Its help, its
    # usage errors and its parsed arguments must be the full eight-command
    # parser's, byte for byte; any other argv gets the full parser itself.
    argvs = [["--help"], ["--version"], [], ["bogus", "x"], ["dec", "x"], ["-x"]]
    for name in _COMMANDS:
        argvs += [[name], [name, "--help"], [name, "x", "--bogus"], [name, "x", "y"],
                  [name, "--version"], [name, "x"]]
    argvs += [
        ["decompose", "x", "--json", "--text"], ["decompose", "x", "--text", "--dot", "o"],
        ["decompose", "x", "--matching"], ["det", "x", "--method", "ryser"],
        ["perm", "x", "--method", "elimination"], ["det", "x", "--method", "sachs"],
        ["verify", "x", "--max-n", "y"], ["verify", "x", "--max-n", "14"],
        ["sachs", "x", "--list", "--count"], ["matchings", "x", "--perfect", "--maximum"],
        ["matchings", "x", "--limit", "-1"], ["matchings", "x", "--maximum", "--limit", "3"],
        ["gen", "--n", "4"], ["gen", "--n", "4", "--p", "x", "--seed", "1"],
        ["gen", "--n", "4", "--p", "0.5", "--seed", "1"], ["export-dot", "x", "--decorate"],
    ]
    full = _build_parser()
    for argv in argvs:
        want = _parse_outcome(full, argv)
        command = argv[0] if argv and argv[0] in _COMMANDS else None
        assert _parse_outcome(_build_parser(command), argv) == want, argv
        if want[0] is None:
            out, err = io.StringIO(), io.StringIO()
            with redirect_stdout(out), redirect_stderr(err):
                status = run_cli(argv)
            assert (status, out.getvalue(), err.getvalue()) == want[1:], argv
    assert len(_COMMANDS) == 8


def test_import_does_not_load_numpy():
    # The package is pure Python; importing numpy would add to every CLI start.
    src = Path(__file__).resolve().parent.parent / "src"
    subprocess.run(
        [sys.executable, "-c",
         "import sdke, sdke.cli, sys; assert 'numpy' not in sys.modules"],
        env={**os.environ, "PYTHONPATH": str(src)},
        check=True,
    )


def test_each_command_loads_only_the_modules_it_runs(files):
    # decompose needs neither the determinantal layer nor the theorem suite,
    # and on a matchable graph not the exhaustive configuration search;
    # the package binds its names on first use, so it loads none of them.
    # A star import still binds exactly the pinned public names.
    src = Path(__file__).resolve().parent.parent / "src"
    script = f"""
import contextlib, io, json, sys
from sdke.cli import run_cli
with contextlib.redirect_stdout(io.StringIO()):
    assert run_cli(["decompose", {files["posy12"]!r}]) == 0
lazy = ("sdke.determinantal", "sdke.verification", "sdke.configurations")
assert not [m for m in lazy if m in sys.modules], sorted(sys.modules)
names = {{}}
exec("from sdke import *", names)
print(json.dumps(sorted(set(names) - {{"__builtins__"}})))
"""
    p = subprocess.run([sys.executable, "-c", script], env={**os.environ, "PYTHONPATH": str(src)},
                       capture_output=True, text=True, check=True)
    assert set(json.loads(p.stdout)) == PUBLIC_NAMES
    assert len(PUBLIC_NAMES) == 44


def test_commands_import_neither_dataclasses_nor_inspect(files):
    # The result records are plain slotted classes, so decompose and verify
    # load no dataclasses, and with it no inspect, ast, dis or tokenize.  A
    # module the interpreter's site had loaded before sdke is not counted.
    src = Path(__file__).resolve().parent.parent / "src"
    script = f"""
import contextlib, io, json, sys
heavy = ("dataclasses", "inspect", "ast", "dis", "tokenize")
preloaded = {{m for m in heavy if m in sys.modules}}
from sdke.cli import run_cli
loaded = {{}}
for argv in (["decompose", {files["posy12"]!r}], ["verify", {files["posy12"]!r}]):
    with contextlib.redirect_stdout(io.StringIO()):
        assert run_cli(argv) == 0, argv
    loaded[argv[0]] = [m for m in heavy if m in sys.modules and m not in preloaded]
print(json.dumps(loaded))
"""
    p = subprocess.run([sys.executable, "-c", script], env={**os.environ, "PYTHONPATH": str(src)},
                       capture_output=True, text=True, check=True)
    assert json.loads(p.stdout) == {"decompose": [], "verify": []}


def test_missing_file_is_domain_error(capsys):
    code, data = run_json(capsys, ["det", "/nonexistent/file.edges"])
    assert code == 1
    assert data["error"]["type"] == "SdkeError"


def test_malformed_graph_is_domain_error(tmp_path, capsys):
    bad = tmp_path / "bad.edges"
    bad.write_text("2 1\n0 2\n")
    code, data = run_json(capsys, ["det", str(bad)])
    assert code == 1
    assert data["error"]["type"] == "GraphError"


def test_huge_header_is_domain_error(tmp_path, capsys):
    huge = tmp_path / "huge.edges"
    huge.write_text("1000000000 0\n")
    code, data = run_json(capsys, ["decompose", str(huge)])
    assert code == 1
    assert data["error"]["type"] == "GraphError"
    assert "header declares 1000000000 vertices" in data["error"]["message"]


def test_stdin_input(files, capsys, monkeypatch):
    import io

    monkeypatch.setattr("sys.stdin", io.StringIO("2 1\n0 1\n"))
    code, data = run_json(capsys, ["det", "-"])
    assert code == 0 and data["det"] == "-1"
