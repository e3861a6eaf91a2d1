import json
import sys

import pytest

from sdke import AlternatingWalk, parse_edge_list, serialize_edge_list, verify_walk
from sdke.cli import run_cli
from fixtures import cycle_graph, ladder8, posy12, tangle8


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
    code, data = run_json(capsys, ["verify", files["c5"]])
    assert code == 1
    assert "matchable" in data["error"]["message"]
    assert data["error"]["type"] == "NotMatchableError"


def test_sachs_count_and_list(files, capsys):
    code, data = run_json(capsys, ["sachs", files["k2"], "--list"])
    assert code == 0
    assert data["count"] == 1
    assert data["subgraphs"] == [{"k2": [[0, 1]], "cycles": []}]


def test_matchings_perfect_and_maximum(files, capsys):
    code, data = run_json(capsys, ["matchings", files["c5"], "--maximum"])
    assert code == 0 and data["count"] == 5
    code, data = run_json(capsys, ["matchings", files["ladder8"], "--perfect", "--limit", "1"])
    assert code == 0 and data["count"] == 5 and len(data["matchings"]) == 1


def test_gen_roundtrip(capsys):
    code = run_cli(["gen", "--n", "8", "--p", "0.3", "--seed", "5"])
    out = capsys.readouterr().out
    assert code == 0
    g = parse_edge_list(out)
    assert g.n == 8
    # Deterministic for a fixed seed.
    run_cli(["gen", "--n", "8", "--p", "0.3", "--seed", "5"])
    assert capsys.readouterr().out == out


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


def test_usage_errors_exit_2(capsys):
    assert run_cli(["det"]) == 2
    assert run_cli(["no-such-command", "x"]) == 2
    assert run_cli(["det", "in.edges", "--method", "bogus"]) == 2


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


def test_stdin_input(files, capsys, monkeypatch):
    import io

    monkeypatch.setattr("sys.stdin", io.StringIO("2 1\n0 1\n"))
    code, data = run_json(capsys, ["det", "-"])
    assert code == 0 and data["det"] == "-1"
