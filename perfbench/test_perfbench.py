"""Tests of the benchmark itself.

    PYTHONPATH=src python3 -m pytest -q perfbench

They check the generator's determinism, the reference computations
against sdke, the tracer's self-time arithmetic, and that a wrong answer
from the library or the CLI is counted as a failure.
"""

from __future__ import annotations

import json
import random
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))

import sdke  # noqa: E402

import checks  # noqa: E402
import run  # noqa: E402
import tracing  # noqa: E402
from gen import inputs_hash, make_inputs, planted_graph  # noqa: E402


def test_same_seed_gives_identical_inputs():
    specs = [(40, 0.1), (12, 0.3)]
    a = make_inputs("w", 7, specs)
    assert inputs_hash(a) == inputs_hash(make_inputs("w", 7, specs))
    b = make_inputs("w", 8, specs)
    assert inputs_hash(a) != inputs_hash(b)
    # Another seed relabels the same corpus: isomorphism invariants agree.
    for g, h in zip(a, b):
        degrees = [sorted(map(len, checks.adjacency(x.n, x.edges))) for x in (g, h)]
        assert degrees[0] == degrees[1]
        assert (checks.input_stats(g.n, g.edges, g.pairing)
                == checks.input_stats(h.n, h.edges, h.pairing))


@pytest.mark.parametrize("p", [0.0, 0.05, 0.5, 1.0])
def test_planted_matching_is_perfect(p):
    g = planted_graph(30, p, random.Random(3))
    edges = set(g.edges)
    assert all(u < v for u, v in g.edges) and len(edges) == len(g.edges)
    assert all(g.pairing[g.pairing[v]] == v != g.pairing[v] for v in range(g.n))
    assert all((min(v, w), max(v, w)) in edges for v, w in enumerate(g.pairing))
    assert len(edges) == {0.0: 15, 1.0: 435}.get(p, len(edges))
    assert checks.parse_edge_list(g.text) == (g.n, g.edges)


def test_references_agree_with_sdke():
    rng = random.Random(11)
    for _ in range(40):
        g = planted_graph(rng.choice([4, 8, 12]), rng.choice([0.1, 0.3, 0.5]), rng)
        adj = checks.adjacency(g.n, g.edges)
        graph = sdke.parse_edge_list(g.text)
        part = sdke.sd_ke_partition(graph)
        assert checks.sd_vertices(adj, g.pairing) == part.sd_vertices
        m = part.matching.pairing
        assert all(checks.has_mm_closed_walk(adj, m, v) == sdke.has_mm_closed_walk(graph, part.matching, v)
                   for v in range(g.n))
        assert checks.permanent(g.n, adj) == sdke.perm_adjacency(graph)


def test_self_time_subtracts_children():
    spans = [
        ("a", 0.0, 10.0, -1, None),
        ("b", 1.0, 4.0, 0, None),
        ("c", 5.0, 7.0, 0, 2),
        ("b", 7.5, 8.0, 2, None),
    ]
    s = tracing.summarize(spans, 0, len(spans))
    self_ms = {k: v["self_ms"] for k, v in s["layers"].items()}
    assert self_ms == pytest.approx({"a": 5000, "b": 3500, "c": 1500})
    assert s["layers"]["b"]["calls"] == 2 and s["layers"]["c"]["note_sum"] == 2
    assert sum(self_ms.values()) == pytest.approx(s["roots_ms"]) == pytest.approx(10000)


def test_tracer_records_nested_library_calls():
    from worker import MODULES

    graph = sdke.parse_edge_list("4 4\n0 1\n1 2\n2 3\n0 3\n")
    original = sdke.decomposition.sd_ke_partition
    tracer = tracing.Tracer(MODULES)
    tracer.install()
    try:
        part = sdke.sd_ke_partition(graph)
    finally:
        tracer.uninstall()
    assert sdke.decomposition.sd_ke_partition is original
    s = tracing.summarize(tracer.spans, 0, len(tracer.spans))
    witness = s["layers"]["alternating.semi_jposy_witness"]
    assert s["layers"]["decomposition.sd_ke_partition"]["calls"] == 1
    assert witness["calls"] >= 2 and witness["noted"] == len(part.witnesses)
    assert sum(e["self_ms"] for e in s["layers"].values()) == pytest.approx(s["roots_ms"])
    assert [sp for sp in tracer.spans if sp[3] == -1][0][0] == "decomposition.sd_ke_partition"


def test_tail_is_eleventh_largest():
    assert run.tail(list(range(100))) == (89, 90.0)
    # Below 21 samples the upper median, so no jump as the count crosses 21.
    assert [run.tail(list(range(n)))[0] for n in (3, 20, 21, 22, 23)] == [1, 10, 10, 11, 12]


@pytest.mark.parametrize("workload, out", [
    ("split-mixed", {"partition": {"sd": [0, 1], "ke": [2]}}),
    ("dense-perm", {"perm": "8"}),
    ("verify-small", {"checks": [{"name": "x", "pass": False}],
                      "determinants": {"ok": True}, "permanents": {"ok": True}}),
])
def test_wrong_cli_answer_is_a_failure(workload, out):
    refs = {"split-mixed": {"sd": [0, 1, 2, 3], "ke": []}, "dense-perm": {"perm": "9"},
            "verify-small": {"checks": ["x"]}}
    g = planted_graph(4, 0.0, random.Random(0))
    assert run.check_cli(workload, 0, json.dumps(out), refs[workload], g)
    assert run.check_cli(workload, 0, "not json", refs[workload], g)
    assert run.check_cli(workload, 1, json.dumps(out), refs[workload], g)
    dot = sdke.export_dot(sdke.parse_edge_list(g.text))
    assert run.check_cli("match-large", 0, dot, {}, g) is None
    assert run.check_cli("match-large", 0, dot.replace(" -- ", " -- 1", 1), {}, g)


@pytest.mark.parametrize("workload", sorted(run.WORKLOADS))
def test_every_workload_runs_clean(workload):
    result = _bench(ROOT, workload)
    assert result["correct"] is True and result["failed"] == 0 and result["attempted"] >= 2
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert set(result["metrics"]) == {m["name"] for m in bench["end_to_end"]}


def _bench(checkout: Path, workload: str) -> dict:
    p = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=checkout, capture_output=True, text=True, timeout=170,
    )
    assert p.returncode == 0, p.stderr
    return json.loads(p.stdout.splitlines()[-1])


def test_corrupted_library_answer_is_counted(tmp_path):
    """A copy of the sources whose partition drops one SD witness fails every op."""
    shutil.copytree(ROOT / "src", tmp_path / "src", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    target = tmp_path / "src" / "sdke" / "decomposition.py"
    text = target.read_text()
    assert "        witnesses=witnesses,\n" in text
    target.write_text(text.replace("        witnesses=witnesses,\n",
                                   "        witnesses=dict(list(witnesses.items())[1:]),\n"))
    result = _bench(tmp_path, "split-mixed")
    assert result["correct"] is False
    assert result["failed"] >= 1


def test_benchmark_refuses_a_tree_without_sources(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    p = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "split-mixed", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert p.returncode != 0 and p.stdout == ""
