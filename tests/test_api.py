"""The package's public surface: the names ``import sdke`` exports.

Adding or removing a public name is an API change, so it has to be made
here too, on purpose, and in the README's table of public names, which
gives each name's caller outside the tests or the reason it is public.
"""

import inspect
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

import sdke
from sdke import GraphError, MatchingError, SdkeError

README = Path(__file__).resolve().parents[1] / "README.md"

PUBLIC_NAMES = {
    # errors
    "BoundExceededError", "GraphError", "MatchingError", "NotMatchableError",
    "SdkeError",
    # graph
    "Graph", "as_edge", "build_graph", "connected_components", "delete_edge",
    "export_dot", "graph_hash", "induced_subgraph", "parse_edge_list",
    "serialize_edge_list",
    # matching
    "Matching", "is_matchable", "iter_maximum_matchings",
    "iter_perfect_matchings", "matching_from_edges", "matching_number",
    "maximum_matching", "parse_matching",
    # alternating
    "AlternatingWalk", "has_mm_closed_walk", "reachable_set",
    "semi_jposy_witness", "verify_walk",
    # decomposition
    "SdKePartition", "sd_ke_partition", "sd_vertices_of",
    # configurations
    "sd_vertices_bruteforce",
    # determinantal
    "FactorizationReport", "SachsSubgraph", "det_adjacency", "enumerate_sachs",
    "factorization_report", "perm_adjacency", "sachs_census",
    "sachs_cut_disjointness",
    # verification
    "CheckResult", "TheoremReport", "random_matchable_graph",
    "run_theorem_suite",
}


def test_public_names_are_pinned():
    # The package resolves its names on first use, so they are read through
    # dir() and getattr rather than vars().  Submodules are bound as
    # attributes once imported; they are not names the package exports.
    exported = {
        name for name in dir(sdke)
        if not name.startswith("_") and not inspect.ismodule(getattr(sdke, name))
    }
    assert exported == PUBLIC_NAMES == set(sdke.__all__)
    assert len(PUBLIC_NAMES) == len(sdke.__all__) == 44


def test_every_public_name_is_in_the_readme_table():
    # One row per name, "| `name` | caller or reason |", in the section
    # "Public names"; a row whose second cell is empty says nothing.
    text = README.read_text(encoding="utf-8")
    section = text.split("\n## Public names\n", 1)[1].split("\n## ", 1)[0]
    rows = re.findall(r"^\| `(\w+)` \| *([^|]*?) *\|$", section, re.MULTILINE)
    assert {name for name, _ in rows} == PUBLIC_NAMES
    assert len(rows) == len(PUBLIC_NAMES)
    assert all(why for _, why in rows)


def test_submodules_are_attributes_after_a_plain_import():
    src = Path(__file__).resolve().parents[1] / "src"
    subprocess.run(
        [sys.executable, "-c",
         "import sdke; assert sdke.verification.DEFAULT_SUITE_ORDER == 12"],
        env={**os.environ, "PYTHONPATH": str(src)},
        check=True,
    )


def test_unknown_names_raise_attribute_error():
    with pytest.raises(AttributeError, match="no attribute 'reachable_sets'"):
        sdke.reachable_sets
    assert not hasattr(sdke, "check_stability_under_deletion")


def test_names_are_read_through_their_module(monkeypatch):
    # The package binds none of its public names, so a patch of the defining
    # module's attribute, as perfbench's tracer makes, is what sdke.NAME returns.
    from sdke import decomposition

    patched = object()
    monkeypatch.setattr(decomposition, "sd_ke_partition", patched)
    assert sdke.sd_ke_partition is patched
    monkeypatch.undo()
    assert sdke.sd_ke_partition is decomposition.sd_ke_partition is not patched


def _k2():
    return sdke.build_graph(2, [(0, 1)])


# Each of these routines takes a vertex id, an edge or an order, and checks
# that it is an int as build_graph does: a float or a string is a domain
# error, not a TypeError or, for a float equal to an int, accepted.
NON_INT_CALLS = {
    "matching_from_edges": (MatchingError, lambda: sdke.matching_from_edges(2, [(0.0, 1)])),
    "matching_from_edges n": (MatchingError, lambda: sdke.matching_from_edges(2.0, [])),
    "parse_matching": (MatchingError, lambda: sdke.parse_matching("0 1", 2.5)),
    "reachable_set": (GraphError, lambda: sdke.reachable_set(
        _k2(), sdke.maximum_matching(_k2()), 1.0)),
    "semi_jposy_witness": (GraphError, lambda: sdke.semi_jposy_witness(
        _k2(), sdke.maximum_matching(_k2()), "a")),
    "has_mm_closed_walk": (GraphError, lambda: sdke.has_mm_closed_walk(
        _k2(), sdke.maximum_matching(_k2()), None)),
    "induced_subgraph": (GraphError, lambda: sdke.induced_subgraph(_k2(), [0.0])),
    "induced_subgraph mixed": (GraphError, lambda: sdke.induced_subgraph(_k2(), ["a", 0])),
    "random_matchable_graph": (GraphError, lambda: sdke.random_matchable_graph(4.0, 0.1, 1)),
    "delete_edge": (GraphError, lambda: sdke.delete_edge(_k2(), (0.0, 1))),
    "as_edge": (GraphError, lambda: sdke.as_edge(0.5, 1)),
    "build_graph n": (GraphError, lambda: sdke.build_graph(2.0, [])),
    "as_edge bool": (GraphError, lambda: sdke.as_edge(False, True)),
}


@pytest.mark.parametrize("name", sorted(NON_INT_CALLS))
def test_non_int_ids_are_domain_errors(name):
    error, call = NON_INT_CALLS[name]
    assert issubclass(error, SdkeError)
    with pytest.raises(error, match="not an int"):
        call()
