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
from types import SimpleNamespace

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
    assert len(PUBLIC_NAMES) == len(sdke.__all__) == 43


def test_every_public_name_is_in_the_readme_table():
    # One row per name, "| `name` | caller or reason |", in the section
    # "Public names"; a row whose second cell is empty says nothing.
    text = README.read_text(encoding="utf-8")
    section = text.split("\n## Public names\n", 1)[1].split("\n## ", 1)[0]
    rows = re.findall(r"^\| `(\w+)` \| *([^|]*?) *\|$", section, re.MULTILINE)
    assert {name for name, _ in rows} == PUBLIC_NAMES
    assert len(rows) == len(PUBLIC_NAMES)
    assert all(why for _, why in rows)


def test_readme_check_list_is_the_suite_table():
    # The numbered list after "It checks, in this order" names the suite's
    # checks in report order; item 7 names the two Koenig-Egervary checks.
    text = README.read_text(encoding="utf-8")
    section = text.split("It checks, in this order", 1)[1].split("\n\n", 2)[1]
    items = re.findall(r"^(\d+)\. ((?:`\w+`(?: and )?)+)", section, re.MULTILINE)
    assert [int(number) for number, _ in items] == list(range(1, len(items) + 1))
    listed = [name for _, names in items for name in re.findall(r"`(\w+)`", names)]
    report = sdke.run_theorem_suite(sdke.build_graph(2, [(0, 1)]))
    assert listed == [check.name for check in report.checks]
    assert len(listed) == 12


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


# Each of these routines takes a vertex id, an edge, an order or an order
# bound, and checks that it is an int as build_graph does: a float or a
# string is a domain error, not a TypeError or, for a float equal to an
# int, accepted.  An edge or pair that is not a (u, v) pair is one too,
# as is a matching that is not a Matching or a partition without vertex
# sets; each such row gives the message it must match.
NON_INT_CALLS = {
    "matching_from_edges": (MatchingError, lambda: sdke.matching_from_edges(2, [(0.0, 1)])),
    "matching_from_edges n": (MatchingError, lambda: sdke.matching_from_edges(2.0, [])),
    "parse_matching": (MatchingError, lambda: sdke.parse_matching("0 1", 2.5)),
    "Matching float": (MatchingError, lambda: sdke.Matching([1.0, 0])),
    "Matching str": (MatchingError, lambda: sdke.Matching(["a"])),
    "Matching None": (MatchingError, lambda: sdke.Matching([None])),
    "Matching bool": (MatchingError, lambda: sdke.Matching([True, False])),
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
    "export_dot partition": (GraphError, lambda: sdke.export_dot(
        _k2(), SimpleNamespace(sd_vertices={"a"}, ke_vertices={0, 1}))),
    "run_theorem_suite bound": (SdkeError, lambda: sdke.run_theorem_suite(_k2(), max_order=None)),
    "iter_perfect_matchings bound": (SdkeError, lambda: sdke.iter_perfect_matchings(
        _k2(), max_order="x")),
    "iter_maximum_matchings bound": (SdkeError, lambda: sdke.iter_maximum_matchings(
        _k2(), max_order=2.0)),
    "sd_vertices_bruteforce bound": (SdkeError, lambda: sdke.sd_vertices_bruteforce(
        _k2(), max_order="x")),
    "matching_from_edges triple": (MatchingError, lambda: sdke.matching_from_edges(
        4, [(0, 1, 2)]), r"not an iterable of \(u, v\) pairs"),
    "delete_edge short": (GraphError, lambda: sdke.delete_edge(_k2(), (0,)),
                          r"not a \(u, v\) pair"),
    "sd_ke_partition matching": (MatchingError, lambda: sdke.sd_ke_partition(_k2(), "x"),
                                 "'x' is not a Matching"),
    "labels_of out of range": (GraphError, lambda: _k2().labels_of([9]), r"9 is not an int in 0\.\.1"),
    "labels_of negative": (GraphError, lambda: _k2().labels_of([0, -1])),
    "labels_of str": (GraphError, lambda: _k2().labels_of(["a"])),
    "parse_edge_list None": (GraphError, lambda: sdke.parse_edge_list(None),
                             "NoneType, not a str"),
    "parse_edge_list bytes": (GraphError, lambda: sdke.parse_edge_list(b"2 1\n0 1\n"),
                              "bytes, not a str"),
    "verify_walk matching": (MatchingError, lambda: sdke.verify_walk(
        _k2(), "x", sdke.AlternatingWalk((0, 1), "mm")), "'x' is not a Matching"),
    "export_dot matching": (MatchingError, lambda: sdke.export_dot(_k2(), matching="x"),
                            "'x' is not a Matching"),
    "export_dot partition type": (GraphError, lambda: sdke.export_dot(_k2(), "x"),
                                  "'x' has no SD and KE vertex sets"),
}


@pytest.mark.parametrize("name", sorted(NON_INT_CALLS))
def test_non_int_ids_are_domain_errors(name):
    error, call, *match = NON_INT_CALLS[name]
    assert issubclass(error, SdkeError)
    with pytest.raises(error, match=match[0] if match else "not an int"):
        call()


# Predicates asked about ids that are not ints answer False, as they do for
# ids out of range, rather than raise or take a float or bool for an int.
NON_INT_PREDICATES = {
    "has_edge str": lambda: _k2().has_edge("a", 1),
    "has_edge None": lambda: _k2().has_edge(None, 1),
    "has_edge float": lambda: _k2().has_edge(1.0, 0),
    "has_edge bool": lambda: _k2().has_edge(True, 0),
    "has_edge out of range": lambda: _k2().has_edge(0, 2),
    "contains_edge str": lambda: sdke.maximum_matching(_k2()).contains_edge(("a", 1)),
    "contains_edge float": lambda: sdke.maximum_matching(_k2()).contains_edge((0, 1.0)),
    "contains_edge bool": lambda: sdke.maximum_matching(_k2()).contains_edge((False, 1)),
    "contains_edge out of range": lambda: sdke.maximum_matching(_k2()).contains_edge((2, 1)),
}


@pytest.mark.parametrize("name", sorted(NON_INT_PREDICATES))
def test_predicates_answer_false_for_non_int_ids(name):
    assert _k2().has_edge(0, 1) and sdke.maximum_matching(_k2()).contains_edge((1, 0))
    assert NON_INT_PREDICATES[name]() is False
