"""The package's public surface: the names ``import sdke`` exports.

Adding or removing a public name is an API change, so it has to be made
here too, on purpose, and in the README's table of public names, which
gives each name's caller outside the tests or the reason it is public.
"""

import inspect
import re
from pathlib import Path

import sdke

README = Path(__file__).resolve().parents[1] / "README.md"

PUBLIC_NAMES = {
    # errors
    "BoundExceededError", "GraphError", "MatchingError", "NotMatchableError",
    "SdkeError",
    # graph
    "Graph", "as_edge", "build_graph", "connected_components", "delete_edge",
    "disjoint_union", "export_dot", "graph_hash", "induced_subgraph",
    "parse_edge_list", "serialize_edge_list",
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
    "sd_vertices_bruteforce", "simple_odd_cycles",
    # determinantal
    "FactorizationReport", "SachsSubgraph", "det_adjacency", "enumerate_sachs",
    "factorization_report", "perm_adjacency", "sachs_census",
    "sachs_cut_disjointness",
    # verification
    "CheckResult", "TheoremReport", "independence_number",
    "random_matchable_graph", "run_theorem_suite",
}


def test_public_names_are_pinned():
    # Submodules are bound as attributes once imported; they are not names
    # the package exports.
    exported = {
        name for name, value in vars(sdke).items()
        if not name.startswith("_") and not inspect.ismodule(value)
    }
    assert exported == PUBLIC_NAMES
    assert len(PUBLIC_NAMES) == 47


def test_every_public_name_is_in_the_readme_table():
    # One row per name, "| `name` | caller or reason |", in the section
    # "Public names"; a row whose second cell is empty says nothing.
    text = README.read_text(encoding="utf-8")
    section = text.split("\n## Public names\n", 1)[1].split("\n## ", 1)[0]
    rows = re.findall(r"^\| `(\w+)` \| *([^|]*?) *\|$", section, re.MULTILINE)
    assert {name for name, _ in rows} == PUBLIC_NAMES
    assert len(rows) == len(PUBLIC_NAMES)
    assert all(why for _, why in rows)
