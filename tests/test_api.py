"""The package's public surface: the names ``import sdke`` exports.

Adding or removing a public name is an API change, so it has to be made
here too, on purpose.
"""

import inspect

import sdke

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
    "AlternatingWalk", "has_mm_closed_walk", "reachable_set", "reachable_sets",
    "semi_jposy_witness", "verify_walk", "walk_violation",
    # decomposition
    "SdKePartition", "sd_ke_partition", "sd_vertices_of", "sd_vertices_under",
    # configurations
    "sd_vertices_bruteforce", "simple_odd_cycles",
    # determinantal
    "FactorizationReport", "SachsSubgraph", "det_adjacency", "enumerate_sachs",
    "factorization_report", "perm_adjacency", "sachs_census",
    "sachs_cut_disjointness",
    # verification
    "CheckResult", "TheoremReport", "independence_number", "random_graph",
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
    assert len(PUBLIC_NAMES) == 51
