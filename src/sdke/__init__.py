"""SD-KE decomposition of matchable graphs.

A library for splitting a graph with a perfect matching into its
Sterboul-Deming part (vertices carrying an mm-alternating closed walk
certificate, in matched pairs) and its Koenig-Egervary part, and for
checking that the determinant and permanent of the adjacency matrix
factor exactly across the split.

``import sdke`` loads no submodule.  A public name's module is imported
on the name's first use (PEP 562), so a CLI command pays only for the
modules it runs.
"""

import sys as _sys
from importlib import import_module as _import_module

__version__ = "0.1.0"

# Each submodule and the public names it defines.
_EXPORTS = {
    "errors": (
        "BoundExceededError", "GraphError", "MatchingError", "NotMatchableError",
        "SdkeError",
    ),
    "graph": (
        "Graph", "as_edge", "build_graph", "connected_components", "delete_edge",
        "export_dot", "graph_hash", "induced_subgraph", "parse_edge_list",
        "serialize_edge_list",
    ),
    "matching": (
        "Matching", "is_matchable", "iter_maximum_matchings",
        "iter_perfect_matchings", "matching_from_edges", "matching_number",
        "maximum_matching", "parse_matching",
    ),
    "alternating": (
        "AlternatingWalk", "has_mm_closed_walk", "reachable_set",
        "semi_jposy_witness", "verify_walk",
    ),
    "decomposition": ("SdKePartition", "sd_ke_partition", "sd_vertices_of"),
    "configurations": ("sd_vertices_bruteforce",),
    "determinantal": (
        "FactorizationReport", "SachsSubgraph", "det_adjacency", "enumerate_sachs",
        "factorization_report", "perm_adjacency", "sachs_census",
        "sachs_cut_disjointness",
    ),
    "verification": (
        "CheckResult", "TheoremReport", "random_matchable_graph",
        "run_theorem_suite",
    ),
}
_MODULE_OF = {
    name: f"{__name__}.{module}" for module, names in _EXPORTS.items() for name in names
}
__all__ = list(_MODULE_OF)


def __getattr__(name):
    # The name is looked up in its module on every use and not bound here,
    # so a patch of the module's attribute (a test's call counter, the
    # benchmark's tracer) is seen through the package too.  A submodule's
    # own name imports it, which binds it here.
    module = _MODULE_OF.get(name)
    if module is not None:
        return getattr(_sys.modules.get(module) or _import_module(module), name)
    if name in _EXPORTS:
        return _import_module(f"{__name__}.{name}")
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def __dir__():
    return sorted({*globals(), *__all__})
