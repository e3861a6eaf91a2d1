"""SD-KE decomposition of matchable graphs.

A library for splitting a graph with a perfect matching into its
Sterboul-Deming part (vertices carrying an mm-alternating closed walk
certificate, in matched pairs) and its Koenig-Egervary part, and for
checking that the determinant and permanent of the adjacency matrix
factor exactly across the split.
"""

__version__ = "0.1.0"

from .errors import (
    BoundExceededError,
    GraphError,
    MatchingError,
    NotMatchableError,
    SdkeError,
)
from .graph import (
    Graph,
    as_edge,
    build_graph,
    connected_components,
    delete_edge,
    disjoint_union,
    export_dot,
    graph_hash,
    induced_subgraph,
    parse_edge_list,
    serialize_edge_list,
)
from .matching import (
    Matching,
    enumerate_maximum_matchings,
    enumerate_perfect_matchings,
    exists_max_matching_avoiding,
    is_matchable,
    iter_maximum_matchings,
    iter_perfect_matchings,
    matching_from_edges,
    matching_number,
    maximum_matching,
    parse_matching,
    serialize_matching,
)
from .alternating import (
    AlternatingWalk,
    has_mm_closed_walk,
    reachable_set,
    reachable_sets,
    semi_jposy_witness,
    verify_walk,
    walk_violation,
)
from .decomposition import (
    SdKePartition,
    StabilityReport,
    check_stability_under_deletion,
    sd_ke_partition,
    sd_vertices_of,
    sd_vertices_under,
)
from .configurations import (
    blossoms,
    configuration_vertices,
    sd_vertices_bruteforce,
    simple_odd_cycles,
)
from .determinantal import (
    FactorizationReport,
    SachsSubgraph,
    adjacency_matrix,
    det_adjacency,
    det_via_sachs,
    enumerate_sachs,
    factorization_report,
    perm_adjacency,
    perm_via_sachs,
    sachs_cut_disjointness,
)
from .verification import (
    CheckResult,
    KeCheck,
    TheoremReport,
    independence_number,
    is_koenig_egervary,
    random_graph,
    random_matchable_graph,
    run_theorem_suite,
)
