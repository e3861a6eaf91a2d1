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
    is_matchable,
    iter_maximum_matchings,
    iter_perfect_matchings,
    matching_from_edges,
    matching_number,
    maximum_matching,
    parse_matching,
)
from .alternating import (
    AlternatingWalk,
    has_mm_closed_walk,
    reachable_set,
    semi_jposy_witness,
    verify_walk,
)
from .decomposition import (
    SdKePartition,
    sd_ke_partition,
    sd_vertices_of,
)
from .configurations import (
    sd_vertices_bruteforce,
    simple_odd_cycles,
)
from .determinantal import (
    FactorizationReport,
    SachsSubgraph,
    det_adjacency,
    enumerate_sachs,
    factorization_report,
    perm_adjacency,
    sachs_census,
    sachs_cut_disjointness,
)
from .verification import (
    CheckResult,
    TheoremReport,
    independence_number,
    random_matchable_graph,
    run_theorem_suite,
)
