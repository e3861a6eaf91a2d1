"""The SD-KE separation of a matchable graph, and edge-deletion stability.

The separation algorithm classifies vertices in matched pairs: a pair
{v, M(v)} belongs to the KE side as soon as either member admits no
mm-alternating closed walk, and to the SD side when both members do.
Classifying per pair rather than per vertex matters: a vertex can admit a
closed walk while its partner does not (a pendant KE pair hanging off an
SD region is the canonical case), and such a vertex is KE.

The result is independent of the order in which pairs are examined, and,
for perfect matchings, independent of which perfect matching is used.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from . import configurations
from .alternating import AlternatingWalk, semi_jposy_witness
from .errors import GraphError, NotMatchableError
from .graph import Edge, Graph, as_edge, delete_edge, induced_subgraph
from .matching import (
    Matching,
    exists_max_matching_avoiding,
    maximum_matching,
)


@dataclass
class SdKePartition:
    """The SD/KE vertex sets, the induced parts, and the cut between them.

    witnesses holds a closed-walk certificate for every SD vertex;
    failed_searches holds the vertices whose closed-walk search came up
    empty (every KE pair contains at least one of these, which is its
    membership certificate).
    """

    sd_vertices: frozenset[int]
    ke_vertices: frozenset[int]
    sd_part: Graph
    ke_part: Graph
    cut: frozenset[Edge]
    matching: Matching
    witnesses: dict[int, AlternatingWalk] = field(default_factory=dict)
    failed_searches: frozenset[int] = frozenset()


def sd_ke_partition(graph: Graph, matching: Matching | None = None) -> SdKePartition:
    """Split a matchable graph into its SD and KE parts.

    If no matching is supplied, a maximum matching is computed; either
    way the matching must be perfect.  Work is done once per matched
    pair: the partner of a searched vertex is only searched when needed.
    """
    if matching is None:
        matching = maximum_matching(graph)
    matching.validate(graph)
    if not matching.is_perfect:
        raise NotMatchableError(
            "SD-KE separation requires a graph with a perfect matching"
        )
    ke: set[int] = set()
    witnesses: dict[int, AlternatingWalk] = {}
    failed: set[int] = set()
    for v in range(graph.n):
        u = matching.pairing[v]
        if v > u:
            continue  # handle each pair once, from its smaller member
        wv = semi_jposy_witness(graph, matching, v)
        if wv is None:
            failed.add(v)
            ke.update((v, u))
            continue
        wu = semi_jposy_witness(graph, matching, u)
        if wu is None:
            failed.add(u)
            ke.update((v, u))
        else:
            witnesses[v] = wv
            witnesses[u] = wu
    sd = frozenset(range(graph.n)) - ke
    cut = frozenset(
        e for e in graph.edges if (e[0] in sd) != (e[1] in sd)
    )
    return SdKePartition(
        sd_vertices=sd,
        ke_vertices=frozenset(ke),
        sd_part=induced_subgraph(graph, sd),
        ke_part=induced_subgraph(graph, ke),
        cut=cut,
        matching=matching,
        witnesses=witnesses,
        failed_searches=frozenset(failed),
    )


def sd_vertices_of(graph: Graph, **bounds) -> frozenset[int]:
    """SD vertex set of an arbitrary graph.

    Matchable graphs use the fast separation; other graphs fall back to
    the exhaustive configuration search over all maximum matchings.
    """
    matching = maximum_matching(graph)
    if matching.is_perfect:
        return sd_ke_partition(graph, matching).sd_vertices
    return configurations.sd_vertices_bruteforce(graph, **bounds)


@dataclass
class StabilityReport:
    """Outcome of deleting a KE-part edge and recomputing the SD set."""

    edge: Edge
    avoidable: bool
    sd_before: frozenset[int]
    sd_after: frozenset[int]
    inclusion_ok: bool
    equal: bool

    @property
    def ok(self) -> bool:
        # Deletion never shrinks the SD set; an avoidable edge preserves it.
        return self.inclusion_ok and (self.equal or not self.avoidable)


def check_stability_under_deletion(
    graph: Graph, e: tuple[int, int], **bounds
) -> StabilityReport:
    """Delete one KE-part edge and compare SD vertex sets.

    The edge must lie inside the KE part (cut edges and SD-part edges are
    rejected).  When some maximum matching avoids the edge, the SD set
    must be unchanged; otherwise it may only grow.
    """
    e = as_edge(*e)
    if e not in graph.edge_set:
        raise GraphError(f"edge ({e[0]},{e[1]}) not in graph")
    sd_before = sd_vertices_of(graph, **bounds)
    if e[0] in sd_before or e[1] in sd_before:
        raise GraphError(
            f"edge ({e[0]},{e[1]}) is not inside the KE part"
        )
    avoidable = exists_max_matching_avoiding(graph, e)
    sd_after = sd_vertices_of(delete_edge(graph, e), **bounds)
    return StabilityReport(
        edge=e,
        avoidable=avoidable,
        sd_before=sd_before,
        sd_after=sd_after,
        inclusion_ok=sd_before <= sd_after,
        equal=sd_before == sd_after,
    )
