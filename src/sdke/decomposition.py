"""The SD-KE separation of a matchable graph, and the SD set of any graph.

The separation classifies vertices in matched pairs: a pair {v, M(v)}
belongs to the KE side as soon as either member admits no mm-alternating
closed walk, and to the SD side when both members do.  Classifying per
pair rather than per vertex matters: a vertex can admit a closed walk
while its partner does not (a pendant KE pair hanging off an SD region is
the canonical case), and such a vertex is KE.

v has a closed walk iff M(v) reaches v in the digraph D of
``alternating``, so a pair is SD iff its members share a strong component
of D, and one linear-time Tarjan pass classifies every pair.  The same
pass certifies each KE pair: components are numbered sinks first, so the
member whose partner's component number is the smaller one cannot be
reached from its partner and has no closed walk.

The result is independent of vertex numbering, and, for perfect
matchings, independent of which perfect matching is used.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .alternating import (
    AlternatingWalk,
    _arcs,
    _closed_walks,
    _perfect_pairing,
    _strong_components,
)
from .graph import Edge, Graph, induced_subgraph
from .matching import Matching, maximum_matching


@dataclass
class SdKePartition:
    """The SD/KE vertex sets, the induced parts, and the cut between them.

    witnesses holds a shortest closed-walk certificate for every SD
    vertex, the same walk ``semi_jposy_witness`` returns.  failed_searches
    holds one member of every KE pair that has no mm-closed walk, which is
    the pair's membership certificate; the strong-component order picks
    that member (it cannot be reached from its partner), so no search is
    run for it.
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
    way the matching must be perfect.  The split takes one strong-component
    pass; the witnesses take one bitset level sweep per SD component and
    block of 512 targets, inside that component.
    """
    if matching is None:
        matching = maximum_matching(graph)
    pairing = _perfect_pairing(graph, matching)
    arcs, comp, sd = _split(graph, pairing)
    ke = frozenset(range(graph.n)) - sd
    failed = frozenset(
        v if comp[pairing[v]] < comp[v] else pairing[v]
        for v in ke
        if v < pairing[v]
    )
    witnesses = _closed_walks(arcs, comp, pairing, sd)
    cut = frozenset(
        e for e in graph.edges if (e[0] in sd) != (e[1] in sd)
    )
    return SdKePartition(
        sd_vertices=sd,
        ke_vertices=ke,
        sd_part=induced_subgraph(graph, sd),
        ke_part=induced_subgraph(graph, ke),
        cut=cut,
        matching=matching,
        witnesses=witnesses,
        failed_searches=failed,
    )


def _split(
    graph: Graph, pairing: tuple[int, ...]
) -> tuple[list[list[int]], list[int], frozenset[int]]:
    """D's arcs, its strong components, and the SD set they give."""
    arcs = _arcs(graph, pairing)
    comp = _strong_components(arcs)
    return arcs, comp, frozenset(v for v in range(graph.n) if comp[v] == comp[pairing[v]])


def sd_vertices_of(graph: Graph) -> frozenset[int]:
    """SD vertex set of an arbitrary graph.

    Matchable graphs use the strong-component split under a maximum
    matching; other graphs fall back to the exhaustive configuration
    search over all maximum matchings.
    """
    return _sd_vertices(graph, maximum_matching(graph))


def _sd_vertices(graph: Graph, matching: Matching, **bounds) -> frozenset[int]:
    """SD vertex set of graph, given one of its maximum matchings."""
    if matching.is_perfect:
        return _split(graph, _perfect_pairing(graph, matching))[2]
    # Imported here, since only a graph without a perfect matching needs the
    # exhaustive search; called through the module attribute, which a
    # caller may patch to count its calls.
    from . import configurations

    return configurations.sd_vertices_bruteforce(graph, **bounds)
