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

import threading

from .alternating import (
    AlternatingWalk,
    _arcs,
    _perfect_pairing,
    _strong_components,
    _tree_walks,
)
from .graph import Edge, Graph, _Record, induced_subgraph
from .matching import Matching, maximum_matching

# One deferred build at a time, so that first reads in two threads share
# one build.
_BUILDING = threading.Lock()

# Each deferred field and its builder, from the state the split left.
_DEFERRED = {
    "sd_part": lambda graph, arcs, comp, pairing, sd, ke: induced_subgraph(graph, sd),
    "ke_part": lambda graph, arcs, comp, pairing, sd, ke: induced_subgraph(graph, ke),
    "cut": lambda graph, arcs, comp, pairing, sd, ke: frozenset(
        e for e in graph.edges if (e[0] in sd) != (e[1] in sd)),
    "witnesses": lambda graph, arcs, comp, pairing, sd, ke: _tree_walks(arcs, comp, pairing, sd),
}


class SdKePartition(_Record):
    """The SD/KE vertex sets, the induced parts, and the cut between them.

    witnesses holds a closed-walk certificate for every SD vertex, made
    of vertices of its strong component of D alone.  failed_searches
    holds the member of each KE pair that its partner cannot reach in D
    (the strong-component order picks it, with no search), so it has no
    mm-closed walk.  Their partners form an independent set of G of size
    |KE|/2 with no neighbour in SD, as ``verification._block_fault``
    proves: the certificate that the KE part is Koenig-Egervary, and that
    no perfect matching or spanning Sachs subgraph uses a cut edge.

    A partition from ``sd_ke_partition`` builds sd_part, ke_part, cut and
    witnesses as ``functools.cached_property`` does: each on its own
    first read, from the state the split left.  Equality, repr, pickling
    and copying read every field, so they build them all.  A partition
    made by the constructor keeps every field as given, and one deleted
    from it stays unset.
    """

    # Not a field: __split, the state the deferred fields are built from,
    # or None in a partition made by the constructor.
    __slots__ = ("sd_vertices", "ke_vertices", "sd_part", "ke_part", "cut", "matching",
                 "witnesses", "failed_searches", "__split")

    def __init__(
        self, sd_vertices: frozenset[int], ke_vertices: frozenset[int], sd_part: Graph,
        ke_part: Graph, cut: frozenset[Edge], matching: Matching,
        witnesses: dict[int, AlternatingWalk] | None = None,
        failed_searches: frozenset[int] = frozenset(),
    ) -> None:
        witnesses = {} if witnesses is None else witnesses
        values = sd_vertices, ke_vertices, sd_part, ke_part, cut, matching, witnesses, failed_searches
        for field, value in zip(self._fields, values):
            setattr(self, field, value)
        self.__split = None

    def _defer(self, *split) -> SdKePartition:
        """Build each deferred field that is unset from split, on its first read."""
        self.__split = split
        return self

    def __getattr__(self, name: str):
        # Python calls this only when the usual lookup fails: on a read of
        # a deferred field that is unset, or for a name the record lacks.
        build = _DEFERRED.get(name)
        if build is not None and self.__split is not None:
            with _BUILDING:
                try:  # built by another thread meanwhile
                    return object.__getattribute__(self, name)
                except AttributeError:
                    setattr(self, name, build(*self.__split))
        # The field just built, or else the usual AttributeError.
        return object.__getattribute__(self, name)


def sd_ke_partition(graph: Graph, matching: Matching | None = None) -> SdKePartition:
    """Split a matchable graph into its SD and KE parts.

    If no matching is supplied, a maximum matching is computed; either
    way the matching must be perfect.  A maximum matching computed here
    is a matching of the graph by construction, so only its size is
    tested; a supplied one is checked in full.  The split takes one
    strong-component pass; each other field is built on its first read:
    a part by one ``induced_subgraph`` call, the cut by one pass over the
    edges, the witnesses by two BFS per SD component, inside it.
    """
    own = matching is None
    if own:
        matching = maximum_matching(graph)
    # A matching of the graph's own that is not perfect goes through the
    # full check too, which raises the same NotMatchableError.
    pairing = matching.pairing if own and matching.is_perfect else _perfect_pairing(graph, matching)
    arcs, comp, sd = _split(graph, pairing)
    ke = frozenset(range(graph.n)) - sd
    failed = frozenset(
        v if comp[pairing[v]] < comp[v] else pairing[v]
        for v in ke
        if v < pairing[v]
    )
    # Not made by the constructor, which sets every field: the deferred
    # ones stay unset until their first read.
    part = SdKePartition.__new__(SdKePartition)
    part.sd_vertices, part.ke_vertices, part.matching, part.failed_searches = sd, ke, matching, failed
    return part._defer(graph, arcs, comp, pairing, sd, ke)


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


def _sd_vertices(graph: Graph, matching: Matching) -> frozenset[int]:
    """SD vertex set of graph, given one of its maximum matchings."""
    if matching.is_perfect:
        return _split(graph, _perfect_pairing(graph, matching))[2]
    # Imported here, since only a graph without a perfect matching needs the
    # exhaustive search; called through the module attribute, which a
    # caller may patch to count its calls.
    from . import configurations

    return configurations.sd_vertices_bruteforce(graph)
