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
from .graph import Edge, Graph, _Record, _setattr, induced_subgraph
from .matching import Matching, maximum_matching

# One deferred build at a time, so that first reads in two threads share
# one build.
_BUILDING = threading.Lock()


def _parts(graph, arcs, comp, pairing, sd, ke) -> dict:
    return {
        "sd_part": induced_subgraph(graph, sd),
        "ke_part": induced_subgraph(graph, ke),
        "cut": frozenset(e for e in graph.edges if (e[0] in sd) != (e[1] in sd)),
    }


def _witnesses(graph, arcs, comp, pairing, sd, ke) -> dict:
    return {"witnesses": _tree_walks(arcs, comp, pairing, sd)}


# Each deferred field and the builder of its group, which takes the state
# the split left and returns every field of the group: the first read of
# any of them builds them all.
_DEFERRED = {"sd_part": _parts, "ke_part": _parts, "cut": _parts, "witnesses": _witnesses}


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

    A partition from ``sd_ke_partition`` defers two groups of fields to
    their first read: sd_part, ke_part and cut, built together, and
    witnesses.  Each group is built once, from the state the split left,
    and every later read returns the same object; the state is dropped
    once every deferred field has been built, assigned or deleted.
    Equality, repr, pickling and copying read every field, so they build
    both groups.  A field given to the constructor is kept as given.
    """

    # Not fields: __split, the state the deferred fields are built from,
    # and __pending, the deferred fields not yet built, assigned or deleted.
    __slots__ = ("sd_vertices", "ke_vertices", "sd_part", "ke_part", "cut", "matching",
                 "witnesses", "failed_searches", "__split", "__pending")

    def __init__(
        self, sd_vertices: frozenset[int], ke_vertices: frozenset[int], sd_part: Graph,
        ke_part: Graph, cut: frozenset[Edge], matching: Matching,
        witnesses: dict[int, AlternatingWalk] | None = None,
        failed_searches: frozenset[int] = frozenset(),
    ) -> None:
        witnesses = {} if witnesses is None else witnesses
        values = sd_vertices, ke_vertices, sd_part, ke_part, cut, matching, witnesses, failed_searches
        # Set directly: nothing of a new record waits for a build.
        for field, value in zip(self._fields, values):
            _setattr(self, field, value)
        self.__pending = set()
        self.__split = None

    def _defer(self, *split) -> SdKePartition:
        """Leave every deferred field unset, to be built from split."""
        for name in _DEFERRED:
            object.__delattr__(self, name)
        self.__pending = set(_DEFERRED)
        self.__split = split
        return self

    def __settle(self, name: str) -> None:
        # Under _BUILDING: name waits for no build, and the split's state
        # goes with the last field that did.
        self.__pending.discard(name)
        if not self.__pending:
            self.__split = None

    def __getattr__(self, name: str):
        # Python calls this only when the usual lookup fails: on the first
        # read of a deferred field, or for a name the record lacks.
        build = _DEFERRED.get(name)
        if build is not None:
            with _BUILDING:
                if name in self.__pending:
                    for field, value in build(*self.__split).items():
                        if field in self.__pending:
                            _setattr(self, field, value)
                            self.__settle(field)
        # Built by another thread meanwhile, or else the usual AttributeError.
        return object.__getattribute__(self, name)

    def __setattr__(self, name: str, value: object) -> None:
        # Assigning a deferred field settles it, as a build would.
        if name in _DEFERRED:
            with _BUILDING:
                _setattr(self, name, value)
                self.__settle(name)
        else:
            _setattr(self, name, value)

    def __delattr__(self, name: str) -> None:
        # Deleting a deferred field that waits for its build settles it
        # unset, as deleting a built one leaves it.
        with _BUILDING:
            if name in _DEFERRED and name in self.__pending:
                self.__settle(name)
            else:
                object.__delattr__(self, name)


def sd_ke_partition(graph: Graph, matching: Matching | None = None) -> SdKePartition:
    """Split a matchable graph into its SD and KE parts.

    If no matching is supplied, a maximum matching is computed; either
    way the matching must be perfect.  A maximum matching computed here
    is a matching of the graph by construction, so only its size is
    tested; a supplied one is checked in full.  The split takes one
    strong-component pass.  The rest is built on first read, once per
    group: sd_part, ke_part and cut by two ``induced_subgraph`` calls and
    one pass over the edges, and the witnesses by two BFS per SD
    component, inside that component.  A caller that never reads a group
    never pays for it.
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
    return SdKePartition(sd, ke, None, None, None, matching, None, failed)._defer(
        graph, arcs, comp, pairing, sd, ke)


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
