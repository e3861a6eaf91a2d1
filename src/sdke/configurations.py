"""Exhaustive blossom / flower / posy search for small graphs.

This is the desk-scale oracle for the SD vertex set of an arbitrary
graph, matchable or not.  A vertex is SD when, for some maximum matching
M, it lies on

* an M-posy: two (not necessarily distinct) M-blossoms whose bases are
  joined by an odd-length mm-alternating walk, or
* an M-flower: an M-blossom whose base is joined to an M-exposed vertex
  by an even-length alternating walk starting with a non-matching edge
  (length zero when the base itself is exposed).

An M-blossom is an odd cycle of length 2k+1 containing exactly k matching
edges; its base is the one cycle vertex not matched along the cycle.

Walk existence and walk membership are decided by the alternating
module's one (vertex, parity) state search, backward reach through its
skew symmetry, so only the simple-cycle enumeration is exponential; a
cycle-count cap guards against dense inputs.  On matchable graphs this
agrees with the fast pair-wise separation, which the test suite exercises.
"""

from __future__ import annotations

from collections import defaultdict

from .alternating import _state_search
from .errors import BoundExceededError
from .graph import Graph
from .matching import Matching, enumerate_maximum_matchings

DEFAULT_CONFIG_ORDER = 12
DEFAULT_MAX_CYCLES = 200_000

State = tuple[int, bool]


def simple_odd_cycles(graph: Graph, *, max_cycles: int = DEFAULT_MAX_CYCLES) -> list[tuple[int, ...]]:
    """All simple odd cycles, each listed once (min vertex first).

    The orientation is fixed by requiring the second vertex to be smaller
    than the last, so each cycle appears exactly once.
    """
    cycles: list[tuple[int, ...]] = []
    adj = graph.adjacency
    on_path = [False] * graph.n
    path: list[int] = []

    def extend(s: int, x: int) -> None:
        for y in adj[x]:
            if y == s and len(path) >= 3 and path[1] < path[-1]:
                if len(path) % 2 == 1:
                    cycles.append(tuple(path))
                    if len(cycles) > max_cycles:
                        raise BoundExceededError(
                            f"more than {max_cycles} simple cycles"
                        )
            elif y > s and not on_path[y]:
                on_path[y] = True
                path.append(y)
                extend(s, y)
                path.pop()
                on_path[y] = False

    for s in range(graph.n):
        on_path[s] = True
        path.append(s)
        extend(s, s)
        path.pop()
        on_path[s] = False
    return cycles


def blossoms(
    graph: Graph,
    matching: Matching,
    odd_cycles: list[tuple[int, ...]] | None = None,
) -> list[tuple[frozenset[int], int]]:
    """(vertex set, base) of every blossom of the matching."""
    if odd_cycles is None:
        odd_cycles = simple_odd_cycles(graph)
    pairing = matching.pairing
    found = []
    for cyc in odd_cycles:
        length = len(cyc)
        matched_within: set[int] = set()
        for i in range(length):
            a, b = cyc[i], cyc[(i + 1) % length]
            if pairing[a] == b:
                matched_within.update((a, b))
        if len(matched_within) == length - 1:
            (base,) = set(cyc) - matched_within
            found.append((frozenset(cyc), base))
    return found


def configuration_vertices(
    graph: Graph,
    matching: Matching,
    odd_cycles: list[tuple[int, ...]] | None = None,
) -> frozenset[int]:
    """Vertices lying on some flower or posy of the given matching."""
    if odd_cycles is None:
        odd_cycles = simple_odd_cycles(graph)
    pairing = matching.pairing
    by_base: dict[int, set[int]] = defaultdict(set)
    for verts, base in blossoms(graph, matching, odd_cycles):
        by_base[base].update(verts)
    if not by_base:
        return frozenset()
    bases = sorted(by_base)
    exposed = [v for v in range(graph.n) if pairing[v] == v]

    fwd_base = {
        b: _state_search(graph, pairing, [(pairing[b], True)])
        for b in bases
        if pairing[b] != b
    }
    # By skew symmetry, the states reaching (b, True) are the flips of
    # the states reached from (b, False).
    bwd_base = {
        b: {(x, not p) for (x, p) in _state_search(graph, pairing, [(b, False)])}
        for b in bases
    }
    covered: set[int] = set()

    def add_walk_vertices(fwd: dict[State, State | None], bwd: set[State]) -> None:
        covered.update(w for (w, _p) in fwd.keys() & bwd)

    for i, b1 in enumerate(bases):
        if b1 not in fwd_base:
            continue  # an exposed base cannot start an mm walk
        for b2 in bases[i:]:
            if (b2, True) in fwd_base[b1]:
                covered |= by_base[b1] | by_base[b2]
                covered.add(b1)
                add_walk_vertices(fwd_base[b1], bwd_base[b2])

    for r in exposed:
        stem_starts = [(y, False) for y in graph.adjacency[r]]
        fwd = _state_search(graph, pairing, stem_starts)
        for b in bases:
            if b == r:
                covered |= by_base[b]
            elif (b, True) in fwd:
                covered |= by_base[b]
                covered.add(r)
                add_walk_vertices(fwd, bwd_base[b])
    return frozenset(covered)


def sd_vertices_bruteforce(
    graph: Graph,
    *,
    max_order: int = DEFAULT_CONFIG_ORDER,
    max_cycles: int = DEFAULT_MAX_CYCLES,
) -> frozenset[int]:
    """SD vertex set by configuration search over all maximum matchings."""
    if graph.n > max_order:
        raise BoundExceededError(
            f"graph order {graph.n} exceeds configuration-search bound {max_order}"
        )
    odd_cycles = simple_odd_cycles(graph, max_cycles=max_cycles)
    covered: set[int] = set()
    for m in enumerate_maximum_matchings(graph, max_order=max_order):
        covered |= configuration_vertices(graph, m, odd_cycles)
        if len(covered) == graph.n:
            break
    return frozenset(covered)
