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

The search works on bitsets.  Each odd cycle is listed once per graph as
a mask of edge indices, a mask of vertices and its k; a cycle holds at
most k disjoint edges, so it is a blossom of M exactly when k of its
edges are matched.  Walks run in the (vertex, parity) state graph of the
alternating module, with (x, True) at bit x and (x, False) at bit x + n.
One strong-component pass and one condensation sweep give every state's
reach; backward reach is the half-swap of a forward one, by the state
graph's skew symmetry.  The loop over maximum matchings stops once the
union covers the ceiling, the connected components that hold an odd
cycle: every covered vertex is joined by a walk to a blossom.  A graph
without odd cycles enumerates no matching.  So only the simple-cycle and
matching enumerations are exponential; a cycle-count cap guards against
dense inputs.  On matchable graphs this agrees with the fast pair-wise
separation, which the test suite exercises.
"""

from __future__ import annotations

from .alternating import _bit_indices, _component_reach
from .errors import BoundExceededError
from .graph import Graph, connected_components
from .matching import Matching, iter_maximum_matchings

DEFAULT_CONFIG_ORDER = 12
DEFAULT_MAX_CYCLES = 200_000

# (edge-index mask, vertex mask, k) of an odd cycle of length 2k + 1.
CycleRow = tuple[int, int, int]


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
    """(vertex set, base) of every blossom of the matching, in cycle order."""
    if odd_cycles is None:
        odd_cycles = simple_odd_cycles(graph)
    bits, rows = _cycle_table(graph, odd_cycles)
    return [
        (frozenset(_bit_indices(verts)), base)
        for verts, base in _blossoms(rows, bits, matching.pairing)
    ]


def configuration_vertices(
    graph: Graph,
    matching: Matching,
    odd_cycles: list[tuple[int, ...]] | None = None,
) -> frozenset[int]:
    """Vertices lying on some flower or posy of the given matching."""
    if odd_cycles is None:
        odd_cycles = simple_odd_cycles(graph)
    bits, rows = _cycle_table(graph, odd_cycles)
    found = _blossoms(rows, bits, matching.pairing)
    return frozenset(_bit_indices(_covered(graph, matching.pairing, found)))


def _cycle_table(
    graph: Graph, odd_cycles: list[tuple[int, ...]]
) -> tuple[list[int], list[CycleRow]]:
    """Edge bits by vertex pair, and the row of every cycle in the order given.

    Entry u * n + v of the first list is 1 << the index of edge uv in
    ``graph.edges``, or 0 for a non-edge.
    """
    n = graph.n
    bits = [0] * (n * n)
    for i, (u, v) in enumerate(graph.edges):
        bits[u * n + v] = bits[v * n + u] = 1 << i
    rows = []
    for cyc in odd_cycles:
        edges = verts = 0
        for a, b in zip(cyc, cyc[1:] + cyc[:1]):
            edges |= bits[a * n + b]
            verts |= 1 << a
        rows.append((edges, verts, len(cyc) // 2))
    return bits, rows


def _blossoms(
    rows: list[CycleRow], bits: list[int], pairing: tuple[int, ...]
) -> list[tuple[int, int]]:
    """(vertex mask, base) of every blossom of the matching, in row order.

    A row is a blossom when k of its edges are matched.  Those k edges
    are disjoint, so their ends cover every cycle vertex but one, the
    base.
    """
    n = len(pairing)
    matched = 0
    ends: dict[int, int] = {}  # matched edge bit -> its two vertex bits
    for v, u in enumerate(pairing):
        if v < u:
            bit = bits[v * n + u]
            matched |= bit
            ends[bit] = 1 << v | 1 << u
    found = []
    for edges, verts, k in rows:
        inside = edges & matched
        if inside.bit_count() == k:
            covered = 0
            while inside:
                low = inside & -inside
                covered |= ends[low]
                inside ^= low
            found.append((verts, (verts ^ covered).bit_length() - 1))
    return found


def _state_reach(graph: Graph, pairing: tuple[int, ...]) -> list[int]:
    """Every state's reach, with (x, True) at bit x and (x, False) at bit x + n.

    Entry s is the mask of the states that state s reaches, s included,
    from one strong-component pass and condensation sweep over the state
    graph.  The states that reach (x, p) are the half-swap of what
    (x, not p) reaches: the skew symmetry of ``alternating._state_search``.
    """
    n = graph.n
    arcs = [[y + n for y in nbrs if y != u] for nbrs, u in zip(graph.adjacency, pairing)]
    arcs += [[u] if u != x else [] for x, u in enumerate(pairing)]
    comp, reach = _component_reach(arcs)
    return [reach[c] for c in comp]


def _covered(graph: Graph, pairing: tuple[int, ...], found: list[tuple[int, int]]) -> int:
    """Vertex mask of every flower and posy built on the given blossoms.

    A posy's walk from base x starts with x's matching edge, so it sets
    out from (M(x), True).  A flower's stem from exposed x starts with a
    non-matching edge, so it sets out from (x, True), whose arcs are
    exactly those edges; as M(x) = x, both set out from (M(x), True).  An
    exposed base is a flower whose stem is empty.  A walk ends at base b
    by entering (b, True); the states that reach it are the half-swap of
    what (b, False) reaches, so the vertices on such walks are those with
    a state in both masks.  A posy is found from both of its bases, by
    reversing its walk, with the same vertices.
    """
    by_base: dict[int, int] = {}
    for verts, base in found:
        by_base[base] = by_base.get(base, 0) | verts
    if not by_base:
        return 0
    n = graph.n
    full = (1 << n) - 1
    reach = _state_reach(graph, pairing)
    bwd = {b: reach[b + n] >> n | (reach[b + n] & full) << n for b in by_base}
    covered = 0
    for x, u in enumerate(pairing):
        if u == x or x in by_base:
            fwd = reach[u]
            for b, verts in by_base.items():
                if fwd >> b & 1:
                    both = fwd & bwd[b]
                    covered |= by_base.get(x, 0) | 1 << x | verts | (both | both >> n) & full
    return covered


def sd_vertices_bruteforce(
    graph: Graph,
    *,
    max_order: int = DEFAULT_CONFIG_ORDER,
    max_cycles: int = DEFAULT_MAX_CYCLES,
) -> frozenset[int]:
    """SD vertex set by configuration search over all maximum matchings.

    The search stops once the union reaches its ceiling: the vertices of
    the connected components that hold an odd cycle.  Every vertex that
    ``_covered`` adds lies on a blossom or on a walk that ends at one, so
    no maximum matching covers a vertex outside the ceiling.  A graph
    without odd cycles has no blossom, hence the empty set, and no
    matching is enumerated for it.
    """
    if graph.n > max_order:
        raise BoundExceededError(
            f"graph order {graph.n} exceeds configuration-search bound {max_order}"
        )
    bits, rows = _cycle_table(graph, simple_odd_cycles(graph, max_cycles=max_cycles))
    odd = 0
    for _, verts, _ in rows:
        odd |= verts
    ceiling = 0
    for comp in connected_components(graph):
        mask = sum(1 << v for v in comp)
        if mask & odd:
            ceiling |= mask
    covered = 0
    if ceiling:
        for m in iter_maximum_matchings(graph, max_order=max_order):
            covered |= _covered(graph, m.pairing, _blossoms(rows, bits, m.pairing))
            if covered == ceiling:
                break
    return frozenset(_bit_indices(covered))
