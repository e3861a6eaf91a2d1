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
alternating module, with (x, True) at bit x and (x, False) at bit x + n;
an unsaturated vertex's False state has no transition.  One
strong-component pass and one condensation sweep give every state's
reach.  The state graph is skew-symmetric under the parity flip (the
states that reach (x, p) are the flips of those reached from
(x, not p)), so backward reach is the half-swap of a forward one.  The
loop over maximum matchings stops once the union covers the ceiling.
It starts as the connected components that hold an odd cycle, since
every covered vertex is joined by a walk to a blossom, and after the
first matching it keeps only the components that matching's flowers and
posies touched: by Sterboul–Deming the others are König–Egerváry and
have none under any maximum matching.  A graph without odd cycles
enumerates no matching, and one whose odd components are all
König–Egerváry enumerates one.  So only the simple-cycle and matching
enumerations are exponential; a cycle-count cap guards against dense
inputs.  On matchable graphs this agrees with the fast pair-wise
separation, which the test suite exercises.
"""

from __future__ import annotations

from .alternating import _bit_indices, _component_reach
from .errors import BoundExceededError
from .graph import Graph, connected_components
from .matching import iter_maximum_matchings

DEFAULT_CONFIG_ORDER = 12
DEFAULT_MAX_CYCLES = 200_000

# (edge-index mask, vertex mask, k) of an odd cycle of length 2k + 1.
CycleRow = tuple[int, int, int]


def simple_odd_cycles(graph: Graph) -> list[tuple[int, ...]]:
    """All simple odd cycles, each listed once (min vertex first).

    The orientation is fixed by requiring the second vertex to be smaller
    than the last, so each cycle appears exactly once.  More than
    ``DEFAULT_MAX_CYCLES`` of them raise BoundExceededError.
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
                    if len(cycles) > DEFAULT_MAX_CYCLES:
                        raise BoundExceededError(
                            f"more than {DEFAULT_MAX_CYCLES} simple cycles"
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
    (x, not p) reaches, by the state graph's skew symmetry.
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
    graph: Graph, *, max_order: int = DEFAULT_CONFIG_ORDER
) -> frozenset[int]:
    """SD vertex set by configuration search over all maximum matchings.

    The search stops once the union reaches its ceiling.  At first the
    ceiling is the vertices of the connected components that hold an odd
    cycle: every vertex that ``_covered`` adds lies on a blossom or on a
    walk that ends at one, so no maximum matching covers a vertex outside
    it.  A graph without odd cycles has no blossom, hence the empty set,
    and no matching is enumerated for it.

    After the first maximum matching M the ceiling keeps only the
    components that M's flowers and posies touched.  Proof that this is
    exact: an untouched component H is König–Egerváry by Sterboul–Deming,
    as M restricted to H is a maximum matching of H without a flower or
    posy; and under any maximum matching a flower or posy in H would put
    its blossom's base both in and out of a maximum independent set of H,
    which holds every exposed vertex and one end of every matched edge.
    """
    if graph.n > max_order:
        raise BoundExceededError(
            f"graph order {graph.n} exceeds configuration-search bound {max_order}"
        )
    bits, rows = _cycle_table(graph, simple_odd_cycles(graph))
    odd = 0
    for _, verts, _ in rows:
        odd |= verts
    odd_components = []
    for comp in connected_components(graph):
        mask = sum(1 << v for v in comp)
        if mask & odd:
            odd_components.append(mask)
    covered = 0
    if odd_components:
        ceiling = None
        for m in iter_maximum_matchings(graph, max_order=max_order):
            covered |= _covered(graph, m.pairing, _blossoms(rows, bits, m.pairing))
            if ceiling is None:
                ceiling = sum(mask for mask in odd_components if mask & covered)
            if covered == ceiling:
                break
    return frozenset(_bit_indices(covered))
