"""Exhaustive flower / posy search for small graphs.

This is the desk-scale route to the SD vertex set of an arbitrary graph,
matchable or not.  A vertex is SD when, for some maximum matching M, it
lies on

* an M-posy: two (not necessarily distinct) M-blossoms whose bases are
  joined by an odd-length mm-alternating walk, or
* an M-flower: an M-blossom whose base is joined to an M-exposed vertex
  by an even-length alternating walk starting with a non-matching edge
  (length zero when the base itself is exposed).

An M-blossom is an odd cycle of length 2k+1 containing exactly k matching
edges; its base is the one cycle vertex not matched along the cycle.

No cycle is listed.  Walks run in the (vertex, parity) state graph of
the alternating module, with (x, True) at bit x and (x, False) at bit
x + n; an unsaturated vertex's False state has no transition.  One
strong-component pass and one condensation sweep give every state's
reach, and the walk cover of M is read from it in two halves:

* the flower half: every v that some M-exposed u reaches in both states
  from (u, True);
* the posy half: every matched x such that both x and M(x) have an
  mm-closed walk, that is (M(x), True) reaches (x, True) and (x, True)
  reaches (M(x), True).

Every M-flower and M-posy vertex is in the cover.  A flower's stem from
u (starting with a non-matching edge, even, so it enters the base b by
b's matching edge) reaches (b, True); its blossom, from b and back,
reaches (b, False); the stem reversed leads back to (u, False).  Each
stem vertex is met once in each direction, so in both states, and each
blossom vertex in both states by running the blossom either way round.
A posy's closed walk (first blossom, walk, second blossom, walk back)
meets each walk vertex in both states, and each blossom vertex in both
states by running its blossom either way round; the two runs share the
base's states, so they lie in one strong component, and every posy
vertex has an mm-closed walk.  Its partner is on the posy too.

The posy half is the SD set of the matched subgraph G[V(M)], by the
split theorem of ``decomposition``: a closed walk never enters an exposed
vertex, whose False state is a dead end.  The flower half is only
checked, not proved.  A single cover can exceed its own matching's
configurations (in 1,156 of 218,717 (graph, matching) pairs), and the
first matching's cover can fall short of SD(G) (on 1,119 of 13,241
non-matchable graphs), but the union over all maximum matchings
equalled the blossom-by-blossom search kept in ``tests/oracles.py`` on
64,715 graphs with no mismatch: all 1,253 graphs with at most 7
vertices, 30,000 random graphs with n <= 12, 12,000 with odd order or
planted odd cycles, 3,957 non-matchable G - e and 17,500 disjoint
unions with pendant paths.  So the union is what is claimed.

Every covered vertex lies on an odd closed walk: the two walks from u
into v have lengths of opposite parity, and a posy vertex's mm-closed
walk is odd.  So a graph without odd cycles is covered by nothing, and
the search stops after its first matching.
"""

from __future__ import annotations

from .alternating import _bit_indices, _component_reach
from .errors import _check_order
from .graph import Graph, connected_components
from .matching import iter_maximum_matchings

DEFAULT_CONFIG_ORDER = 12


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


def _walk_cover(graph: Graph, pairing: tuple[int, ...]) -> int:
    """Vertex mask of the matching's walk cover: its flower and posy halves."""
    n = graph.n
    full = (1 << n) - 1
    reach = _state_reach(graph, pairing)
    cover = 0
    for x, u in enumerate(pairing):
        r = reach[u]
        if u == x:
            cover |= r & r >> n & full
        elif r >> x & 1 and reach[x] >> u & 1:
            cover |= 1 << x
    return cover


def sd_vertices_bruteforce(
    graph: Graph, *, max_order: int = DEFAULT_CONFIG_ORDER
) -> frozenset[int]:
    """SD vertex set: the union of the walk covers of all maximum matchings.

    The matchings stop once the union covers every connected component
    that the first cover touches.  Proof that this is exact: the first
    cover holds every flower and posy vertex of its matching M, so an
    untouched component H is König–Egerváry by Sterboul–Deming, as M
    restricted to H is a maximum matching of H without a flower or posy;
    H then holds no SD vertex, and no cover, as the union is SD(G).  A
    graph without odd cycles stops after one matching, with the empty
    set.
    """
    _check_order(graph.n, max_order, "configuration-search")
    covered = 0
    ceiling = None
    for m in iter_maximum_matchings(graph, max_order=graph.n):  # its order checked above
        covered |= _walk_cover(graph, m.pairing)
        if ceiling is None:
            ceiling = 0
            for comp in connected_components(graph):
                mask = sum(1 << v for v in comp)
                if mask & covered:
                    ceiling |= mask
        if covered == ceiling:
            break
    return frozenset(_bit_indices(covered))
