"""Alternating-walk reachability and closed-walk certificates.

An alternating walk may repeat vertices and edges, so searching the walk
space directly would be exponential.  The right search space is the
product of vertices and the parity of the last edge used: a walk that
reaches vertex x twice with the same parity offers nothing new.

States are written (x, matched_last): matched_last is True when the walk
arrived at x through a matching edge.  Transitions:

* (x, True)  -> (y, False)  for every non-matching edge xy,
* (x, False) -> (M(x), True)  through x's matching edge.

A walk from v that starts with a matching edge therefore begins in state
(M(v), True), and "u is reachable by an mm-alternating walk from v" means
state (u, True) is reachable from there.

Under a perfect matching each False state is a pure chain link, so the
True states alone form a digraph D on the vertices: an arc x -> M(y) for
every non-matching neighbour y of x.  Every search here runs over D: u
is reachable from v iff M(v) reaches u in D, and v has an mm-closed walk
iff M(v) reaches v.  D is skew-symmetric under M (x -> z iff
M(z) -> M(x)), like a 2-SAT implication graph, so one strong-component
pass decides every vertex at once.  The same pass gives every
reachable set (``_component_reach``, the theorem suite's reference; its
output is Θ(n²), so only the one-vertex set is public): components are
numbered sinks first, so a sweep in increasing component number finds
the reach of each successor already complete, and a component reaches
its own members plus the reach of every component its arcs enter (a
bitset OR per arc of the condensation).  One BFS over D from M(v) gives
v's reachable set alone, or, stopped as soon as v is reached, its
shortest closed walk.  The walks at every SD vertex come from bitset
level sweeps, one per strong component and block of targets, which
rebuild the same walks without a search per vertex.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass

from .errors import GraphError, NotMatchableError
from .graph import Graph
from .matching import Matching

WALK_KINDS = ("mm", "nn", "mn", "nm")


@dataclass(frozen=True)
class AlternatingWalk:
    """A checkable walk certificate: vertex sequence plus a kind tag.

    The kind records the matching membership of the first and last edges
    ('m' for matching, 'n' for non-matching), e.g. "mm" starts and ends
    with matching edges.
    """

    vertices: tuple[int, ...]
    kind: str

    @property
    def num_edges(self) -> int:
        return len(self.vertices) - 1

    @property
    def is_closed(self) -> bool:
        return len(self.vertices) >= 2 and self.vertices[0] == self.vertices[-1]

    def __repr__(self) -> str:
        return f"AlternatingWalk({','.join(map(str, self.vertices))}; {self.kind})"


def verify_walk(graph: Graph, matching: Matching, walk: AlternatingWalk) -> bool:
    """Certificate checker: True iff the walk satisfies all its invariants.

    The matching is one of the graph, the kind tag is known, and the walk
    has an edge, int vertices in range, consecutive vertices adjacent,
    strictly alternating matching membership, and end edges as tagged.
    """
    try:
        matching.validate(graph)
    except ValueError:
        return False
    vs = walk.vertices
    if walk.kind not in WALK_KINDS or len(vs) < 2:
        return False
    for v in vs:
        if type(v) is not int or not 0 <= v < graph.n:
            return False
    parities = []
    for a, b in zip(vs, vs[1:]):
        if not graph.has_edge(a, b):
            return False
        parities.append(matching.pairing[a] == b)
    if any(p == q for p, q in zip(parities, parities[1:])):
        return False
    return parities[0] == (walk.kind[0] == "m") and parities[-1] == (walk.kind[1] == "m")


def _perfect_pairing(graph: Graph, matching: Matching) -> tuple[int, ...]:
    """The pairing of matching, after checking it is a perfect matching of graph.

    One pass asks of each vertex u with partner v that v < u, or that
    v > u and uv is an edge.  Only a matching that fails it is handed to
    ``Matching.validate``, so a matched non-edge is still reported as a
    MatchingError before a missing partner.
    """
    pairing = matching.pairing
    edges = graph.edge_set
    if matching.n == graph.n:
        for u, v in enumerate(pairing):
            if not (v < u or v > u and (u, v) in edges):
                break
        else:
            return pairing
    matching.validate(graph)
    raise NotMatchableError(
        "SD-KE separation requires a graph with a perfect matching"
    )


def reachable_set(graph: Graph, matching: Matching, v: int) -> frozenset[int]:
    """Vertices reachable from v by an mm-alternating walk.

    Requires a perfect matching: without one the result would depend on
    the matching chosen (consider an odd cycle), so the operation is not
    well defined.  The vertices a BFS over D from M(v) reaches, the
    search of ``_closed_walk`` without its stop at v: O(V + E).
    """
    pairing = _perfect_pairing(graph, matching)
    if type(v) is not int or not 0 <= v < graph.n:
        raise GraphError(f"vertex {v!r} is not an int in 0..{graph.n - 1}")
    return frozenset(_bfs(_arcs(graph, pairing), pairing[v]))


def _component_reach(arcs: list[list[int]]) -> tuple[list[int], list[int]]:
    """Strong component of every vertex, and every component's reach.

    A reach is a bitset with bit x for each vertex x the component's
    members reach, themselves included.  One sweep over the vertices in
    increasing component number finds each successor's reach complete
    (``_strong_components`` numbers sinks first), so a component's reach
    is its own members plus an OR per arc.  An arc inside the component
    ORs in the part of its own reach built so far, which changes nothing.
    """
    comp = _strong_components(arcs)
    reach = [0] * (max(comp, default=-1) + 1)
    for x in sorted(range(len(arcs)), key=comp.__getitem__):
        bits = reach[comp[x]] | 1 << x
        for z in arcs[x]:
            bits |= reach[comp[z]]
        reach[comp[x]] = bits
    return comp, reach


def _bit_indices(bits: int) -> list[int]:
    """Positions of the set bits, in increasing order."""
    out = []
    while bits:
        low = bits & -bits
        out.append(low.bit_length() - 1)
        bits ^= low
    return out


def has_mm_closed_walk(graph: Graph, matching: Matching, v: int) -> bool:
    """True iff an mm-alternating closed walk starts (and ends) at v."""
    return semi_jposy_witness(graph, matching, v) is not None


def semi_jposy_witness(
    graph: Graph, matching: Matching, v: int
) -> AlternatingWalk | None:
    """Shortest mm-alternating closed walk at v, or None if there is none.

    The walk is reconstructed from BFS parents, so it is minimal in edge
    count; BFS visits each vertex of D at most once, which bounds the
    witness length.  The result always passes verify_walk.
    """
    pairing = _perfect_pairing(graph, matching)
    if type(v) is not int or not 0 <= v < graph.n:
        raise GraphError(f"vertex {v!r} is not an int in 0..{graph.n - 1}")
    return _closed_walk(_arcs(graph, pairing), pairing, v)


def _arcs(graph: Graph, pairing: tuple[int, ...]) -> list[list[int]]:
    """Out-arcs of D: x -> M(y) for each non-matching neighbour y of x."""
    return [
        [pairing[y] for y in nbrs if y != pairing[x]]
        for x, nbrs in enumerate(graph.adjacency)
    ]


def _strong_components(arcs: list[list[int]]) -> list[int]:
    """Component number of every vertex, by one iterative Tarjan pass.

    Components are numbered in completion order, so sink components come
    first: whenever x reaches z, comp[x] >= comp[z].
    """
    n = len(arcs)
    index = [-1] * n
    low = [0] * n
    comp = [-1] * n
    stack: list[int] = []
    visited = found = 0
    for root in range(n):
        if index[root] >= 0:
            continue
        index[root] = low[root] = visited
        visited += 1
        stack.append(root)
        work = [(root, iter(arcs[root]))]
        while work:
            x, targets = work[-1]
            for z in targets:
                if index[z] < 0:
                    index[z] = low[z] = visited
                    visited += 1
                    stack.append(z)
                    work.append((z, iter(arcs[z])))
                    break
                if comp[z] < 0 and index[z] < low[x]:  # z is still on the stack
                    low[x] = index[z]
            else:
                work.pop()
                if work and low[x] < low[work[-1][0]]:
                    low[work[-1][0]] = low[x]
                if low[x] == index[x]:
                    while True:
                        z = stack.pop()
                        comp[z] = found
                        if z == x:
                            break
                    found += 1
    return comp


def _bfs(arcs: list[list[int]], start: int, stop: int = -1) -> dict[int, int]:
    """BFS parent of every vertex of D that start reaches; start is its own.

    The search ends as soon as stop is reached, so by default it runs
    until the queue is empty.
    """
    parent = {start: start}
    queue = deque([start])
    while queue and stop not in parent:
        x = queue.popleft()
        for z in arcs[x]:
            if z not in parent:
                parent[z] = x
                queue.append(z)
                if z == stop:
                    break
    return parent


def _closed_walk(
    arcs: list[list[int]], pairing: tuple[int, ...], v: int
) -> AlternatingWalk | None:
    """Shortest mm-closed walk at v by BFS over D from M(v), or None.

    The search stops as soon as v is reached.  Each tree arc x -> z
    expands to the walk steps x, M(z), z (a non-matching edge, then a
    matching one).  Of all shortest M(v) -> v paths, the BFS tree holds
    the one whose sequence of arc positions is lexicographically smallest:
    by induction on depth, the queue holds each level in that order, and
    a vertex's parent is the first vertex of the level above with an arc
    to it.  ``_closed_walks`` rebuilds exactly this path.
    """
    start = pairing[v]
    parent = _bfs(arcs, start, v)
    if v not in parent:
        return None
    chain = [v]
    z = v
    while z != start:
        chain += (pairing[z], parent[z])
        z = parent[z]
    chain.append(v)  # the initial matched edge v -> M(v)
    chain.reverse()
    return AlternatingWalk(vertices=tuple(chain), kind="mm")


_BLOCK = 512  # target bits per sweep; bounds each stored row to 64 bytes
_DEPTH = 64  # levels per block sweep; deeper targets take the one-vertex BFS


def _closed_walks(
    arcs: list[list[int]],
    comp: list[int],
    pairing: tuple[int, ...],
    sd: frozenset[int],
) -> dict[int, AlternatingWalk]:
    """The ``_closed_walk`` of every vertex of sd, by bitset level sweeps.

    sd must be a union of strong components, each holding its members'
    partners.  Every M(v) -> v path stays inside v's component, so each
    component is handled alone, on local indices, with its targets in
    blocks of at most ``_BLOCK`` bits.  Level k holds, for every member x,
    the bits of the block's targets within k arcs of x: level 0 is x's own
    bit, and level k ORs x's row of level k - 1 with the rows its arcs
    enter.  d(v) is the first level at which M(v)'s row holds v.  The walk
    then starts at M(v) and, with r arcs left, takes the first arc whose
    target has v within r - 1 arcs; that is the lexicographically
    smallest shortest path, the one ``_closed_walk`` returns.  A block
    keeps at most ``_DEPTH`` levels, each a row per member: deeper levels
    would save little over a BFS per target while their memory kept
    growing, so the targets still unreached then take ``_closed_walk``.
    """
    order = sorted(sd)
    members: dict[int, list[int]] = {}
    for v in order:
        members.setdefault(comp[v], []).append(v)
    pos = [0] * len(arcs)
    walks: dict[int, AlternatingWalk] = {}
    for c, xs in members.items():
        for i, x in enumerate(xs):
            pos[x] = i
        local = [[pos[z] for z in arcs[x] if comp[z] == c] for x in xs]
        for lo in range(0, len(xs), _BLOCK):
            targets = xs[lo:lo + _BLOCK]
            level = [0] * len(xs)
            for j in range(len(targets)):
                level[lo + j] = 1 << j
            levels = [level]
            starts = [pos[pairing[v]] for v in targets]
            dist = [0] * len(targets)
            pending = range(len(targets))
            while pending and len(levels) <= _DEPTH:
                prev = level
                level = []
                for row, out in zip(prev, local):
                    for z in out:
                        row |= prev[z]
                    level.append(row)
                levels.append(level)
                for j in pending:
                    if level[starts[j]] >> j & 1:
                        dist[j] = len(levels) - 1
                pending = [j for j in pending if not dist[j]]
            for j, v in enumerate(targets):
                if not dist[j]:
                    walks[v] = _closed_walk(arcs, pairing, v)
                    continue
                x = starts[j]
                chain = [v, pairing[v]]
                for r in range(dist[j] - 1, -1, -1):
                    row = levels[r]
                    for z in local[x]:
                        if row[z] >> j & 1:
                            break
                    x = z
                    chain += (pairing[xs[x]], xs[x])
                walks[v] = AlternatingWalk(vertices=tuple(chain), kind="mm")
    return {v: walks[v] for v in order}
