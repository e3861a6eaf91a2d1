"""Alternating-walk reachability and closed-walk certificates.

An alternating walk may repeat vertices and edges, so searching the walk
space directly would be exponential.  The right search space is the
product of vertices and the parity of the last edge used: a walk that
reaches vertex x twice with the same parity offers nothing new.  All
operations here run breadth-first search over these 2n states.

States are written (x, matched_last): matched_last is True when the walk
arrived at x through a matching edge.  Transitions:

* (x, True)  -> (y, False)  for every non-matching edge xy,
* (x, False) -> (M(x), True)  through x's matching edge.

A walk from v that starts with a matching edge therefore begins in state
(M(v), True), and "u is reachable by an mm-alternating walk from v" means
state (u, True) is reachable from there.
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


def walk_violation(graph: Graph, matching: Matching, walk: AlternatingWalk) -> str | None:
    """Reason the walk fails its invariants, or None if it is valid.

    Checks: known kind tag, at least one edge, endpoints in range,
    consecutive vertices adjacent, strict alternation of matching
    membership, and kind tag consistent with the first and last edges.
    """
    if walk.kind not in WALK_KINDS:
        return f"unknown kind {walk.kind!r}"
    vs = walk.vertices
    if len(vs) < 2:
        return "walk has no edges"
    if matching.n != graph.n:
        return "matching order does not match graph"
    for v in vs:
        if not (0 <= v < graph.n):
            return f"vertex {v} out of range"
    parities = []
    for a, b in zip(vs, vs[1:]):
        if not graph.has_edge(a, b):
            return f"({a},{b}) is not an edge"
        parities.append(matching.pairing[a] == b)
    for prev, cur in zip(parities, parities[1:]):
        if prev == cur:
            return "consecutive edges do not alternate"
    want_first = walk.kind[0] == "m"
    want_last = walk.kind[1] == "m"
    if parities[0] != want_first:
        return f"first edge does not match kind {walk.kind!r}"
    if parities[-1] != want_last:
        return f"last edge does not match kind {walk.kind!r}"
    return None


def verify_walk(graph: Graph, matching: Matching, walk: AlternatingWalk) -> bool:
    """Certificate checker: True iff the walk satisfies all its invariants."""
    try:
        matching.validate(graph)
    except ValueError:
        return False
    return walk_violation(graph, matching, walk) is None


def _require_perfect(graph: Graph, matching: Matching) -> None:
    matching.validate(graph)
    if not matching.is_perfect:
        raise NotMatchableError("operation requires a perfect matching")


def _state_search(
    graph: Graph, pairing: tuple[int, ...], starts: list[tuple[int, bool]]
) -> dict[tuple[int, bool], tuple[int, bool] | None]:
    """BFS over (vertex, matched_last) states; returns parent map.

    This is the package's one search of the state graph.  Every start
    state maps to None.  The pairing may leave vertices unsaturated
    (pairing[x] == x); such a vertex simply has no outgoing transition
    from its False state.  Backward reach needs no search of its own: the
    state graph is skew-symmetric under the parity flip, so the states
    that reach (x, p) are the flips of those reached from (x, not p).
    """
    parents: dict[tuple[int, bool], tuple[int, bool] | None] = dict.fromkeys(starts)
    queue = deque(parents)
    while queue:
        state = queue.popleft()
        x, matched_last = state
        if matched_last:
            for y in graph.adjacency[x]:
                if y != pairing[x]:
                    nxt = (y, False)
                    if nxt not in parents:
                        parents[nxt] = state
                        queue.append(nxt)
        else:
            y = pairing[x]
            if y != x:
                nxt = (y, True)
                if nxt not in parents:
                    parents[nxt] = state
                    queue.append(nxt)
    return parents


def reachable_set(graph: Graph, matching: Matching, v: int) -> frozenset[int]:
    """Vertices reachable from v by an mm-alternating walk.

    Requires a perfect matching: without one the result would depend on
    the matching chosen (consider an odd cycle), so the operation is not
    well defined.  Runs in O(V + E).
    """
    _require_perfect(graph, matching)
    if not (0 <= v < graph.n):
        raise GraphError(f"vertex {v} out of range")
    parents = _state_search(graph, matching.pairing, [(matching.pairing[v], True)])
    return frozenset(x for (x, matched_last) in parents if matched_last)


def has_mm_closed_walk(graph: Graph, matching: Matching, v: int) -> bool:
    """True iff an mm-alternating closed walk starts (and ends) at v."""
    return v in reachable_set(graph, matching, v)


def semi_jposy_witness(
    graph: Graph, matching: Matching, v: int
) -> AlternatingWalk | None:
    """Shortest mm-alternating closed walk at v, or None if there is none.

    The walk is reconstructed from BFS parents, so it is minimal in edge
    count; BFS visits each of the 2n states at most once, which bounds
    the witness length.  The result always passes verify_walk.
    """
    _require_perfect(graph, matching)
    if not (0 <= v < graph.n):
        raise GraphError(f"vertex {v} out of range")
    parents = _state_search(graph, matching.pairing, [(matching.pairing[v], True)])
    target = (v, True)
    if target not in parents:
        return None
    chain: list[int] = []
    state: tuple[int, bool] | None = target
    while state is not None:
        chain.append(state[0])
        state = parents[state]
    chain.append(v)  # the initial matched edge v -> M(v)
    chain.reverse()
    return AlternatingWalk(vertices=tuple(chain), kind="mm")
