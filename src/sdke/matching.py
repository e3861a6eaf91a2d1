"""Maximum matchings on general graphs, plus exhaustive enumeration.

The maximum-matching routine is Edmonds' augmenting-path search with
blossom contraction.  A root with a free neighbour is matched to the lowest
one directly.  Any other root's search costs O(V + E) plus the members of
the blossoms it merges: O(V·E) over all roots plus the relabels, which
nested blossoms can push to O(V^3).  Everything scans vertices and
neighbors in increasing id order, so results are deterministic for a
fixed graph.
The enumerators are meant for desk-scale oracle work and refuse graphs
above a configurable order bound.  One recursive generator yields the
matchings of a given size, pruned by the exact number of vertices such a
matching leaves unmatched; ``iter_perfect_matchings`` and
``iter_maximum_matchings`` run it at n/2 and at the matching number; the
CLI and the theorem suite iterate them.
"""

from __future__ import annotations

from typing import Iterable, Iterator

from .errors import MatchingError, _check_order
from .graph import Edge, Graph, _Record, _setattr

DEFAULT_ENUMERATION_ORDER = 16


class Matching(_Record, frozen=True):
    """A matching stored as an involution: pairing[v] is v's partner, or v.

    The representation makes the no-two-pairs-per-vertex property
    structural; validity against a host graph (matched pairs are edges)
    is checked by ``validate``.
    """

    __slots__ = ("pairing", "__weakref__")

    def __init__(self, pairing: Iterable[int]) -> None:
        p = tuple(pairing)
        for v, u in enumerate(p):
            if type(u) is not int:  # a bool would pass as 0 or 1, others raise TypeError
                raise MatchingError(f"partner {u!r} of vertex {v} is not an int")
            if not (0 <= u < len(p)) or p[u] != v:
                raise MatchingError(f"pairing is not an involution at vertex {v}")
        _setattr(self, "pairing", p)

    @property
    def n(self) -> int:
        return len(self.pairing)

    @property
    def size(self) -> int:
        return sum(1 for v, u in enumerate(self.pairing) if u != v) // 2

    @property
    def is_perfect(self) -> bool:
        return all(u != v for v, u in enumerate(self.pairing))

    def edge_pairs(self) -> list[Edge]:
        return [(v, u) for v, u in enumerate(self.pairing) if v < u]

    def contains_edge(self, e: tuple[int, int]) -> bool:
        """Whether e is a matched pair; ids that are not ints match nothing."""
        u, v = e
        return u != v and type(u) is type(v) is int and 0 <= u < self.n and self.pairing[u] == v

    def validate(self, graph: Graph) -> None:
        """Raise MatchingError unless every matched pair is an edge of graph."""
        if self.n != graph.n:
            raise MatchingError(
                f"matching over {self.n} vertices used with graph of order {graph.n}"
            )
        for u, v in self.edge_pairs():
            if not graph.has_edge(u, v):
                raise MatchingError(f"matched pair ({u},{v}) is not an edge")

    def __repr__(self) -> str:
        return f"Matching({self.edge_pairs()})"


def _require_matching(matching: object) -> None:
    """Raise MatchingError unless matching is a ``Matching``."""
    if not isinstance(matching, Matching):
        raise MatchingError(f"matching {matching!r} is not a Matching")


def _unchecked(pairing: tuple[int, ...]) -> Matching:
    # A matching the library built as an involution of ints: none of the
    # constructor's checks runs, as ``graph._derived`` does for graphs.
    matching = object.__new__(Matching)
    _setattr(matching, "pairing", pairing)
    return matching


def matching_from_edges(n: int, pairs: Iterable[tuple[int, int]]) -> Matching:
    """Build a Matching over n vertices from disjoint pairs of int ids."""
    if type(n) is not int:
        raise MatchingError(f"vertex count {n!r} is not an int")
    pairing = list(range(n))
    try:
        for u, v in pairs:
            if type(u) is not int or type(v) is not int:
                raise MatchingError(f"pair ({u!r},{v!r}) has a vertex that is not an int")
            if not (0 <= u < n) or not (0 <= v < n) or u == v:
                raise MatchingError(f"bad pair ({u},{v})")
            if pairing[u] != u or pairing[v] != v:
                raise MatchingError(f"pair ({u},{v}) reuses a matched vertex")
            pairing[u], pairing[v] = v, u
    except (TypeError, ValueError) as exc:  # not iterable, or an item not a pair
        bad = MatchingError("pairs are not an iterable of (u, v) pairs")
        raise exc if isinstance(exc, MatchingError) else bad from None
    return Matching(tuple(pairing))


def parse_matching(text: str, n: int) -> Matching:
    """Parse the matching text format: one 'u v' line per matched pair."""
    pairs = []
    for ln in text.splitlines():
        ln = ln.strip()
        if not ln or ln.startswith("#"):
            continue
        parts = ln.split()
        if len(parts) != 2:
            raise MatchingError(f"malformed matching line {ln!r}")
        try:
            pairs.append((int(parts[0]), int(parts[1])))
        except ValueError:
            raise MatchingError(f"malformed matching line {ln!r}") from None
    return matching_from_edges(n, pairs)


def maximum_matching(graph: Graph) -> Matching:
    """Maximum-cardinality matching via augmenting paths with blossoms.

    Free vertices are tried as search roots in increasing order, and
    adjacency is scanned sorted, so the returned matching is a
    deterministic function of the graph.

    A root with a free neighbour is matched to its lowest one at once.
    That is the search's own answer: it scans all of the root's
    neighbours before any queued vertex, and the first free one ends it.
    Any other root runs a breadth-first search with blossom contraction.
    It costs O(V + E) plus, per contraction, the members of the merged
    blossoms, because the search arrays are allocated once per call and
    reset only at the vertices the search reached.  A contraction appends
    its newly even vertices to the queue in increasing id order, the order
    the classic relabel loop over all n vertices gives, so each search
    visits vertices in the same order and flips the same augmenting path.

    The result is an involution by construction, so it is built without
    the ``Matching`` constructor's checks.
    """
    n = graph.n
    adj = graph.adjacency
    match = [-1] * n
    parent = [-1] * n
    base = list(range(n))
    even = [False] * n
    mark = [0] * n  # LCA paths and blossom flags, each under a fresh stamp
    stamp = 0

    def lowest_common_base(a: int, b: int) -> int:
        nonlocal stamp
        stamp += 1
        x = a
        while True:
            x = base[x]
            mark[x] = stamp
            if match[x] == -1:
                break
            x = parent[match[x]]
        y = b
        while True:
            y = base[y]
            if mark[y] == stamp:
                return y
            y = parent[match[y]]

    def mark_blossom(x: int, stop: int, child: int, flagged: list[int]) -> None:
        while base[x] != stop:
            for b in (base[x], base[match[x]]):
                if mark[b] != stamp:
                    mark[b] = stamp
                    flagged.append(b)
            parent[x] = child
            child = match[x]
            x = parent[child]

    def augment_from(root: int) -> None:
        nonlocal stamp
        reached = [root]  # every vertex whose parent, base or even flag may change
        members: dict[int, list[int]] = {}  # base -> its blossom, when contracted
        even[root] = True
        queue = [root]
        try:
            for v in queue:
                for w in adj[v]:
                    if base[v] == base[w] or match[v] == w:
                        continue
                    if w == root or (match[w] != -1 and parent[match[w]] != -1):
                        # Even-depth collision: contract the blossom.
                        stop = lowest_common_base(v, w)
                        stamp += 1
                        flagged: list[int] = []
                        mark_blossom(v, stop, w, flagged)
                        mark_blossom(w, stop, v, flagged)
                        blossom = members.setdefault(stop, [stop])
                        newly_even = []
                        for f in flagged:
                            group = members.pop(f, None) or [f]
                            for i in group:
                                base[i] = stop
                                if not even[i]:
                                    even[i] = True
                                    newly_even.append(i)
                            blossom += group
                        newly_even.sort()
                        queue += newly_even
                    elif parent[w] == -1:
                        parent[w] = v
                        reached.append(w)
                        if match[w] == -1:
                            # Augmenting path found: flip it.
                            x = w
                            while x != -1:
                                px = parent[x]
                                nxt = match[px]
                                match[x], match[px] = px, x
                                x = nxt
                            return
                        reached.append(match[w])
                        even[match[w]] = True
                        queue.append(match[w])
        finally:
            for x in reached:
                parent[x] = -1
                base[x] = x
                even[x] = False

    for v in range(n):
        if match[v] != -1:
            continue
        for w in adj[v]:
            if match[w] == -1:
                match[v], match[w] = w, v
                break
        else:
            augment_from(v)
    return _unchecked(tuple(v if m == -1 else m for v, m in enumerate(match)))


def matching_number(graph: Graph) -> int:
    return maximum_matching(graph).size


def is_matchable(graph: Graph) -> bool:
    """True iff the graph has a perfect matching."""
    return graph.n % 2 == 0 and matching_number(graph) * 2 == graph.n


def _matchings(graph: Graph, size: int) -> Iterator[Matching]:
    """Every matching with ``size`` edges, given that none has more.

    The lowest free vertex is paired with each free higher neighbour in
    turn, then left unmatched.  A matching of that size leaves exactly
    n - 2*size vertices unmatched, so a vertex is left unmatched only
    while fewer than that many have been: an exact prune.
    """
    n = graph.n
    slack = n - 2 * size
    pairing = list(range(n))
    free = [True] * n

    def rec(lowest: int, unmatched: int) -> Iterator[Matching]:
        while lowest < n and not free[lowest]:
            lowest += 1
        if lowest == n:
            yield _unchecked(tuple(pairing))
            return
        v = lowest
        for w in graph.adjacency[v]:
            if w > v and free[w]:
                free[v] = free[w] = False
                pairing[v], pairing[w] = w, v
                yield from rec(v + 1, unmatched)
                pairing[v], pairing[w] = v, w
                free[v] = free[w] = True
        if unmatched < slack:
            yield from rec(v + 1, unmatched + 1)

    return rec(0, 0)


def iter_perfect_matchings(
    graph: Graph, *, max_order: int = DEFAULT_ENUMERATION_ORDER
) -> Iterator[Matching]:
    """Perfect matchings one at a time, in deterministic order; the order
    bound is checked at the call, before any matching is built."""
    _check_order(graph.n, max_order, "enumeration")
    return iter(()) if graph.n % 2 else _matchings(graph, graph.n // 2)


def iter_maximum_matchings(
    graph: Graph, *, max_order: int = DEFAULT_ENUMERATION_ORDER
) -> Iterator[Matching]:
    """Maximum matchings one at a time, in deterministic order; the order
    bound is checked at the call, before any matching is built."""
    _check_order(graph.n, max_order, "enumeration")
    return _matchings(graph, matching_number(graph))
