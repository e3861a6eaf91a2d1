"""Brute-force oracles, independent of the library's algorithms.

Everything here favors obviousness over speed and is only ever applied
to small graphs.  These are the reference values the fast paths are
checked against.
"""

from __future__ import annotations

from collections import deque
from itertools import combinations, permutations

from sdke import Graph


def brute_matching_number(g: Graph) -> int:
    """Max matching size by memoized recursion on the free-vertex set."""
    memo: dict[int, int] = {}

    def rec(free: int) -> int:
        if free in memo:
            return memo[free]
        v = (free & -free).bit_length() - 1 if free else -1
        if v < 0:
            return 0
        rest = free & ~(1 << v)
        best = rec(rest)  # leave v unmatched
        for w in g.adjacency[v]:
            if free & (1 << w):
                best = max(best, 1 + rec(rest & ~(1 << w)))
        memo[free] = best
        return best

    return rec((1 << g.n) - 1)


def brute_perfect_matchings(g: Graph) -> set[frozenset]:
    """All perfect matchings as frozensets of edges, via combinations."""
    if g.n % 2 == 1:
        return set()
    out = set()
    for combo in combinations(g.edges, g.n // 2):
        verts = {x for e in combo for x in e}
        if len(verts) == g.n:
            out.add(frozenset(combo))
    return out


def brute_maximum_matchings(g: Graph) -> set[frozenset]:
    """All maximum matchings as frozensets of edges."""
    mu = brute_matching_number(g)
    out = set()
    for combo in combinations(g.edges, mu):
        verts = [x for e in combo for x in e]
        if len(set(verts)) == 2 * mu:
            out.add(frozenset(combo))
    return out


def brute_det(g: Graph) -> int:
    """Determinant by signed permutation expansion (n <= 8)."""
    n = g.n
    a = [[1 if g.has_edge(i, j) else 0 for j in range(n)] for i in range(n)]
    total = 0
    for perm in permutations(range(n)):
        term = 1
        for i in range(n):
            term *= a[i][perm[i]]
            if term == 0:
                break
        if term:
            total += _perm_sign(perm) * term
    return total


def brute_perm(g: Graph) -> int:
    """Permanent by permutation expansion (n <= 8)."""
    n = g.n
    a = [[1 if g.has_edge(i, j) else 0 for j in range(n)] for i in range(n)]
    total = 0
    for perm in permutations(range(n)):
        term = 1
        for i in range(n):
            term *= a[i][perm[i]]
            if term == 0:
                break
        total += term
    return total


def _perm_sign(perm) -> int:
    sign = 1
    seen = [False] * len(perm)
    for start in range(len(perm)):
        if seen[start]:
            continue
        length = 0
        x = start
        while not seen[x]:
            seen[x] = True
            x = perm[x]
            length += 1
        if length % 2 == 0:
            sign = -sign
    return sign


def brute_alpha(g: Graph) -> int:
    """Independence number by scanning all vertex subsets (n <= 12)."""
    best = 0
    vs = list(range(g.n))
    for size in range(g.n, best, -1):
        for combo in combinations(vs, size):
            if all(not g.has_edge(u, v) for u, v in combinations(combo, 2)):
                return size
    return 0


def brute_sachs_count(g: Graph) -> int:
    """Count spanning K2/cycle covers by scanning all edge subsets."""
    count = 0
    for size in range(g.num_edges + 1):
        for combo in combinations(g.edges, size):
            if _is_sachs(g.n, combo):
                count += 1
    return count


def _is_sachs(n: int, edges) -> bool:
    deg = [0] * n
    for u, v in edges:
        deg[u] += 1
        deg[v] += 1
    if any(d == 0 or d > 2 for d in deg):
        return False
    # Components must be single edges or cycles: every degree-2 vertex
    # lies on a cycle, every degree-1 vertex on a K2 whose mate also has
    # degree 1.
    adj = {v: [] for v in range(n)}
    for u, v in edges:
        adj[u].append(v)
        adj[v].append(u)
    seen = set()
    for s in range(n):
        if s in seen:
            continue
        comp = [s]
        seen.add(s)
        stack = [s]
        while stack:
            x = stack.pop()
            for y in adj[x]:
                if y not in seen:
                    seen.add(y)
                    comp.append(y)
                    stack.append(y)
        degs = sorted(deg[x] for x in comp)
        if len(comp) == 2:
            if degs != [1, 1]:
                return False
        elif len(comp) >= 3:
            if degs != [2] * len(comp):
                return False
        else:
            return False
    return True


def mm_reach_by_length_dp(g: Graph, pairing, v: int, max_edges: int) -> frozenset[int]:
    """Endpoints of mm-alternating walks from v, by layered length DP.

    Grows the set of (vertex, last-edge-matched) states one edge at a
    time, never pruning, so it is a literal walk enumeration collapsed by
    endpoint state.
    """
    if pairing[v] == v:
        return frozenset()
    reached = set()
    layer = {(pairing[v], True)}
    ever = set(layer)
    for _ in range(max_edges):
        reached |= {x for (x, m) in layer if m}
        nxt = set()
        for x, m in layer:
            if m:
                for y in g.adjacency[x]:
                    if y != pairing[x]:
                        nxt.add((y, False))
            elif pairing[x] != x:
                nxt.add((pairing[x], True))
        layer = nxt
        if layer <= ever:
            reached |= {x for (x, m) in layer if m}
            break
        ever |= layer
    reached |= {x for (x, m) in layer if m}
    return frozenset(reached)


def enumerate_mm_walks_tiny(g: Graph, pairing, v: int, max_edges: int) -> set[tuple]:
    """Every explicit mm-alternating walk from v, as vertex tuples.

    Exponential; only for graphs of a handful of vertices.
    """
    out: set[tuple] = set()

    def extend(seq: tuple, last_matched: bool) -> None:
        if len(seq) - 1 >= max_edges:
            return
        x = seq[-1]
        if last_matched:
            out.add(seq)
            for y in g.adjacency[x]:
                if y != pairing[x]:
                    extend(seq + (y,), False)
        else:
            y = pairing[x]
            if y != x:
                extend(seq + (y,), True)

    if pairing[v] != v:
        extend((v, pairing[v]), True)
    return out


def states_reaching_bfs(g: Graph, pairing, target: tuple[int, bool]) -> set[tuple[int, bool]]:
    """(vertex, matched_last) states that reach target, by predecessor BFS.

    Walks the state transitions backwards literally: (x, True) is entered
    from (M(x), False), and (x, False) from (z, True) for every
    non-matching neighbour z.  Unsaturated vertices (pairing[x] == x) have
    no matching edge to walk back along.
    """
    seen = {target}
    queue = deque([target])
    while queue:
        x, matched_last = queue.popleft()
        if matched_last:
            y = pairing[x]
            if y != x and (y, False) not in seen:
                seen.add((y, False))
                queue.append((y, False))
        else:
            for z in g.adjacency[x]:
                if z != pairing[x] and (z, True) not in seen:
                    seen.add((z, True))
                    queue.append((z, True))
    return seen
