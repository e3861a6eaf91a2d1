"""Brute-force oracles, independent of the library's algorithms.

Everything here favors obviousness over speed and is only ever applied
to small graphs.  These are the reference values the fast paths are
checked against.
"""

from __future__ import annotations

from collections import defaultdict, deque
from itertools import combinations, permutations

from sdke import (
    BoundExceededError,
    Graph,
    GraphError,
    Matching,
    SachsSubgraph,
    delete_edge,
    enumerate_sachs,
    iter_maximum_matchings,
    iter_perfect_matchings,
    matching_number,
)
from sdke.alternating import _bit_indices
from sdke.configurations import _state_reach
from sdke.graph import Edge


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


def column_subset_perm(g: Graph) -> int:
    """Permanent by dynamic programming over sets of used columns (n <= 16).

    Rows are assigned in order; ways[mask] counts the assignments of rows
    0..|mask|-1 to exactly the columns in mask, one column per row.
    """
    n = g.n
    a = [[1 if g.has_edge(i, j) else 0 for j in range(n)] for i in range(n)]
    ways = {0: 1}
    for i in range(n):
        nxt: dict[int, int] = {}
        for mask, count in ways.items():
            for j in range(n):
                if a[i][j] and not mask & (1 << j):
                    nxt[mask | (1 << j)] = nxt.get(mask | (1 << j), 0) + count
        ways = nxt
    return ways.get((1 << n) - 1, 0)


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


def independence_number(g: Graph) -> int:
    """Exact independence number by branch and bound over vertex bitsets.

    Exponential, but fast to n = 40 on the sparse parts the tests give
    it; checked against ``brute_alpha`` on small graphs.
    """
    closed = [1 << v for v in range(g.n)]
    for u, w in g.edges:
        closed[u] |= 1 << w
        closed[w] |= 1 << u

    best = 0

    def expand(mask: int, size: int) -> None:
        nonlocal best
        if mask == 0:
            best = max(best, size)
            return
        if size + mask.bit_count() <= best:
            return
        # Branch on a maximum-degree vertex of the remaining subgraph.
        v = max(_bit_indices(mask), key=lambda x: (closed[x] & mask).bit_count())
        expand(mask & ~closed[v], size + 1)
        expand(mask & ~(1 << v), size)

    expand((1 << g.n) - 1, 0)
    return best


def ke_status_by_alpha(part) -> list[bool]:
    """The verdicts of the suite's two KE checks, from independence numbers.

    The KE part must be Koenig-Egervary (alpha + mu = n) and the SD part
    must not be; an empty part passes either way.
    """
    ke, sd = part.ke_part, part.sd_part
    return [
        not ke.n or independence_number(ke) + matching_number(ke) == ke.n,
        not sd.n or independence_number(sd) + matching_number(sd) < sd.n,
    ]


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


def state_search(
    g: Graph, pairing, starts: list[tuple[int, bool]]
) -> dict[tuple[int, bool], tuple[int, bool] | None]:
    """BFS over (vertex, matched_last) states; returns the parent map.

    The definition-level search: (x, True) steps to (y, False) for every
    non-matching edge xy, and (x, False) to (M(x), True).  Every start
    state maps to None.  The pairing may leave vertices unsaturated
    (pairing[x] == x); such a vertex has no transition from its False
    state.
    """
    parents: dict[tuple[int, bool], tuple[int, bool] | None] = dict.fromkeys(starts)
    queue = deque(parents)
    while queue:
        state = queue.popleft()
        x, matched_last = state
        if matched_last:
            nxt = [(y, False) for y in g.adjacency[x] if y != pairing[x]]
        elif pairing[x] != x:
            nxt = [(pairing[x], True)]
        else:
            nxt = []
        for s in nxt:
            if s not in parents:
                parents[s] = state
                queue.append(s)
    return parents


def mm_reach_by_state_search(g: Graph, pairing, v: int) -> frozenset[int]:
    """Vertices reachable from v by an mm-alternating walk.

    The walk's first edge is v's matching edge, so the search starts at
    (M(v), True); u is reachable when (u, True) is.
    """
    reached = state_search(g, pairing, [(pairing[v], True)])
    return frozenset(x for (x, matched_last) in reached if matched_last)


def reach_by_state_search(g: Graph, matching: Matching) -> tuple[frozenset[int], ...]:
    """R(v) under matching for every vertex v, by one state search each."""
    return tuple(mm_reach_by_state_search(g, matching.pairing, v) for v in range(g.n))


def exists_max_matching_avoiding(g: Graph, e: tuple[int, int]) -> bool:
    """True iff some maximum matching avoids edge e, i.e. mu(G - e) = mu(G).

    Both matching numbers come from ``brute_matching_number``.  A pair
    that is not an edge of g raises GraphError.
    """
    return brute_matching_number(delete_edge(g, e)) == brute_matching_number(g)


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


def shortest_mm_closed_walk_bfs(g: Graph, pairing, v: int) -> int | None:
    """Edge count of a shortest mm-closed walk at v, or None if there is none.

    Plain BFS over (vertex, matched_last) states from (M(v), True), the
    state after the walk's first (matching) edge, until (v, True) is
    dequeued.
    """
    dist = {(pairing[v], True): 1}
    queue = deque(dist)
    while queue:
        state = queue.popleft()
        if state == (v, True):
            return dist[state]
        x, matched_last = state
        if matched_last:
            nxt = [(y, False) for y in g.adjacency[x] if y != pairing[x]]
        else:
            nxt = [(pairing[x], True)]
        for s in nxt:
            if s not in dist:
                dist[s] = dist[state] + 1
                queue.append(s)
    return None


def sd_split_per_pair_bfs(g: Graph, pairing) -> frozenset[int]:
    """SD vertex set by one search per vertex of every matched pair.

    A pair {v, M(v)} of a perfect matching is SD iff both members have an
    mm-closed walk; the rest is KE.
    """
    sd: set[int] = set()
    for v in range(g.n):
        u = pairing[v]
        if v < u and all(
            shortest_mm_closed_walk_bfs(g, pairing, x) is not None for x in (v, u)
        ):
            sd.update((v, u))
    return frozenset(sd)


def sd_from_reach(matching: Matching, reach) -> frozenset[int]:
    """SD set under matching, read off its reachable sets.

    v has an mm-closed walk iff v is in R(v), and a pair is SD iff both
    of its members have one.
    """
    return frozenset(
        v for v, w in enumerate(matching.pairing) if v in reach[v] and w in reach[w]
    )


def matching_invariance_per_matching(graph: Graph, matchings, part):
    """The suite's per-matching checks, by one ``reach_by_state_search`` per matching.

    Returns what ``verification._matching_faults`` returns: the
    counterexamples of ``reachability_matching_invariance`` and
    ``partition_matching_independence``, each None when the check passes,
    and the reachable sets under the partition's matching.  The
    reference reach is its own first call, and every matching is compared
    with it, so a test can fault the reference apart from a matching's own
    sets; each matching's SD set is ``sd_from_reach`` of its own sets and
    is compared with ``part.sd_vertices``.
    """
    reach = reach_by_state_search(graph, part.matching)
    invariance = independence = None
    for m in matchings:
        sets = reach_by_state_search(graph, m)
        if invariance is None and sets != reach:
            v = next(i for i, (a, b) in enumerate(zip(sets, reach)) if a != b)
            invariance = {
                "vertex": v,
                "matching_a": part.matching.edge_pairs(),
                "matching_b": m.edge_pairs(),
                "reach_a": sorted(reach[v]),
                "reach_b": sorted(sets[v]),
            }
        sd = sd_from_reach(m, sets)
        if independence is None and sd != part.sd_vertices:
            independence = {
                "matching": m.edge_pairs(),
                "sd": sorted(sd),
                "sd_reference": sorted(part.sd_vertices),
            }
    return invariance, independence, reach


def matched_cut_edge(matchings, cut):
    """The first (edge, matching) with a cut edge in the matching, or None,
    by asking every matching about every cut edge."""
    for m in matchings:
        for e in sorted(cut):
            if m.contains_edge(e):
                return e, m
    return None


def sachs_cut_disjointness(
    graph: Graph, cut: frozenset[Edge]
) -> tuple[bool, tuple[SachsSubgraph, Edge] | None]:
    """Check that no Sachs subgraph uses an edge of the given cut.

    The cut is normally the SD-KE cut, sd_ke_partition(graph).cut.
    Returns (True, None) when the separation property holds; otherwise the
    offending subgraph and edge come back as a counterexample witness.
    A cut entry that is not an edge of graph, in its (min, max) form,
    raises GraphError.
    """
    stray = cut - graph.edge_set
    if stray:
        raise GraphError(f"cut edge {min(stray)} is not an edge of the graph")
    if cut:
        for s in enumerate_sachs(graph):
            hit = s.edges() & cut
            if hit:
                return False, (s, min(hit))
    return True, None


# The blossom-by-blossom configuration search, the reference for the
# library's walk cover: every simple odd cycle listed once per graph as a
# row of bitsets, the blossoms of each maximum matching picked from the
# rows by matched-edge popcount, and the flowers and posies built on them
# read from the matching's state reach.

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


def blossoms_by_cycle_scan(
    g: Graph, matching: Matching, odd_cycles: list[tuple[int, ...]]
) -> list[tuple[frozenset[int], int]]:
    """(vertex set, base) of every blossom, by walking each cycle's edges.

    A cycle of length 2k+1 is a blossom when the matched cycle edges cover
    2k of its vertices; the one left over is the base.
    """
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


def configuration_vertices_by_state_search(
    g: Graph, matching: Matching, odd_cycles: list[tuple[int, ...]]
) -> frozenset[int]:
    """Vertices on some flower or posy, by one state search per walk start.

    Forward reach comes from a search per matched base and per exposed
    vertex's stem; backward reach into (b, True) is the parity flip of the
    search from (b, False).  A walk's vertices are those with a state in
    both.
    """
    pairing = matching.pairing
    by_base: dict[int, set[int]] = defaultdict(set)
    for verts, base in blossoms_by_cycle_scan(g, matching, odd_cycles):
        by_base[base].update(verts)
    if not by_base:
        return frozenset()
    bases = sorted(by_base)
    exposed = [v for v in range(g.n) if pairing[v] == v]

    fwd_base = {
        b: state_search(g, pairing, [(pairing[b], True)])
        for b in bases
        if pairing[b] != b
    }
    bwd_base = {
        b: {(x, not p) for (x, p) in state_search(g, pairing, [(b, False)])}
        for b in bases
    }
    covered: set[int] = set()

    def add_walk_vertices(fwd, bwd) -> None:
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
        fwd = state_search(g, pairing, [(y, False) for y in g.adjacency[r]])
        for b in bases:
            if b == r:
                covered |= by_base[b]
            elif (b, True) in fwd:
                covered |= by_base[b]
                covered.add(r)
                add_walk_vertices(fwd, bwd_base[b])
    return frozenset(covered)


def sd_vertices_by_search(g: Graph, *, max_order: int = 12) -> frozenset[int]:
    """SD vertex set of any graph, by explicit searches over its matchings.

    A matchable graph takes one closed-walk search per vertex of every
    pair of its first perfect matching (``sd_split_per_pair_bfs``); any
    other graph the union of ``configuration_vertices_by_state_search``
    over all its maximum matchings, which raises BoundExceededError above
    max_order vertices (the theorem suite's default is 12) or on too many
    odd cycles.
    """
    if 2 * brute_matching_number(g) == g.n:
        first = next(iter_perfect_matchings(g, max_order=g.n))
        return sd_split_per_pair_bfs(g, first.pairing)
    cycles = simple_odd_cycles(g)
    return frozenset().union(*(
        configuration_vertices_by_state_search(g, m, cycles)
        for m in iter_maximum_matchings(g, max_order=max_order)
    ))


def stability_per_edge(graph: Graph, max_order: int) -> dict | None:
    """The theorem suite's stability check, recomputed per KE edge.

    Returns what ``verification._stability_fault`` returns, from its own
    routes: SD(G) and every SD(G - e) by ``sd_vertices_by_search``, and
    mu(G - e) by ``brute_matching_number``.  It computes SD(G - e) for
    every KE edge, even where the verdict cannot depend on it, so it could
    list an edge as skipped that the loop never searches; no graph the
    tests use has one.
    """
    sd_before = sd_vertices_by_search(graph, max_order=max_order)
    mu = brute_matching_number(graph)
    skipped = []
    for u, v in graph.edges:
        if u in sd_before or v in sd_before:
            continue
        smaller = delete_edge(graph, (u, v))
        avoidable = brute_matching_number(smaller) == mu
        try:
            sd_after = sd_vertices_by_search(smaller, max_order=max_order)
        except BoundExceededError as exc:
            skipped.append({"edge": (u, v), "bound": str(exc)})
            continue
        if not sd_before <= sd_after or (avoidable and sd_before != sd_after):
            return {
                "edge": (u, v),
                "avoidable": avoidable,
                "sd_before": sorted(sd_before),
                "sd_after": sorted(sd_after),
            }
    return {"skipped": skipped} if skipped else None


def sd_vertices_stop_at_full(graph: Graph) -> frozenset[int]:
    """SD vertex set by the blossom-by-blossom search, without a ceiling.

    The union of the flower and posy vertices of each maximum matching,
    from the cycle table, until it is all of V or the matchings run out.
    It takes nothing from ``configurations`` but its state reach.
    """
    bits, rows = _cycle_table(graph, simple_odd_cycles(graph))
    full = (1 << graph.n) - 1
    covered = 0
    for m in iter_maximum_matchings(graph, max_order=graph.n):
        covered |= _covered(graph, m.pairing, _blossoms(rows, bits, m.pairing))
        if covered == full:
            break
    return frozenset(_bit_indices(covered))


def maximum_matching_full_reset(graph: Graph) -> Matching:
    """Edmonds' search with fresh per-root arrays and an all-vertex relabel.

    Each root allocates its own length-n arrays, and each contraction
    relabels by scanning all n vertices: O(V^3), with no state carried
    between searches.  ``maximum_matching`` must return this pairing
    exactly, not just a matching of the same size.
    """
    n = graph.n
    adj = graph.adjacency
    match = [-1] * n

    def augment_from(root: int) -> bool:
        parent = [-1] * n
        base = list(range(n))
        in_tree = [False] * n
        in_tree[root] = True
        queue = deque([root])

        def lowest_common_base(a: int, b: int) -> int:
            on_path = [False] * n
            x = a
            while True:
                x = base[x]
                on_path[x] = True
                if match[x] == -1:
                    break
                x = parent[match[x]]
            y = b
            while True:
                y = base[y]
                if on_path[y]:
                    return y
                y = parent[match[y]]

        def mark_blossom(x: int, stop: int, child: int, flag: list[bool]) -> None:
            while base[x] != stop:
                flag[base[x]] = True
                flag[base[match[x]]] = True
                parent[x] = child
                child = match[x]
                x = parent[match[x]]

        while queue:
            v = queue.popleft()
            for w in adj[v]:
                if base[v] == base[w] or match[v] == w:
                    continue
                if w == root or (match[w] != -1 and parent[match[w]] != -1):
                    # Even-depth collision: contract the blossom.
                    stop = lowest_common_base(v, w)
                    flag = [False] * n
                    mark_blossom(v, stop, w, flag)
                    mark_blossom(w, stop, v, flag)
                    for i in range(n):
                        if flag[base[i]]:
                            base[i] = stop
                            if not in_tree[i]:
                                in_tree[i] = True
                                queue.append(i)
                elif parent[w] == -1:
                    parent[w] = v
                    if match[w] == -1:
                        # Augmenting path found: flip it.
                        x: int = w
                        while x != -1:
                            px = parent[x]
                            nxt = match[px]
                            match[x], match[px] = px, x
                            x = nxt
                        return True
                    in_tree[match[w]] = True
                    queue.append(match[w])
        return False

    for v in range(n):
        if match[v] == -1:
            augment_from(v)
    return Matching(tuple(v if m == -1 else m for v, m in enumerate(match)))
