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
    Matching,
    check_stability_under_deletion,
    delete_edge,
    iter_maximum_matchings,
    reachable_sets,
    sd_vertices_under,
    simple_odd_cycles,
)
from sdke.alternating import _bit_indices
from sdke.configurations import _blossoms, _covered, _cycle_table
from sdke.verification import CheckResult


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


def matching_invariance_per_matching(graph: Graph, matchings, partition_matching):
    """The theorem suite's invariance checks, by one ``reachable_sets`` per matching.

    Returns what ``verification._check_matching_invariance`` returns: the
    ``reachability_matching_invariance`` and
    ``partition_matching_independence`` results, and the reachable sets
    under partition_matching.  The reference reach is its own first call,
    and every matching, the first included, is compared with it, so a
    test can fault the reference apart from a matching's own sets; each
    matching's SD set is ``sd_from_reach`` of its own sets.
    """
    sd0 = sd_vertices_under(graph, matchings[0])
    reference = reachable_sets(graph, matchings[0])
    reach = invariance = independence = None
    for m in matchings:
        sets = reachable_sets(graph, m)
        if m == partition_matching:
            reach = sets
        if invariance is None and sets != reference:
            v = next(i for i, (a, b) in enumerate(zip(sets, reference)) if a != b)
            invariance = CheckResult(
                "reachability_matching_invariance",
                False,
                {
                    "vertex": v,
                    "matching_a": matchings[0].edge_pairs(),
                    "matching_b": m.edge_pairs(),
                    "reach_a": sorted(reference[v]),
                    "reach_b": sorted(sets[v]),
                },
            )
        sd = sd_from_reach(m, sets)
        if independence is None and sd != sd0:
            independence = CheckResult(
                "partition_matching_independence",
                False,
                {
                    "matching": m.edge_pairs(),
                    "sd": sorted(sd),
                    "sd_reference": sorted(sd0),
                },
            )
    return (
        invariance or CheckResult("reachability_matching_invariance", True),
        independence or CheckResult("partition_matching_independence", True),
        reach,
    )


def stability_per_edge(graph: Graph, part, max_order: int) -> CheckResult:
    """The theorem suite's stability check, by one public call per KE edge.

    Returns what ``verification._check_stability`` returns.  Each
    ``check_stability_under_deletion`` call recomputes the maximum
    matching and SD set of G, and takes the exhaustive route on every
    non-matchable G - e, even where SD(G) is empty.
    """
    skipped = []
    for u, v in graph.edges:
        if u not in part.ke_vertices or v not in part.ke_vertices:
            continue
        try:
            report = check_stability_under_deletion(graph, (u, v), max_order=max_order)
        except BoundExceededError as exc:
            skipped.append({"edge": (u, v), "bound": str(exc)})
            continue
        if not report.ok:
            return CheckResult(
                "stability_under_deletion",
                False,
                {
                    "edge": (u, v),
                    "avoidable": report.avoidable,
                    "sd_before": sorted(report.sd_before),
                    "sd_after": sorted(report.sd_after),
                },
            )
    if skipped:
        return CheckResult("stability_under_deletion", False, {"skipped": skipped})
    return CheckResult("stability_under_deletion", True)


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


def sd_vertices_stop_at_full(graph: Graph) -> frozenset[int]:
    """SD vertex set by configuration search without the odd-component ceiling.

    The same search as ``sd_vertices_bruteforce``, but it enumerates
    maximum matchings until the union is all of V or the matchings run
    out.
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
