"""Reference computations the benchmark checks answers against.

Nothing here imports sdke, so no check runs through the code it checks.
Graphs are given as per-vertex neighbour lists and a perfect matching as a
pairing array (pairing[v] is v's partner).
"""

from __future__ import annotations

from collections import defaultdict


def parse_edge_list(text: str) -> tuple[int, list[tuple[int, int]]]:
    """(n, edges) of the edge-list text the generator writes."""
    lines = text.split("\n")
    n, m = map(int, lines[0].split())
    edges = [tuple(map(int, ln.split())) for ln in lines[1 : m + 1]]
    return n, edges


def adjacency(n: int, edges) -> list[list[int]]:
    adj: list[list[int]] = [[] for _ in range(n)]
    for u, v in edges:
        adj[u].append(v)
        adj[v].append(u)
    return adj


def has_mm_closed_walk(adj, pairing, v: int) -> bool:
    """BFS over (vertex, arrived-by-matching-edge) states from (M(v), True)."""
    start = (pairing[v], True)
    seen = {start}
    frontier = [start]
    while frontier:
        nxt = []
        for x, matched_last in frontier:
            if matched_last:
                steps = [(y, False) for y in adj[x] if y != pairing[x]]
            else:
                steps = [(pairing[x], True)]
            for s in steps:
                if s not in seen:
                    seen.add(s)
                    nxt.append(s)
        frontier = nxt
    return (v, True) in seen


def sd_vertices(adj, pairing) -> frozenset[int]:
    """SD vertex set by one strongly-connected-component pass.

    In the digraph with an arc x -> M(y) for every non-matching neighbour y
    of x, v has an mm-alternating closed walk iff M(v) reaches v, so the
    pair {v, M(v)} is SD iff both lie in one strong component.  Iterative
    Tarjan, O(n + m).
    """
    n = len(adj)
    succ = [[pairing[y] for y in adj[x] if y != pairing[x]] for x in range(n)]
    index = [-1] * n
    low = [0] * n
    comp = [-1] * n
    on_stack = [False] * n
    stack: list[int] = []
    counter = 0
    for root in range(n):
        if index[root] != -1:
            continue
        index[root] = low[root] = counter
        counter += 1
        stack.append(root)
        on_stack[root] = True
        work = [(root, 0)]
        while work:
            x, i = work[-1]
            if i < len(succ[x]):
                work[-1] = (x, i + 1)
                y = succ[x][i]
                if index[y] == -1:
                    index[y] = low[y] = counter
                    counter += 1
                    stack.append(y)
                    on_stack[y] = True
                    work.append((y, 0))
                elif on_stack[y]:
                    low[x] = min(low[x], index[y])
                continue
            work.pop()
            if work:
                parent = work[-1][0]
                low[parent] = min(low[parent], low[x])
            if low[x] == index[x]:
                while True:
                    y = stack.pop()
                    on_stack[y] = False
                    comp[y] = x
                    if y == x:
                        break
    return frozenset(v for v in range(n) if comp[v] == comp[pairing[v]])


def input_stats(n: int, edges, pairing) -> tuple[float, int]:
    """(KE share of the vertices, number of SD-KE cut edges) of one input."""
    sd = sd_vertices(adjacency(n, edges), pairing)
    cut = sum(1 for u, v in edges if (u in sd) != (v in sd))
    return (n - len(sd)) / n if n else 0.0, cut


def permanent(n: int, adj) -> int:
    """Permanent of a 0/1 adjacency matrix by DP over used-column subsets."""
    ways = {0: 1}
    for row in range(n):
        nxt: dict[int, int] = defaultdict(int)
        for used, count in ways.items():
            for col in adj[row]:
                bit = 1 << col
                if not used & bit:
                    nxt[used | bit] += count
        ways = nxt
    return ways.get((1 << n) - 1, 0)
