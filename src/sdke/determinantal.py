"""Exact determinants and permanents of adjacency matrices.

Two independent routes are kept for each quantity: direct exact linear
algebra (fraction-free elimination for the determinant; for the
permanent, Glynn's form of the inclusion-exclusion sum or a row-by-row
DP over the open frontier columns, whichever a work estimate from the
graph's structure says is cheaper) and the component-census sum over
spanning subgraphs whose components are single edges or cycles.
For such a spanning subgraph S with c(S) cycle components and k_e(S)
components of even order,

    det(A(G))  = sum over S of (-1)^(k_e(S)) * 2^(c(S)),
    perm(A(G)) = sum over S of 2^(c(S)).

All arithmetic is over exact integers, so every equality check in this
package is literal.
"""

from __future__ import annotations

from math import comb, prod
from typing import Iterator

from .errors import _check_order
from .graph import Edge, Graph, _Record, _setattr
from .decomposition import SdKePartition, sd_ke_partition

DEFAULT_SACHS_ORDER = 20
DEFAULT_PERMANENT_ORDER = 22
# perm_adjacency's engine rule.  The ratio was calibrated on the parts of
# seeded n = 12 and n = 18 benchmark inputs and on random matchable graphs
# with n = 14-20; the state cap keeps the DP's dicts small.
_FRONTIER_RATIO = 0.3
_FRONTIER_STATES = 1 << 16


class SachsSubgraph(_Record, frozen=True):
    """A spanning subgraph whose components are single edges or cycles.

    k2_edges lists the single-edge components; cycles lists each cycle
    component as a vertex tuple starting at its smallest vertex, with the
    smaller neighbor second.
    """

    __slots__ = ("n", "k2_edges", "cycles")

    def __init__(self, n: int, k2_edges: tuple[Edge, ...], cycles: tuple[tuple[int, ...], ...]):
        _setattr(self, "n", n)
        _setattr(self, "k2_edges", k2_edges)
        _setattr(self, "cycles", cycles)

    @property
    def num_cycles(self) -> int:
        return len(self.cycles)

    @property
    def num_even_components(self) -> int:
        return len(self.k2_edges) + sum(1 for c in self.cycles if len(c) % 2 == 0)

    def vertices(self) -> set[int]:
        out: set[int] = set()
        for u, v in self.k2_edges:
            out.update((u, v))
        for c in self.cycles:
            out.update(c)
        return out

    def edges(self) -> set[Edge]:
        out = set(self.k2_edges)
        for c in self.cycles:
            for i in range(len(c)):
                a, b = c[i], c[(i + 1) % len(c)]
                out.add((a, b) if a < b else (b, a))
        return out


def enumerate_sachs(graph: Graph) -> Iterator[SachsSubgraph]:
    """Yield every Sachs subgraph exactly once, in deterministic order.

    Recursion always covers the lowest uncovered vertex, either by an
    edge to an uncovered neighbor or by a simple cycle through it; cycle
    orientation is canonicalized (second vertex below last), so no cover
    is produced twice.
    """
    _check_order(graph.n, DEFAULT_SACHS_ORDER, "Sachs enumeration")
    n = graph.n
    adj = graph.adjacency
    covered = [False] * n
    k2s: list[Edge] = []
    cycles: list[tuple[int, ...]] = []

    def emit() -> SachsSubgraph:
        return SachsSubgraph(n=n, k2_edges=tuple(k2s), cycles=tuple(cycles))

    def rec(lowest: int) -> Iterator[SachsSubgraph]:
        while lowest < n and covered[lowest]:
            lowest += 1
        if lowest == n:
            yield emit()
            return
        v = lowest
        covered[v] = True
        # Single-edge component: v's partner is any uncovered neighbor.
        for w in adj[v]:
            if not covered[w]:
                covered[w] = True
                k2s.append((v, w))
                yield from rec(v + 1)
                k2s.pop()
                covered[w] = False
        # Cycle component through v, built from paths over uncovered vertices.
        path = [v]

        def grow(x: int) -> Iterator[SachsSubgraph]:
            for y in adj[x]:
                if y == v and len(path) >= 3 and path[1] < path[-1]:
                    cycles.append(tuple(path))
                    yield from rec(v + 1)
                    cycles.pop()
                elif y > v and not covered[y]:
                    covered[y] = True
                    path.append(y)
                    yield from grow(y)
                    path.pop()
                    covered[y] = False

        yield from grow(v)
        covered[v] = False

    yield from rec(0)


def sachs_census(graph: Graph) -> tuple[int, int, int]:
    """(count, det, perm) from one pass over the Sachs subgraphs.

    Each Sachs subgraph S counts once, adds (-1)^(k_e(S)) * 2^(c(S)) to
    the determinant and 2^(c(S)) to the permanent.
    """
    count = det = perm = 0
    for s in enumerate_sachs(graph):
        weight = 1 << s.num_cycles
        count += 1
        det += -weight if s.num_even_components % 2 else weight
        perm += weight
    return count, det, perm


def det_adjacency(graph: Graph) -> int:
    """Exact determinant via fraction-free (Bareiss) elimination."""
    n = graph.n
    if n == 0:
        return 1
    if not all(graph.adjacency):  # a zero row; no n-by-n matrix for isolated vertices
        return 0
    m = [[0] * n for _ in range(n)]
    for u, v in graph.edges:
        m[u][v] = m[v][u] = 1
    sign = 1
    prev = 1
    for k in range(n - 1):
        if m[k][k] == 0:
            for r in range(k + 1, n):
                if m[r][k] != 0:
                    m[k], m[r] = m[r], m[k]
                    sign = -sign
                    break
            else:
                return 0
        pivot = m[k][k]
        for i in range(k + 1, n):
            row_i = m[i]
            row_k = m[k]
            factor = row_i[k]
            for j in range(k + 1, n):
                # Exact by the Bareiss identity: prev divides the numerator.
                row_i[j] = (row_i[j] * pivot - factor * row_k[j]) // prev
            row_i[k] = 0
        prev = pivot
    return sign * m[n - 1][n - 1]


def perm_adjacency(graph: Graph) -> int:
    """Exact permanent of the adjacency matrix, by the cheaper of two engines.

    A vertex without neighbours is a zero row, so such a graph answers 0
    at once.  Otherwise ``_frontier_plan`` orders the rows for the
    frontier DP and bounds its work, sum over rows t of C(f_t, k_t) *
    deg(row t), where k_t of the f_t open frontier columns are used
    before row t.  The DP runs when that bound is below
    ``_FRONTIER_RATIO`` * n * 2^(n-1), the cost model of Glynn's loop, and
    no row can leave more than ``_FRONTIER_STATES`` states; otherwise
    Glynn's loop runs.  Sparse and banded graphs such as paths, cycles and
    ladders take the DP; dense ones, K_n for n >= 4 among them, take
    Glynn.  Both engines are exact on Python integers.  The bound,
    ``DEFAULT_PERMANENT_ORDER`` = 22, caps Glynn at 2^21 terms, each
    further vertex doubling the work.  This is the route that
    ``sdke perm --method ryser`` selects.
    """
    n = graph.n
    _check_order(n, DEFAULT_PERMANENT_ORDER, "permanent")
    if n == 0:
        return 1
    if not all(graph.adjacency):
        return 0
    order, work, peak = _frontier_plan(graph)
    if peak <= _FRONTIER_STATES and work < _FRONTIER_RATIO * n * (1 << (n - 1)):
        return _perm_frontier(graph, order)
    return _perm_glynn(graph)


def _perm_glynn(graph: Graph) -> int:
    """Permanent via Glynn's form of the inclusion-exclusion sum.

    perm(A) = 2^(1-n) * sum over signs d with d_0 = +1 of
    (prod_j d_j) * prod_i (sum_j d_j a_ij), which has 2^(n-1) terms where
    Ryser's formula has 2^n.  The signs d_1..d_(n-1) are walked in
    Gray-code order, so each step negates one column; A is a symmetric 0/1
    matrix, so only the row sums of that vertex's neighbours change.
    """
    n = graph.n
    if n == 0:
        return 1
    adj = graph.adjacency
    row_sums = [len(nbrs) for nbrs in adj]  # every d_j = +1
    steps = [-2] * n  # the change to column j's rows when d_j next flips
    total = 0 if 0 in row_sums else prod(row_sums)
    for k in range(1, 1 << (n - 1)):
        j = (k & -k).bit_length()  # Gray code: d_j flips, j in 1..n-1
        step = steps[j]
        steps[j] = -step
        for i in adj[j]:
            row_sums[i] += step
        if 0 not in row_sums:
            # One sign flips per step, so prod_j d_j = (-1)^k.
            if k & 1:
                total -= prod(row_sums)
            else:
                total += prod(row_sums)
    return total >> (n - 1)  # exact: the sum is a multiple of 2^(n-1)


def _frontier_plan(graph: Graph) -> tuple[list[int], int, int]:
    """Row order for ``_perm_frontier``, its work bound and its state bound.

    Greedy: the next row is the one whose neighbours add the fewest
    columns not yet touched, the lowest vertex on ties.  A touched column
    is open until its last row in the order is done.  Before row t, k of
    the f open columns are used, so at most C(f, k) states enter it and
    each tries deg(row t) columns; the work bound sums C(f, k) * deg over
    the rows.  The state bound is the largest C(f', k + 1) after a row's
    step, f' counting the columns it opened.
    """
    adj = graph.adjacency
    nbrs = [sum(1 << y for y in ys) for ys in adj]
    left = list(range(graph.n))
    rows_left = [len(ys) for ys in adj]  # rows of column c not yet done
    order: list[int] = []
    touched = opened = used = work = peak = 0
    while left:
        r = min(left, key=lambda x: ((nbrs[x] & ~touched).bit_count(), x))
        left.remove(r)
        order.append(r)
        work += comb(opened, used) * len(adj[r])
        opened += (nbrs[r] & ~touched).bit_count()
        touched |= nbrs[r]
        used += 1
        peak = max(peak, comb(opened, used))
        for c in adj[r]:
            rows_left[c] -= 1
            if not rows_left[c]:
                opened -= 1
                used -= 1
    return order, work, peak


def _perm_frontier(graph: Graph, order: list[int]) -> int:
    """Permanent by a row-by-row DP over sets of used open columns.

    Rows are taken in the given order; ways[mask] counts the ways to give
    the rows done so far distinct columns such that mask is the set of
    used columns that still have a row to come.  When a column's last row
    is done, a state that has not used it can never use it and is
    dropped, and the column leaves the masks of the rest; that keeps at
    most C(f, k) states alive, as ``_frontier_plan`` counts them.  Exact
    for any order; the order only sets how many states are alive.
    """
    adj = graph.adjacency
    last_row = [0] * graph.n
    for r in order:
        for c in adj[r]:
            last_row[c] = r
    last = [0] * graph.n  # columns whose last row in the order is r
    for c, r in enumerate(last_row):
        last[r] |= 1 << c
    ways = {0: 1}
    for r in order:
        step: dict[int, int] = {}
        cols = [1 << c for c in adj[r]]
        for mask, count in ways.items():
            for bit in cols:
                if not mask & bit:
                    key = mask | bit
                    step[key] = step.get(key, 0) + count
        done = last[r]
        ways = {m ^ done: w for m, w in step.items() if m & done == done} if done else step
        if not ways:
            return 0
    return ways.get(0, 0)


class FactorizationReport(_Record):
    """Determinant/permanent values of a graph and of its SD and KE parts."""

    __slots__ = ("partition", "det_g", "det_sd", "det_ke", "det_product_ok",
                 "perm_g", "perm_sd", "perm_ke", "perm_product_ok")

    def __init__(
        self, partition: SdKePartition, det_g: int, det_sd: int, det_ke: int,
        det_product_ok: bool, perm_g: int | None = None, perm_sd: int | None = None,
        perm_ke: int | None = None, perm_product_ok: bool | None = None,
    ) -> None:
        self.partition, self.det_g, self.det_sd = partition, det_g, det_sd
        self.det_ke, self.det_product_ok, self.perm_g = det_ke, det_product_ok, perm_g
        self.perm_sd, self.perm_ke, self.perm_product_ok = perm_sd, perm_ke, perm_product_ok


def factorization_report(
    graph: Graph, *, include_permanent: bool = True
) -> FactorizationReport:
    """Separate the graph and check multiplicativity of det and perm.

    Determinants come from elimination and permanents from
    ``perm_adjacency``.  An empty part contributes the multiplicative
    identity 1, and the other part is then G itself, so it takes G's
    values rather than computing them again.  The permanent can be skipped
    for orders above its bound.  A graph without a perfect matching raises
    NotMatchableError.
    """
    part = sd_ke_partition(graph)
    parts = (part.sd_part, part.ke_part)
    det_g = det_adjacency(graph)
    det_sd, det_ke = (det_g if p.n == graph.n else det_adjacency(p) for p in parts)
    report = FactorizationReport(
        partition=part,
        det_g=det_g,
        det_sd=det_sd,
        det_ke=det_ke,
        det_product_ok=det_g == det_sd * det_ke,
    )
    if include_permanent:
        perm_g = perm_adjacency(graph)
        perm_sd, perm_ke = (perm_g if p.n == graph.n else perm_adjacency(p) for p in parts)
        report.perm_g, report.perm_sd, report.perm_ke = perm_g, perm_sd, perm_ke
        report.perm_product_ok = perm_g == perm_sd * perm_ke
    return report
