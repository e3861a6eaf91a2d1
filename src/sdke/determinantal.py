"""Exact determinants and permanents of adjacency matrices.

Two independent routes are kept for each quantity: direct exact linear
algebra (fraction-free elimination for the determinant, Glynn's form of
the inclusion-exclusion sum for the permanent) and the component-census
sum over spanning subgraphs whose components are single edges or cycles.
For such a spanning subgraph S with c(S) cycle components and k_e(S)
components of even order,

    det(A(G))  = sum over S of (-1)^(k_e(S)) * 2^(c(S)),
    perm(A(G)) = sum over S of 2^(c(S)).

All arithmetic is over exact integers, so every equality check in this
package is literal.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import prod
from typing import Iterator

from .errors import BoundExceededError
from .graph import Edge, Graph
from .decomposition import SdKePartition, sd_ke_partition

DEFAULT_SACHS_ORDER = 20
DEFAULT_PERMANENT_ORDER = 22


@dataclass(frozen=True)
class SachsSubgraph:
    """A spanning subgraph whose components are single edges or cycles.

    k2_edges lists the single-edge components; cycles lists each cycle
    component as a vertex tuple starting at its smallest vertex, with the
    smaller neighbor second.
    """

    n: int
    k2_edges: tuple[Edge, ...]
    cycles: tuple[tuple[int, ...], ...]

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


def enumerate_sachs(
    graph: Graph, *, max_order: int = DEFAULT_SACHS_ORDER
) -> Iterator[SachsSubgraph]:
    """Yield every Sachs subgraph exactly once, in deterministic order.

    Recursion always covers the lowest uncovered vertex, either by an
    edge to an uncovered neighbor or by a simple cycle through it; cycle
    orientation is canonicalized (second vertex below last), so no cover
    is produced twice.
    """
    if graph.n > max_order:
        raise BoundExceededError(
            f"graph order {graph.n} exceeds Sachs enumeration bound {max_order}"
        )
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


def det_via_sachs(graph: Graph, *, max_order: int = DEFAULT_SACHS_ORDER) -> int:
    """Determinant by the signed component-census sum over Sachs subgraphs."""
    return sum(
        (-1) ** s.num_even_components * 2**s.num_cycles
        for s in enumerate_sachs(graph, max_order=max_order)
    )


def perm_via_sachs(graph: Graph, *, max_order: int = DEFAULT_SACHS_ORDER) -> int:
    """Permanent by the unsigned component-census sum over Sachs subgraphs."""
    return sum(
        2**s.num_cycles for s in enumerate_sachs(graph, max_order=max_order)
    )


def adjacency_matrix(graph: Graph) -> list[list[int]]:
    """Dense 0/1 adjacency matrix as Python ints."""
    a = [[0] * graph.n for _ in range(graph.n)]
    for u, v in graph.edges:
        a[u][v] = a[v][u] = 1
    return a


def det_adjacency(graph: Graph) -> int:
    """Exact determinant via fraction-free (Bareiss) elimination."""
    return _bareiss_det(adjacency_matrix(graph))


def _bareiss_det(matrix: list[list[int]]) -> int:
    n = len(matrix)
    if n == 0:
        return 1
    m = [row[:] for row in matrix]
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


def perm_adjacency(graph: Graph, *, max_order: int = DEFAULT_PERMANENT_ORDER) -> int:
    """Exact permanent via Glynn's form of the inclusion-exclusion sum.

    perm(A) = 2^(1-n) * sum over signs d with d_0 = +1 of
    (prod_j d_j) * prod_i (sum_j d_j a_ij), which has 2^(n-1) terms where
    Ryser's formula has 2^n.  The signs d_1..d_(n-1) are walked in
    Gray-code order, so each step negates one column; A is a symmetric 0/1
    matrix, so only the row sums of that vertex's neighbours change.  All
    arithmetic is on Python integers, so the value is exact at every order.
    The default bound, n = 22, caps a call at 2^21 terms, each further
    vertex doubling the work.  This is the route that
    ``sdke perm --method ryser`` selects.
    """
    n = graph.n
    if n > max_order:
        raise BoundExceededError(
            f"graph order {n} exceeds permanent bound {max_order}"
        )
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


@dataclass
class FactorizationReport:
    """Determinant/permanent values of a graph and of its SD and KE parts."""

    partition: SdKePartition
    det_g: int
    det_sd: int
    det_ke: int
    det_product_ok: bool
    perm_g: int | None = None
    perm_sd: int | None = None
    perm_ke: int | None = None
    perm_product_ok: bool | None = None

    @property
    def cut_size(self) -> int:
        return len(self.partition.cut)


def factorization_report(
    graph: Graph, *, include_permanent: bool = True
) -> FactorizationReport:
    """Separate the graph and check multiplicativity of det and perm.

    Determinants come from elimination and permanents from
    ``perm_adjacency``.  An empty part contributes the multiplicative
    identity 1.  The permanent can be skipped for orders above its bound.
    A graph without a perfect matching raises NotMatchableError.
    """
    part = sd_ke_partition(graph)
    det_g = det_adjacency(graph)
    det_sd = det_adjacency(part.sd_part)
    det_ke = det_adjacency(part.ke_part)
    report = FactorizationReport(
        partition=part,
        det_g=det_g,
        det_sd=det_sd,
        det_ke=det_ke,
        det_product_ok=det_g == det_sd * det_ke,
    )
    if include_permanent:
        report.perm_g = perm_adjacency(graph)
        report.perm_sd = perm_adjacency(part.sd_part)
        report.perm_ke = perm_adjacency(part.ke_part)
        report.perm_product_ok = report.perm_g == report.perm_sd * report.perm_ke
    return report


def sachs_cut_disjointness(
    graph: Graph, cut: frozenset[Edge], *, max_order: int = DEFAULT_SACHS_ORDER
) -> tuple[bool, tuple[SachsSubgraph, Edge] | None]:
    """Check that no Sachs subgraph uses an edge of the given cut.

    The cut is normally the SD-KE cut, sd_ke_partition(graph).cut.
    Returns (True, None) when the separation property holds; otherwise the
    offending subgraph and edge come back as a counterexample witness.
    """
    if cut:
        for s in enumerate_sachs(graph, max_order=max_order):
            hit = s.edges() & cut
            if hit:
                return False, (s, min(hit))
    return True, None
