"""Independent oracles and theorem-level property checks.

Every check here goes through the public operations of the other modules
only, so a passing suite certifies the public API.  Failures carry a
counterexample payload that can be re-verified by hand.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from typing import Any

from .alternating import reachable_set, verify_walk
from .decomposition import sd_ke_partition, check_stability_under_deletion
from .determinantal import (
    FactorizationReport,
    factorization_report,
    sachs_cut_disjointness,
)
from .errors import BoundExceededError, NotMatchableError, SdkeError
from .graph import Graph, build_graph, connected_components
from .matching import enumerate_perfect_matchings, matching_number

DEFAULT_ALPHA_ORDER = 30
DEFAULT_SUITE_ORDER = 12


def independence_number(graph: Graph, *, max_order: int = DEFAULT_ALPHA_ORDER) -> int:
    """Exact independence number by branch and bound over vertex bitsets."""
    n = graph.n
    if n > max_order:
        raise BoundExceededError(
            f"graph order {n} exceeds independence-number bound {max_order}"
        )
    if n == 0:
        return 0
    closed = [1 << v for v in range(n)]
    for u, w in graph.edges:
        closed[u] |= 1 << w
        closed[w] |= 1 << u

    best = 0

    def expand(mask: int, size: int) -> None:
        nonlocal best
        if mask == 0:
            if size > best:
                best = size
            return
        if size + mask.bit_count() <= best:
            return
        # Branch on a maximum-degree vertex of the remaining subgraph.
        v = max(
            (m.bit_length() - 1 for m in _iter_bits(mask)),
            key=lambda x: (closed[x] & mask).bit_count(),
        )
        expand(mask & ~closed[v], size + 1)
        expand(mask & ~(1 << v), size)

    expand((1 << n) - 1, 0)
    return best


def _iter_bits(mask: int):
    while mask:
        low = mask & -mask
        yield low
        mask ^= low


@dataclass(frozen=True)
class KeCheck:
    """Independence and matching numbers with the Koenig-Egervary verdict."""

    alpha: int
    mu: int
    n: int

    @property
    def is_ke(self) -> bool:
        return self.alpha + self.mu == self.n


def is_koenig_egervary(graph: Graph, *, max_order: int = DEFAULT_ALPHA_ORDER) -> KeCheck:
    """Decide alpha(G) + mu(G) = |G| with exact values."""
    return KeCheck(
        alpha=independence_number(graph, max_order=max_order),
        mu=matching_number(graph),
        n=graph.n,
    )


@dataclass
class CheckResult:
    name: str
    passed: bool
    counterexample: dict[str, Any] | None = None


@dataclass
class TheoremReport:
    """The suite's check results and the factorization they were run on."""

    factorization: FactorizationReport
    checks: list[CheckResult] = field(default_factory=list)

    @property
    def all_passed(self) -> bool:
        return all(c.passed for c in self.checks)

    def failed(self) -> list[CheckResult]:
        return [c for c in self.checks if not c.passed]


def _check_reachability_invariance(graph, matchings) -> CheckResult:
    reference = None
    for m in matchings:
        sets = tuple(reachable_set(graph, m, v) for v in range(graph.n))
        if reference is None:
            reference = (m, sets)
        elif sets != reference[1]:
            v = next(i for i, (a, b) in enumerate(zip(sets, reference[1])) if a != b)
            return CheckResult(
                "reachability_matching_invariance",
                False,
                {
                    "vertex": v,
                    "matching_a": reference[0].edge_pairs(),
                    "matching_b": m.edge_pairs(),
                    "reach_a": sorted(reference[1][v]),
                    "reach_b": sorted(sets[v]),
                },
            )
    return CheckResult("reachability_matching_invariance", True)


def _check_partner_reachable(graph, matching) -> CheckResult:
    for v in range(graph.n):
        if matching.pairing[v] not in reachable_set(graph, matching, v):
            return CheckResult(
                "reachable_includes_partner", False, {"vertex": v}
            )
    return CheckResult("reachable_includes_partner", True)


def _check_partition_matching_independence(graph, matchings) -> CheckResult:
    parts = [sd_ke_partition(graph, m) for m in matchings]
    sd0 = parts[0].sd_vertices
    for p, m in zip(parts, matchings):
        if p.sd_vertices != sd0:
            return CheckResult(
                "partition_matching_independence",
                False,
                {
                    "matching": m.edge_pairs(),
                    "sd": sorted(p.sd_vertices),
                    "sd_reference": sorted(sd0),
                },
            )
    return CheckResult("partition_matching_independence", True)


def _check_witnesses(graph, part) -> CheckResult:
    for v in sorted(part.sd_vertices):
        w = part.witnesses.get(v)
        if (
            w is None
            or not w.is_closed
            or w.vertices[0] != v
            or w.kind != "mm"
            or not verify_walk(graph, part.matching, w)
        ):
            return CheckResult("sd_witnesses_verify", False, {"vertex": v})
    return CheckResult("sd_witnesses_verify", True)


def _check_cut_unmatched(graph, part, matchings) -> CheckResult:
    for m in matchings:
        for e in part.cut:
            if m.contains_edge(e):
                return CheckResult(
                    "cut_edges_unmatched",
                    False,
                    {"edge": e, "matching": m.edge_pairs()},
                )
    return CheckResult("cut_edges_unmatched", True)


def _check_mu_additivity(graph, part) -> CheckResult:
    mu_g = matching_number(graph)
    mu_sd = matching_number(part.sd_part)
    mu_ke = matching_number(part.ke_part)
    ok = mu_g == mu_sd + mu_ke
    return CheckResult(
        "mu_additivity",
        ok,
        None if ok else {"mu": mu_g, "mu_sd": mu_sd, "mu_ke": mu_ke},
    )


def _check_ke_status(graph, part, max_order) -> list[CheckResult]:
    ke_check = is_koenig_egervary(part.ke_part, max_order=max_order)
    out = [
        CheckResult(
            "ke_part_is_koenig_egervary",
            ke_check.is_ke,
            None
            if ke_check.is_ke
            else {"alpha": ke_check.alpha, "mu": ke_check.mu, "n": ke_check.n},
        )
    ]
    if part.sd_part.n:
        sd_check = is_koenig_egervary(part.sd_part, max_order=max_order)
        out.append(
            CheckResult(
                "sd_part_not_koenig_egervary",
                not sd_check.is_ke,
                None
                if not sd_check.is_ke
                else {"alpha": sd_check.alpha, "mu": sd_check.mu, "n": sd_check.n},
            )
        )
    else:
        out.append(CheckResult("sd_part_not_koenig_egervary", True))
    return out


def _check_full_reachability(graph, part, matching) -> CheckResult:
    # On each connected component with no KE vertices, every vertex must
    # reach the whole component.
    for comp in connected_components(graph):
        if comp & part.ke_vertices:
            continue
        for v in sorted(comp):
            if reachable_set(graph, matching, v) != comp:
                return CheckResult(
                    "full_reachability_when_ke_empty",
                    False,
                    {"vertex": v, "component": sorted(comp)},
                )
    return CheckResult("full_reachability_when_ke_empty", True)


def _check_sachs_cut(graph, part) -> CheckResult:
    ok, witness = sachs_cut_disjointness(graph, part.cut)
    if ok:
        return CheckResult("sachs_cut_disjointness", True)
    s, e = witness
    return CheckResult(
        "sachs_cut_disjointness",
        False,
        {"edge": e, "k2_edges": list(s.k2_edges), "cycles": list(s.cycles)},
    )


def _check_multiplicativity(r: FactorizationReport) -> CheckResult:
    if not r.det_product_ok:
        return CheckResult(
            "det_multiplicativity",
            False,
            {"det": r.det_g, "det_sd": r.det_sd, "det_ke": r.det_ke},
        )
    if not r.perm_product_ok:
        return CheckResult(
            "det_multiplicativity",
            False,
            {"perm": r.perm_g, "perm_sd": r.perm_sd, "perm_ke": r.perm_ke},
        )
    return CheckResult("det_multiplicativity", True)


def _check_stability(graph, part, max_order) -> CheckResult:
    ke_edges = [
        e for e in graph.edges
        if e[0] in part.ke_vertices and e[1] in part.ke_vertices
    ]
    for u, v in ke_edges:
        try:
            report = check_stability_under_deletion(graph, (u, v), max_order=max_order)
        except BoundExceededError:
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
    return CheckResult("stability_under_deletion", True)


def run_theorem_suite(
    graph: Graph, *, max_order: int = DEFAULT_SUITE_ORDER
) -> TheoremReport:
    """Run every theorem-level check against a matchable graph.

    All checks must pass on any correct input; a failure is always a
    counterexample to a proved statement, i.e. an implementation bug.
    """
    if graph.n > max_order:
        raise BoundExceededError(
            f"graph order {graph.n} exceeds theorem-suite bound {max_order}"
        )
    matchings = enumerate_perfect_matchings(graph, max_order=max_order)
    if not matchings:
        raise NotMatchableError("graph is not matchable")
    factorization = factorization_report(graph)
    part = factorization.partition
    report = TheoremReport(factorization)
    report.checks.append(_check_reachability_invariance(graph, matchings))
    report.checks.append(_check_partner_reachable(graph, part.matching))
    report.checks.append(_check_partition_matching_independence(graph, matchings))
    report.checks.append(_check_witnesses(graph, part))
    # On a matchable graph the maximum matchings are the perfect ones.
    report.checks.append(_check_cut_unmatched(graph, part, matchings))
    report.checks.append(_check_mu_additivity(graph, part))
    report.checks.extend(_check_ke_status(graph, part, max_order=max_order))
    report.checks.append(_check_full_reachability(graph, part, part.matching))
    report.checks.append(_check_sachs_cut(graph, part))
    report.checks.append(_check_multiplicativity(factorization))
    report.checks.append(_check_stability(graph, part, max_order))
    return report


def random_matchable_graph(n: int, extra_edge_prob: float, seed: int) -> Graph:
    """Random graph that is matchable by construction.

    A perfect matching is planted on a seeded random pairing of the
    vertices, then every other vertex pair is added independently with
    the given probability.  Deterministic for a fixed (n, prob, seed).
    """
    if n % 2 == 1:
        raise SdkeError(f"matchable graphs have even order, got {n}")
    if not 0.0 <= extra_edge_prob <= 1.0:
        raise SdkeError(f"probability out of range: {extra_edge_prob}")
    rng = random.Random(seed)
    order = list(range(n))
    rng.shuffle(order)
    edges = {(min(a, b), max(a, b)) for a, b in zip(order[0::2], order[1::2])}
    for u in range(n):
        for v in range(u + 1, n):
            if (u, v) not in edges and rng.random() < extra_edge_prob:
                edges.add((u, v))
    return build_graph(n, sorted(edges))


def random_graph(n: int, edge_prob: float, seed: int) -> Graph:
    """Plain seeded Erdos-Renyi style graph; no matchability guarantee."""
    if not 0.0 <= edge_prob <= 1.0:
        raise SdkeError(f"probability out of range: {edge_prob}")
    rng = random.Random(seed)
    edges = [
        (u, v)
        for u in range(n)
        for v in range(u + 1, n)
        if rng.random() < edge_prob
    ]
    return build_graph(n, edges)
