"""Independent oracles and theorem-level property checks.

Every check uses public operations of other modules, private helpers
(the digraph D and its reach sweep from ``alternating``, and
``decomposition._sd_vertices``), or its own route to the same answer.
Failures carry a counterexample payload that can be re-verified by hand.

The suite does each piece of work once, in one pass.  The factorization
report comes first, and its partition's matching is the one reference:
one strong-component reach sweep of D under it serves the invariance,
partner, closure and full-reach checks.  The perfect matchings are then
streamed once, a chunk at a time; one Warshall closure per chunk, on
integers whose bits range over the chunk, gives every matching's
reachable sets and SD set (v is SD iff v is in R(v) and M(v) is in
R(M(v))), and the same partner masks show which matchings hold a cut
edge.  The matching numbers of the parts serve both the additivity and
the Koenig-Egervary checks.  The Sachs-cut verdict is read off the
permanents of the factorization report, which equal it exactly; Sachs
subgraphs are enumerated only to name a counterexample.  One matching of
G serves the stability check of every KE edge, and the exhaustive SD
search runs only on G - e for an unavoidable e of a graph with SD
vertices.  A check that hits a work bound on some input does not pass:
it fails with the skipped work listed.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from functools import reduce
from itertools import islice
from operator import or_
from typing import Any

from .alternating import _arcs, _bit_indices, _component_reach, verify_walk
from .decomposition import _sd_vertices
from .determinantal import (
    FactorizationReport,
    factorization_report,
    sachs_cut_disjointness,
)
from .errors import BoundExceededError, GraphError, SdkeError
from .graph import Graph, build_graph, connected_components, delete_edge
from .matching import iter_perfect_matchings, matching_number, maximum_matching

DEFAULT_ALPHA_ORDER = 30
DEFAULT_SUITE_ORDER = 12
_CHUNK = 256  # perfect matchings per reach closure; its integers grow with it
_MAX_MATCHINGS = 1 << 18  # perfect matchings per suite; K14 has 135,135
_MAX_RANDOM_ORDER = 20_000  # the generator's O(n^2) pair loop: 9 s at n = 10^4


def independence_number(graph: Graph) -> int:
    """Exact independence number by branch and bound over vertex bitsets."""
    n = graph.n
    if n > DEFAULT_ALPHA_ORDER:
        raise BoundExceededError(
            f"graph order {n} exceeds independence-number bound {DEFAULT_ALPHA_ORDER}"
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
        v = max(_bit_indices(mask), key=lambda x: (closed[x] & mask).bit_count())
        expand(mask & ~closed[v], size + 1)
        expand(mask & ~(1 << v), size)

    expand((1 << n) - 1, 0)
    return best


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


def _check_partner_reachable(graph, matching, reach) -> CheckResult:
    # R(v) must hold M(v) and be closed under one alternating step: from x
    # in R(v), a non-matching edge xy and then y's matching edge reach M(y).
    pairing = matching.pairing
    closed = set()
    for v, w in enumerate(pairing):
        r = reach[v]
        if w not in r:
            return CheckResult(
                "reachable_includes_partner", False, {"vertex": v}
            )
        if id(r) in closed:
            continue
        for x in sorted(r):
            for y in graph.adjacency[x]:
                if y != pairing[x] and pairing[y] not in r:
                    return CheckResult(
                        "reachable_includes_partner",
                        False,
                        {"vertex": v, "edge": (x, y), "missing": pairing[y]},
                    )
        closed.add(id(r))
    return CheckResult("reachable_includes_partner", True)


def _packed_reach(graph, partner, k):
    """R_i(v) under k perfect matchings at once, from one Warshall closure.

    partner[v][w] holds bit i iff M_i(v) = w.  Bit u*k + i of row x means
    x reaches u in D under matching i; pivot j ORs row j into each row x,
    masked to the matchings under which x reaches j.  Entry v is row M_i(v).
    """
    n, full = graph.n, (1 << k) - 1
    ones = sum(1 << u * k for u in range(n))
    into = [0] * n  # bits u*k + i of every u with M_i(u) = y
    for u, row in enumerate(partner):
        for y, bits in row.items():
            into[y] |= bits << u * k
    rows = [reduce(or_, map(into.__getitem__, nbrs), full << x * k)
            for x, nbrs in enumerate(graph.adjacency)]
    for j, pivot in enumerate(rows):
        for x, row in enumerate(rows):
            rows[x] = row | pivot & (row >> j * k & full) * ones
    return [reduce(or_, (rows[w] & bits * ones for w, bits in row.items()), 0)
            for row in partner]


def _check_perfect_matchings(graph, part, found):
    """Reach invariance, SD-set invariance and unmatched cut, in one pass.

    ``found`` is an iterator of the perfect matchings.  They are drawn
    ``_CHUNK`` at a time and counted against ``_MAX_MATCHINGS``; only the
    chunk being checked and the one being drawn are alive.  The reference
    is the partition: its SD set, and R(v) under its matching, everything
    M(v) reaches in D, returned for the partner, closure and full-reach
    checks; vertices whose partners share a strong component share one
    frozenset.  A chunk's reach comes from one ``_packed_reach`` closure,
    its SD sets from the same bits (v is SD iff v in R(v) and M(v) in
    R(M(v))), and the matchings that hold a cut edge from the partner
    masks of the cut.
    """
    n, pairing = graph.n, part.matching.pairing
    comp, bits = _component_reach(_arcs(graph, pairing))
    sets = [frozenset(_bit_indices(b)) for b in bits]
    reach = tuple(sets[comp[w]] for w in pairing)
    sd0 = part.sd_vertices
    invariance = independence = unmatched = None
    count = 0
    while chunk := list(islice(found, _CHUNK)):
        count += len(chunk)
        if count > _MAX_MATCHINGS:
            raise BoundExceededError(f"more than {_MAX_MATCHINGS} perfect matchings: suite bound")
        k, full = len(chunk), (1 << len(chunk)) - 1
        partner = [dict.fromkeys(nbrs, 0) for nbrs in graph.adjacency]
        for i, m in enumerate(chunk):
            for v, w in enumerate(m.pairing):
                partner[v][w] |= 1 << i
        packed = _packed_reach(graph, partner, k)
        expect = [full * sum(1 << u * k for u in r) for r in reach]
        if invariance is None and packed != expect:
            ones = sum(1 << u * k for u in range(n))
            i, v = min((i, v) for v in range(n) for i in range(k)
                       if (packed[v] ^ expect[v]) >> i & ones)
            invariance = CheckResult(
                "reachability_matching_invariance",
                False,
                {
                    "vertex": v,
                    "matching_a": part.matching.edge_pairs(),
                    "matching_b": chunk[i].edge_pairs(),
                    "reach_a": sorted(reach[v]),
                    "reach_b": [u for u in range(n) if packed[v] >> u * k + i & 1],
                },
            )
        # sd[v]: the matchings of the chunk under which v is SD.
        closed = [bits >> v * k & full for v, bits in enumerate(packed)]
        sd = [reduce(or_, (bits & closed[w] for w, bits in row.items()), 0) & closed[v]
              for v, row in enumerate(partner)]
        off = [bits ^ (full if v in sd0 else 0) for v, bits in enumerate(sd)]
        if independence is None and any(off):
            i = min((bits & -bits).bit_length() - 1 for bits in off if bits)
            independence = CheckResult(
                "partition_matching_independence",
                False,
                {
                    "matching": chunk[i].edge_pairs(),
                    "sd": [v for v in range(n) if sd[v] >> i & 1],
                    "sd_reference": sorted(sd0),
                },
            )
        crossing = reduce(or_, (partner[u][w] for u, w in part.cut), 0)
        if unmatched is None and crossing:
            m = chunk[(crossing & -crossing).bit_length() - 1]
            e = next(e for e in part.cut if m.contains_edge(e))
            unmatched = CheckResult(
                "cut_edges_unmatched", False, {"edge": e, "matching": m.edge_pairs()}
            )
    return (
        invariance or CheckResult("reachability_matching_invariance", True),
        independence or CheckResult("partition_matching_independence", True),
        unmatched or CheckResult("cut_edges_unmatched", True),
        reach,
    )


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


def _check_mu_additivity(graph, mu_sd, mu_ke) -> CheckResult:
    mu_g = matching_number(graph)
    ok = mu_g == mu_sd + mu_ke
    return CheckResult(
        "mu_additivity",
        ok,
        None if ok else {"mu": mu_g, "mu_sd": mu_sd, "mu_ke": mu_ke},
    )


def _check_ke_status(part, mu_sd, mu_ke) -> list[CheckResult]:
    # The KE part must be Koenig-Egervary (alpha + mu = n) and the SD part
    # must not be; an empty part passes either way.
    out = []
    for name, side, mu, want_ke in (
        ("ke_part_is_koenig_egervary", part.ke_part, mu_ke, True),
        ("sd_part_not_koenig_egervary", part.sd_part, mu_sd, False),
    ):
        alpha = independence_number(side) if side.n else None
        if alpha is None or (alpha + mu == side.n) == want_ke:
            out.append(CheckResult(name, True))
        else:
            out.append(CheckResult(name, False, {"alpha": alpha, "mu": mu, "n": side.n}))
    return out


def _check_full_reachability(graph, part, reach) -> CheckResult:
    # On each connected component with no KE vertices, every vertex must
    # reach the whole component.
    for comp in connected_components(graph):
        if comp & part.ke_vertices:
            continue
        for v in sorted(comp):
            if reach[v] != comp:
                return CheckResult(
                    "full_reachability_when_ke_empty",
                    False,
                    {"vertex": v, "component": sorted(comp)},
                )
    return CheckResult("full_reachability_when_ke_empty", True)


def _check_sachs_cut(graph, r: FactorizationReport) -> CheckResult:
    """No spanning Sachs subgraph uses an edge of the SD-KE cut.

    G minus its cut is the disjoint union of the SD and KE parts, and
    perm(A) is the sum of 2^c(S) over the spanning Sachs subgraphs S, so

        perm(G) - perm(SD) * perm(KE) = sum of 2^c(S) over the spanning
                                        Sachs subgraphs S that use a cut edge.

    Every term is positive, so the difference is 0 exactly when no such S
    exists: with exact integers the verdict is ``perm_product_ok``.  Only
    when that is not True (a violation, or no permanents) are the Sachs
    subgraphs enumerated, which also yields the counterexample.
    """
    if r.perm_product_ok:
        return CheckResult("sachs_cut_disjointness", True)
    ok, witness = sachs_cut_disjointness(graph, r.partition.cut)
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
    """Delete each KE edge e and compare SD(G - e) with SD(G).

    The partition's matching M of G serves every edge; only an e in M costs
    a matching of G - e.
    If e is unavoidable and SD(G) is empty, SD(G) <= SD(G - e) holds for any
    answer and nothing is computed.  An edge that hits a work bound is listed
    under "skipped" and fails the check, unless a real failure comes first.
    """
    matching, sd_before = part.matching, part.sd_vertices
    skipped = []
    for e in graph.edges:
        if e[0] not in part.ke_vertices or e[1] not in part.ke_vertices:
            continue
        smaller = delete_edge(graph, e)
        after = maximum_matching(smaller) if matching.contains_edge(e) else matching
        avoidable = after.size == matching.size
        if not (avoidable or sd_before):
            continue
        try:
            sd_after = _sd_vertices(smaller, after, max_order=max_order)
        except BoundExceededError as exc:
            skipped.append({"edge": e, "bound": str(exc)})
            continue
        if sd_before <= sd_after and (sd_before == sd_after or not avoidable):
            continue
        return CheckResult(
            "stability_under_deletion",
            False,
            {
                "edge": e,
                "avoidable": avoidable,
                "sd_before": sorted(sd_before),
                "sd_after": sorted(sd_after),
            },
        )
    if skipped:
        return CheckResult("stability_under_deletion", False, {"skipped": skipped})
    return CheckResult("stability_under_deletion", True)


def run_theorem_suite(
    graph: Graph, *, max_order: int = DEFAULT_SUITE_ORDER
) -> TheoremReport:
    """Run every theorem-level check against a matchable graph.

    All checks must pass on any correct input; a failure is always a
    counterexample to a proved statement, i.e. an implementation bug.
    The factorization report comes first, so a graph that it refuses is
    refused before any perfect matching is drawn.
    """
    if graph.n > max_order:
        raise BoundExceededError(
            f"graph order {graph.n} exceeds theorem-suite bound {max_order}"
        )
    factorization = factorization_report(graph)
    part = factorization.partition
    found = iter_perfect_matchings(graph, max_order=max_order)
    invariance, independence, unmatched, reach = _check_perfect_matchings(graph, part, found)
    mu_sd, mu_ke = matching_number(part.sd_part), matching_number(part.ke_part)
    report = TheoremReport(factorization)
    report.checks.append(invariance)
    report.checks.append(_check_partner_reachable(graph, part.matching, reach))
    report.checks.append(independence)
    report.checks.append(_check_witnesses(graph, part))
    report.checks.append(unmatched)
    report.checks.append(_check_mu_additivity(graph, mu_sd, mu_ke))
    report.checks.extend(_check_ke_status(part, mu_sd, mu_ke))
    report.checks.append(_check_full_reachability(graph, part, reach))
    report.checks.append(_check_sachs_cut(graph, factorization))
    report.checks.append(_check_multiplicativity(factorization))
    report.checks.append(_check_stability(graph, part, max_order))
    return report


def random_matchable_graph(n: int, extra_edge_prob: float, seed: int) -> Graph:
    """Random graph that is matchable by construction.

    A perfect matching is planted on a seeded random pairing of the
    vertices, then every other vertex pair is added independently with
    the given probability.  Deterministic for a fixed (n, prob, seed).
    """
    if type(n) is not int:
        raise GraphError(f"order {n!r} is not an int")
    if n % 2 == 1:
        raise SdkeError(f"matchable graphs have even order, got {n}")
    if not 0.0 <= extra_edge_prob <= 1.0:
        raise SdkeError(f"probability out of range: {extra_edge_prob}")
    if n > _MAX_RANDOM_ORDER:
        raise BoundExceededError(f"order {n} exceeds generator bound {_MAX_RANDOM_ORDER}")
    rng = random.Random(seed)
    order = list(range(n))
    rng.shuffle(order)
    edges = {(min(a, b), max(a, b)) for a, b in zip(order[0::2], order[1::2])}
    for u in range(n):
        for v in range(u + 1, n):
            if (u, v) not in edges and rng.random() < extra_edge_prob:
                edges.add((u, v))
    return build_graph(n, sorted(edges))

