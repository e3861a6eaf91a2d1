"""Theorem-level property checks, and the seeded matchable-graph generator.

Every check uses public operations of other modules, private helpers
(the digraph D and its reach sweep from ``alternating``, and
``decomposition._sd_vertices``), or its own route to the same answer.
Each is a fault function: it returns a counterexample that can be
re-verified by hand, or None.  ``run_theorem_suite`` names each check
once, in one table beside its fault, and builds its ``CheckResult``.

The suite does each piece of work once, in one pass.  The factorization
report comes first, and its partition's matching is the one reference:
one strong-component reach sweep of D under it serves the invariance,
partner, closure and full-reach checks.  The perfect matchings are then
streamed once, a chunk at a time; one Warshall closure per chunk, on
integers whose bits range over the chunk, gives every matching's
reachable sets and SD set (v is SD iff v is in R(v) and M(v) is in
R(M(v))).  The matching numbers of the parts serve both the additivity
and the Koenig-Egervary checks.  Those checks, and the two cut claims,
verify the partition's own certificates on G's edges in linear time; no
Sachs subgraph is enumerated.  One matching of G serves the stability
check of every KE edge: G - e is split when it is matchable, and
otherwise the SD witnesses certify SD(G) <= SD(G - e), so no exhaustive
SD search runs.
"""

from __future__ import annotations

import random
from functools import reduce
from itertools import islice
from operator import or_
from typing import Any

from .alternating import AlternatingWalk, _arcs, _bit_indices, _component_reach, _walk_holds
from .decomposition import _sd_vertices
from .determinantal import FactorizationReport, factorization_report
from .errors import BoundExceededError, GraphError, SdkeError, _check_order
from .graph import Graph, _Record, build_graph, connected_components, delete_edge
from .matching import iter_perfect_matchings, matching_number, maximum_matching

DEFAULT_SUITE_ORDER = 12
_CHUNK = 256  # perfect matchings per reach closure; its integers grow with it
_MAX_MATCHINGS = 1 << 18  # perfect matchings per suite; K14 has 135,135
_MAX_RANDOM_ORDER = 20_000  # the generator's O(n^2) pair loop: 9 s at n = 10^4


class CheckResult(_Record):
    __slots__ = ("name", "passed", "counterexample")

    def __init__(self, name: str, passed: bool, counterexample: dict[str, Any] | None = None):
        self.name, self.passed, self.counterexample = name, passed, counterexample


class TheoremReport(_Record):
    """The suite's check results and the factorization they were run on."""

    __slots__ = ("factorization", "checks")

    def __init__(self, factorization: FactorizationReport, checks: list[CheckResult] | None = None):
        self.factorization, self.checks = factorization, [] if checks is None else checks

    @property
    def all_passed(self) -> bool:
        return all(c.passed for c in self.checks)

    def failed(self) -> list[CheckResult]:
        return [c for c in self.checks if not c.passed]


def _partner_fault(graph, matching, reach):
    # R(v) must hold M(v) and be closed under one alternating step: from x
    # in R(v), a non-matching edge xy and then y's matching edge reach M(y).
    pairing = matching.pairing
    closed = set()
    for v, w in enumerate(pairing):
        r = reach[v]
        if w not in r:
            return {"vertex": v}
        if id(r) in closed:
            continue
        for x in sorted(r):
            for y in graph.adjacency[x]:
                if y != pairing[x] and pairing[y] not in r:
                    return {"vertex": v, "edge": (x, y), "missing": pairing[y]}
        closed.add(id(r))
    return None


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


def _matching_faults(graph, part, found):
    """Reach invariance and SD-set invariance, in one pass.

    ``found`` is an iterator of the perfect matchings.  They are drawn
    ``_CHUNK`` at a time and counted against ``_MAX_MATCHINGS``; only the
    chunk being checked and the one being drawn are alive.  The reference
    is the partition: its SD set, and R(v) under its matching, everything
    M(v) reaches in D, returned after the two faults for the partner,
    closure and full-reach checks; vertices whose partners share a strong
    component share one frozenset.  A chunk's reach comes from one
    ``_packed_reach`` closure, and its SD sets from the same bits (v is SD
    iff v in R(v) and M(v) in R(M(v))).
    """
    n, pairing = graph.n, part.matching.pairing
    comp, bits = _component_reach(_arcs(graph, pairing))
    sets = [frozenset(_bit_indices(b)) for b in bits]
    reach = tuple(sets[comp[w]] for w in pairing)
    sd0 = part.sd_vertices
    invariance = independence = None
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
            invariance = {
                "vertex": v,
                "matching_a": part.matching.edge_pairs(),
                "matching_b": chunk[i].edge_pairs(),
                "reach_a": sorted(reach[v]),
                "reach_b": [u for u in range(n) if packed[v] >> u * k + i & 1],
            }
        # sd[v]: the matchings of the chunk under which v is SD.
        closed = [bits >> v * k & full for v, bits in enumerate(packed)]
        sd = [reduce(or_, (bits & closed[w] for w, bits in row.items()), 0) & closed[v]
              for v, row in enumerate(partner)]
        off = [bits ^ (full if v in sd0 else 0) for v, bits in enumerate(sd)]
        if independence is None and any(off):
            i = min((bits & -bits).bit_length() - 1 for bits in off if bits)
            independence = {
                "matching": chunk[i].edge_pairs(),
                "sd": [v for v in range(n) if sd[v] >> i & 1],
                "sd_reference": sorted(sd0),
            }
    return invariance, independence, reach


def _closed_at(graph, pairing, v, walk):
    """walk is an mm-closed walk at v in graph under pairing; None is not."""
    vs = () if walk is None else walk.vertices
    return vs[:1] == vs[-1:] == (v,) and walk.kind == "mm" and _walk_holds(graph, pairing, walk)


def _witness_fault(graph, part):
    try:
        part.matching.validate(graph)
    except ValueError:  # no witness holds
        return {"vertex": min(part.sd_vertices)} if part.sd_vertices else None
    for v in sorted(part.sd_vertices):
        if not _closed_at(graph, part.matching.pairing, v, part.witnesses.get(v)):
            return {"vertex": v}
    return None


def _mu_fault(graph, mu_sd, mu_ke):
    mu = matching_number(graph)
    return None if mu == mu_sd + mu_ke else {"mu": mu, "mu_sd": mu_sd, "mu_ke": mu_ke}


def _ke_fault(part, mu, independent=False):
    """The KE part is Koenig-Egervary, by certificate, in O(n + m).

    The part is read in its own ids, its vertex set in sorted order, and
    an empty part passes; ``mu`` is its matching number, shared with the
    additivity check.  As alpha <= n - mu on any graph, the partners of
    ``failed_searches``, if n - mu independent vertices of the part,
    prove alpha + mu = n.  ``independent`` says that ``_block_fault``
    passed on the graph whose induced part ke_part is: the partners then
    lie in KE and no edge joins two of them, so only the count is left.
    """
    ke = part.ke_part
    if not ke.n:
        return None
    if not independent:
        pairing = part.matching.pairing
        ids = dict(zip(sorted(part.ke_vertices), range(ke.n)))  # none beyond the part
        members = sorted(pairing[v] for v in part.failed_searches)
        outside = [x for x in members if x not in ids]
        if outside:
            return {"vertex": outside[0]}
        inside, names = {ids[x] for x in members}, list(ids)
        for u, w in ke.edges:
            if u in inside and w in inside:
                return {"edge": (names[u], names[w])}
    size = len(part.failed_searches)
    return None if size + mu == ke.n else {"certificate": size, "mu": mu, "n": ke.n}


def _sd_fault(part, mu):
    """The SD part is not Koenig-Egervary, by certificate, in O(n + m).

    The part is read as ``_ke_fault`` reads its own, and an empty part
    passes.  In D, the implication graph of "one end of each matched pair
    in an independent set", closed mm walks of the part at its smallest
    vertex v and at M(v) give M(v) => v => M(v): with mu = n/2 and the
    matched pairs edges of the part, no n/2 vertices of it are
    independent, so alpha + mu < n.
    """
    sd, pairing = part.sd_part, part.matching.pairing
    if not sd.n:
        return None
    if 2 * mu != sd.n:
        return {"mu": mu, "n": sd.n}
    ids = dict(zip(sorted(part.sd_vertices), range(sd.n)))
    pairs = [ids.get(pairing[x], -1) for x in ids]

    def closed_at(x):
        # In the part's ids; _walk_holds fails a vertex outside the part.
        w = part.witnesses.get(x)
        return w is not None and _closed_at(
            sd, pairs, ids[x], AlternatingWalk(map(ids.get, w.vertices), w.kind))

    v = min(ids, default=None)
    if (len(pairs) == sd.n and all(sd.has_edge(i, w) for i, w in enumerate(pairs))
            and closed_at(v) and closed_at(pairing[v])):
        return None
    return {"vertex": v}


def _reach_fault(graph, part, reach):
    # On each connected component with no KE vertices, every vertex must
    # reach the whole component.
    for comp in connected_components(graph):
        if comp & part.ke_vertices:
            continue
        for v in sorted(comp):
            if reach[v] != comp:
                return {"vertex": v, "component": sorted(comp)}
    return None


def _block_fault(graph, part):
    """No perfect matching or spanning Sachs subgraph uses a cut edge, by
    the partition's block certificate, in O(n + m).

    Let I be the partners of ``failed_searches``.  On G's own edges, I
    must lie in KE with 2|I| = |KE|, each edge at I must end in KE - I,
    and ``cut`` must be the edges with one end in KE.  A permutation with
    a non-zero term in det(A) or perm(A) maps I into N(I), so onto KE - I,
    and, A being symmetric, KE - I onto I and SD onto SD: no perfect
    matching or spanning Sachs subgraph uses a cut edge, and det and perm
    factor for any edge weights.

    The split passes.  With D's components numbered sinks first and x in
    I, comp[x] < comp[M(x)], so x does not reach M(x).  An edge xy with y
    in SD would give x -> M(y) ~> y -> M(x); an edge xx' within I, comp[x]
    >= comp[M(x')] > comp[x'] >= comp[M(x)] > comp[x].  So N(I) lies in
    KE - I, and I holds one end of each KE pair.

    A failure returns {"vertex"}, {"certificate", "n"}, {"edge"} or
    {"cut"}, one per condition above, in order.
    """
    pairing, ke = part.matching.pairing, part.ke_vertices
    inside = {pairing[v] for v in part.failed_searches}
    if not inside <= ke:
        return {"vertex": min(inside - ke)}
    if 2 * len(inside) != len(ke):
        return {"certificate": len(inside), "n": len(ke)}
    rest = ke - inside
    for u, w in graph.edges:
        if u in inside and w not in rest or w in inside and u not in rest:
            return {"edge": (u, w)}
    crossing = {e for e in graph.edges if (e[0] in ke) != (e[1] in ke)}
    return {"cut": sorted(crossing ^ part.cut)} if crossing != part.cut else None


def _product_fault(r: FactorizationReport):
    if not r.det_product_ok:
        return {"det": r.det_g, "det_sd": r.det_sd, "det_ke": r.det_ke}
    if not r.perm_product_ok:
        return {"perm": r.perm_g, "perm_sd": r.perm_sd, "perm_ke": r.perm_ke}
    return None


def _stability_fault(graph, part):
    """Deleting a KE edge e = xy never shrinks SD(G), and keeps it when mu
    does not drop.

    The partition's matching M of G serves every edge; only an e in M
    costs a matching of G - e.  If that one is perfect, SD(G - e) comes
    from its split.  If not, M - e is a maximum matching of G - e, and
    each SD vertex's witness must still be an mm-closed walk under it,
    with x and y unmatched: a walk in G - x - y, where M - e is perfect.
    So each SD pair is SD in G - x - y by the split, on a posy of M - e
    that is one in G - e too (the argument of ``configurations`` for its
    posy half), and SD(G) lies in SD(G - e) with no SD set of G - e
    computed.  The split passes: a witness has only SD vertices, not x, y.

    A failure returns {"edge", "avoidable", "sd_before", "sd_after"}, or,
    for an unavoidable edge, {"edge", "avoidable", "vertex"} with the first
    SD vertex whose witness fails.
    """
    matching, sd_before, ke = part.matching, part.sd_vertices, part.ke_vertices
    for e in [e for e in graph.edges if e[0] in ke and e[1] in ke]:
        smaller = delete_edge(graph, e)
        after = maximum_matching(smaller) if matching.contains_edge(e) else matching
        if after.size < matching.size:
            pairing = list(matching.pairing)
            pairing[e[0]], pairing[e[1]] = e  # x and y unmatched
            for v in sorted(sd_before):
                if not _closed_at(smaller, pairing, v, part.witnesses.get(v)):
                    return {"edge": e, "avoidable": False, "vertex": v}
        elif sd_before != (sd_after := _sd_vertices(smaller, after)):
            return {"edge": e, "avoidable": True,
                    "sd_before": sorted(sd_before), "sd_after": sorted(sd_after)}
    return None


def run_theorem_suite(
    graph: Graph, *, max_order: int = DEFAULT_SUITE_ORDER
) -> TheoremReport:
    """Run every theorem-level check against a matchable graph.

    All checks must pass on any correct input; a failure is always a
    counterexample to a proved statement, i.e. an implementation bug.
    The factorization report comes first, so a graph that it refuses is
    refused before any perfect matching is drawn.
    """
    _check_order(graph.n, max_order, "theorem-suite")
    factorization = factorization_report(graph)
    part = factorization.partition
    found = iter_perfect_matchings(graph, max_order=max_order)
    invariance, independence, reach = _matching_faults(graph, part, found)
    mu_sd, mu_ke = matching_number(part.sd_part), matching_number(part.ke_part)
    block = _block_fault(graph, part)
    table = (
        ("reachability_matching_invariance", invariance),
        ("reachable_includes_partner", _partner_fault(graph, part.matching, reach)),
        ("partition_matching_independence", independence),
        ("sd_witnesses_verify", _witness_fault(graph, part)),
        ("cut_edges_unmatched", block),
        ("mu_additivity", _mu_fault(graph, mu_sd, mu_ke)),
        ("ke_part_is_koenig_egervary", _ke_fault(part, mu_ke, block is None)),
        ("sd_part_not_koenig_egervary", _sd_fault(part, mu_sd)),
        ("full_reachability_when_ke_empty", _reach_fault(graph, part, reach)),
        ("sachs_cut_disjointness", block),
        ("det_multiplicativity", _product_fault(factorization)),
        ("stability_under_deletion", _stability_fault(graph, part)),
    )
    checks = [CheckResult(name, fault is None, fault) for name, fault in table]
    return TheoremReport(factorization, checks)


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
    if not isinstance(extra_edge_prob, (int, float)) or not 0.0 <= extra_edge_prob <= 1.0:
        raise SdkeError(f"probability {extra_edge_prob!r} is not a number in [0, 1]")
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

