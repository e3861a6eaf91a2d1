import sys
from itertools import product

import pytest

from sdke import (
    BoundExceededError,
    FactorizationReport,
    NotMatchableError,
    SdkeError,
    build_graph,
    delete_edge,
    factorization_report,
    is_matchable,
    iter_perfect_matchings,
    matching_number,
    maximum_matching,
    random_matchable_graph,
    run_theorem_suite,
    sachs_cut_disjointness,
    sd_ke_partition,
)
from conftest import matchable_corpus, mixed_corpus
from fixtures import (
    complete_graph,
    cycle_graph,
    k10_pendant,
    ke_status_cases,
    ladder8,
    path_graph,
    posy12,
    random_graph,
    replaced,
    sd_components,
    split_at,
    tangle8,
)
from sdke.decomposition import _sd_vertices
from sdke.verification import _check_ke_status
from oracles import (
    brute_alpha,
    exists_max_matching_avoiding,
    independence_number,
    ke_status_by_alpha,
    matching_invariance_per_matching,
    reach_by_state_search,
    sd_from_reach,
    stability_per_edge,
)


def test_alpha_fixtures():
    assert independence_number(build_graph(2, [(0, 1)])) == 1
    assert independence_number(cycle_graph(5)) == 2
    assert independence_number(ladder8()) == 4
    assert independence_number(complete_graph(7)) == 1
    assert independence_number(build_graph(0, [])) == 0
    assert independence_number(build_graph(4, [])) == 4


def test_alpha_against_subset_oracle():
    for seed, g in mixed_corpus(50, max_n=10):
        assert independence_number(g) == brute_alpha(g), f"seed {seed}"


def _ke_gap(g):
    # n - alpha - mu, which is 0 exactly on Koenig-Egervary graphs.
    return g.n - independence_number(g) - matching_number(g)


def test_ke_check_fixtures():
    assert _ke_gap(cycle_graph(4)) == 0  # 2 + 2 = 4
    assert _ke_gap(cycle_graph(5)) == 1  # 2 + 2 != 5
    assert _ke_gap(ladder8()) == 0
    assert _ke_gap(tangle8()) > 0


def _ke_status(part):
    mu_sd, mu_ke = matching_number(part.sd_part), matching_number(part.ke_part)
    return _check_ke_status(part, mu_sd, mu_ke)


def test_parts_ke_status_on_corpus():
    # The certificates give the verdicts the independence numbers give, on
    # seeded matchable graphs with n <= 20: on each partition, with its
    # parts swapped, and with each SD component moved into KE.
    graphs = [(f"seed {seed}", g) for seed, g in matchable_corpus(40, max_n=12)]
    graphs += [((n, prob, seed), random_matchable_graph(n, prob, seed))
               for n in range(4, 21, 2) for prob in (0.1, 0.2, 0.3) for seed in range(12)]
    verdicts = []
    for name, g in graphs:
        for kind, part in ke_status_cases(g):
            got = [r.passed for r in _ke_status(part)]
            assert got == ke_status_by_alpha(part), (name, kind)
            verdicts += got
    assert verdicts.count(False) > 100 and verdicts.count(True) > 100


def test_theorem_suite_fixtures():
    for g in (ladder8(), tangle8(), posy12(), cycle_graph(4)):
        report = run_theorem_suite(g)
        assert report.all_passed, [c.name for c in report.failed()]
        names = {c.name for c in report.checks}
        assert "sachs_cut_disjointness" in names
        assert "det_multiplicativity" in names
        assert "stability_under_deletion" in names


def test_theorem_suite_builds_one_partition(monkeypatch):
    # Wrap sd_ke_partition in every sdke namespace that binds it.  The
    # matching-independence check compares SD sets only, so the number of
    # partitions must not grow with the number of perfect matchings.
    calls = []

    def counted(*args, **kwargs):
        calls.append(1)
        return sd_ke_partition(*args, **kwargs)

    for name, module in list(sys.modules.items()):
        if name == "sdke" or name.startswith("sdke."):
            for attr, value in vars(module).items():
                if value is sd_ke_partition:
                    monkeypatch.setattr(module, attr, counted)
    for g in (complete_graph(8), posy12(), tangle8()):
        calls.clear()
        assert run_theorem_suite(g).all_passed
        assert calls == [1]


def test_theorem_suite_reachability_calls(monkeypatch):
    # Wrap the one-vertex reach, the all-vertex reach sweep and the SD
    # split in every sdke namespace that binds them.  The partition's
    # matching is the one reference, whether or not it is the first
    # perfect matching: one reach sweep, of D under that matching, and one
    # split of G, the partition's own (the stability check splits G - e
    # only); the reach under every matching comes from its own packed
    # closure.
    from sdke.alternating import _component_reach, reachable_set
    from sdke.decomposition import _split

    calls = {"reachable_set": [], "_component_reach": [], "_split": []}

    def counting(fn):
        def counted(*args, **kwargs):
            calls[fn.__name__].append(args[0])
            return fn(*args, **kwargs)
        return counted

    wrapped = {fn: counting(fn) for fn in (reachable_set, _component_reach, _split)}
    for name, module in list(sys.modules.items()):
        if name == "sdke" or name.startswith("sdke."):
            for attr, value in list(vars(module).items()):
                if callable(value) and value in wrapped:
                    monkeypatch.setattr(module, attr, wrapped[value])
    seen = set()
    for g in (complete_graph(8), posy12(), tangle8(), random_matchable_graph(8, 0.2, 8)):
        for log in calls.values():
            log.clear()
        assert run_theorem_suite(g).all_passed
        assert calls["reachable_set"] == []
        assert calls["_split"].count(g) == 1
        # A sweep over n arcs lists is one over a D; the exhaustive search
        # on a non-matchable G - e sweeps its 2n states.
        (arcs,) = [a for a in calls["_component_reach"] if len(a) == g.n]
        pairing = sd_ke_partition(g).matching.pairing
        assert arcs == [[pairing[y] for y in nbrs if y != pairing[x]]
                        for x, nbrs in enumerate(g.adjacency)]
        seen.add(pairing != next(iter_perfect_matchings(g)).pairing)
    assert seen == {False, True}


def test_theorem_suite_rejects_non_matchable():
    # The partition of the factorization report refuses, at odd and at
    # even order.
    for g in (cycle_graph(5), build_graph(4, [(0, 1), (0, 2), (0, 3)])):
        with pytest.raises(NotMatchableError, match="requires a graph with a perfect matching"):
            run_theorem_suite(g)


def test_theorem_suite_bound():
    with pytest.raises(BoundExceededError):
        run_theorem_suite(random_matchable_graph(14, 0.1, 3))


def test_theorem_suite_on_sample_corpus():
    for seed, g in matchable_corpus(25, max_n=10):
        report = run_theorem_suite(g)
        assert report.all_passed, (seed, [c.name for c in report.failed()])


def test_random_matchable_graph_basics():
    assert random_matchable_graph(2, 0.0, 1).edges == ((0, 1),)
    k4 = random_matchable_graph(4, 1.0, 9)
    assert k4.num_edges == 6
    g = random_matchable_graph(12, 0.25, 7)
    assert is_matchable(g)
    assert random_matchable_graph(12, 0.25, 7) == g  # deterministic
    with pytest.raises(SdkeError):
        random_matchable_graph(5, 0.2, 0)
    with pytest.raises(SdkeError):
        random_matchable_graph(4, 1.5, 0)


def test_random_graph_deterministic():
    # The test-only generator behind mixed_corpus.
    assert random_graph(9, 0.4, 11) == random_graph(9, 0.4, 11)
    assert random_graph(9, 0.0, 11).num_edges == 0
    assert random_graph(5, 1.0, 11).num_edges == 10


def _doctored_partition(g):
    # Move the connected component of G[SD] that holds the least SD vertex
    # into KE, as fixtures.ke_status_cases does, with the smaller end of
    # each of its pairs as KE certificate member: a wrong KE verdict.
    p = sd_ke_partition(g)
    comp = min(sd_components(p), key=min)
    pairing = p.matching.pairing
    members = p.failed_searches | {v for v in comp if v < pairing[v]}
    return replaced(split_at(g, p.sd_vertices - comp), failed_searches=members)


def test_injected_counterexamples_reverify_as_failures():
    # A fabricated wrong partition must trip the checks and carry payloads
    # that identify the offense.
    from sdke.verification import _check_perfect_matchings

    g = posy12()
    bad = _doctored_partition(g)
    results = list(_check_perfect_matchings(g, bad, iter_perfect_matchings(g))[:3])
    results.extend(_ke_status(bad))
    failing = [r for r in results if not r.passed]
    assert "ke_part_is_koenig_egervary" in [r.name for r in failing]
    assert all(r.counterexample is not None for r in failing)


def test_ke_status_checks_name_each_failing_part():
    # Swapping posy12's parts (SD 0-9, KE 10-11, M(10) = 11) makes both
    # verdicts wrong, and each check names what its certificate lacks.  The
    # one KE member, 11, is independent, but 1 + mu(SD part) = 6 falls
    # short of the part's 10 vertices; the witnesses at 0 leave the
    # 2-vertex part.  An empty part passes either way.
    p = sd_ke_partition(posy12())
    mu_sd, mu_ke = matching_number(p.sd_part), matching_number(p.ke_part)
    swapped = replaced(p, sd_part=p.ke_part, ke_part=p.sd_part)
    ke, sd = _ke_status(swapped)
    assert (ke.name, ke.passed, ke.counterexample) == (
        "ke_part_is_koenig_egervary", False, {"certificate": 1, "mu": 5, "n": 10}
    )
    assert (sd.name, sd.passed, sd.counterexample) == (
        "sd_part_not_koenig_egervary", False, {"vertex": 0}
    )
    for doctored in (
        replaced(p, sd_part=build_graph(0, [])),
        replaced(p, ke_part=build_graph(0, [])),
    ):
        assert all(r.passed for r in _ke_status(doctored))
    # A member outside KE, and two members joined by an edge.
    for failed, want in (({0, 10}, {"vertex": 1}), ({10, 11}, {"edge": (10, 11)})):
        ke, sd = _ke_status(replaced(p, failed_searches=frozenset(failed)))
        assert sd.passed and (ke.passed, ke.counterexample) == (False, want)
    # The walks at 0 and 1 rule out n/2 independent vertices only when
    # every matched pair is an edge of the SD part; 6-7 is one, off the walks.
    ke, sd = _ke_status(replaced(p, sd_part=delete_edge(p.sd_part, (6, 7))))
    assert ke.passed and (sd.passed, sd.counterexample) == (False, {"vertex": 0})
    # The matching numbers are the caller's, shared with the additivity
    # check, and are not computed again: one more on the KE side fails the
    # KE certificate's size, and one less on the SD side leaves that part
    # without a perfect matching, which its certificate needs.
    ke, sd = _check_ke_status(p, mu_sd, mu_ke + 1)
    assert sd.passed and not ke.passed
    assert ke.counterexample == {"certificate": 1, "mu": mu_ke + 1, "n": 2}
    ke, sd = _check_ke_status(p, mu_sd - 1, mu_ke)
    assert ke.passed and not sd.passed
    assert sd.counterexample == {"mu": mu_sd - 1, "n": 10}


def _with_sd_vertices():
    # Seeded matchable graphs with n <= 12 that have SD vertices, and their
    # partitions: 157 of 360.
    for n in range(6, 13, 2):
        for prob in (0.2, 0.3, 0.4):
            for seed in range(30):
                g = random_matchable_graph(n, prob, seed)
                part = sd_ke_partition(g)
                if part.sd_vertices:
                    yield (n, prob, seed), g, part


def test_ke_certificate_fails_with_an_sd_component_moved_to_ke():
    # A connected component C of G[SD] moved into KE makes the KE part
    # non-Koenig-Egervary (see fixtures.ke_status_cases), so no choice of
    # one member per pair of C, added to failed_searches, may certify it.
    cases = 0
    for name, g, part in _with_sd_vertices():
        pairing = part.matching.pairing
        for comp in sd_components(part):
            moved = split_at(g, part.sd_vertices - comp)
            mu_sd, mu_ke = matching_number(moved.sd_part), matching_number(moved.ke_part)
            pairs = [(v, pairing[v]) for v in sorted(comp) if v < pairing[v]]
            for choice in product(*pairs):
                doctored = replaced(moved, failed_searches=part.failed_searches | set(choice))
                ke, _ = _check_ke_status(doctored, mu_sd, mu_ke)
                assert not ke.passed, (name, sorted(comp), choice)
            cases += 1
    assert cases > 100


def test_sd_certificate_fails_without_witnesses():
    # The SD verdict rests on the witnesses at the smallest SD vertex and
    # its partner; a partition stripped of its witnesses certifies nothing.
    cases = 0
    for name, _, part in _with_sd_vertices():
        _, sd = _ke_status(replaced(part, witnesses={}))
        assert (sd.passed, sd.counterexample) == (False, {"vertex": min(part.sd_vertices)}), name
        cases += 1
    assert cases > 100


def test_counterexample_payload_identifies_matched_cut_edge(monkeypatch):
    import random

    from sdke import verification

    g = posy12()
    p = sd_ke_partition(g)
    # Pretend a matched SD edge is a cut edge: the check must flag it.
    doctored = replaced(p, cut=frozenset({(0, 1)}))
    result = verification._check_perfect_matchings(g, doctored, iter([p.matching]))[2]
    assert not result.passed
    assert result.counterexample["edge"] == (0, 1)
    assert [0, 1] in [list(e) for e in result.counterexample["matching"]]
    # The true cut passes, and random edge sets as the cut mostly fail:
    # the partner masks name the first matching that holds a cut edge and
    # its first such edge, as asking every matching about every cut edge
    # does, across chunk boundaries.
    rng = random.Random(3)
    verdicts = []
    for _, g in matchable_corpus(60, max_n=10):
        matchings = list(iter_perfect_matchings(g))
        part = sd_ke_partition(g)
        cuts = [part.cut] + [frozenset(rng.sample(g.edges, min(k, g.num_edges))) for k in (1, 2, 4)]
        for cut in cuts:
            doctored = replaced(part, cut=cut)
            want = matching_invariance_per_matching(g, matchings, doctored)[2]
            verdicts.append(want.passed)
            for chunk in (1, 3, 7):
                monkeypatch.setattr(verification, "_CHUNK", chunk)
                got = verification._check_perfect_matchings(g, doctored, iter(matchings))
                assert got[2] == want, (g.edges, cut, chunk)
    assert verdicts.count(False) > 30 and verdicts.count(True) > 30


def _report_for(g, sd):
    # A factorization report for the split of g at sd, with the permanents
    # of its own parts.
    from sdke import perm_adjacency

    part = split_at(g, sd)
    r = factorization_report(g)
    perm_sd = perm_adjacency(part.sd_part)
    perm_ke = perm_adjacency(part.ke_part)
    return replaced(
        r,
        partition=part,
        perm_sd=perm_sd,
        perm_ke=perm_ke,
        perm_product_ok=r.perm_g == perm_sd * perm_ke,
    )


def _assert_sachs_verdict_matches_enumeration(g, r: FactorizationReport):
    from sdke.verification import _check_sachs_cut

    ok, witness = sachs_cut_disjointness(g, r.partition.cut)
    result = _check_sachs_cut(g, r)
    assert result.passed == ok
    if not ok:
        s, e = witness
        assert result.counterexample == {
            "edge": e, "k2_edges": list(s.k2_edges), "cycles": list(s.cycles)
        }
    return ok


def test_sachs_verdict_equals_enumeration_on_true_splits():
    graphs = [g for _, g in matchable_corpus(200, max_n=12)]
    graphs += [ladder8(), tangle8(), posy12(), cycle_graph(4), complete_graph(8)]
    for g in graphs:
        assert _assert_sachs_verdict_matches_enumeration(g, factorization_report(g))


def test_sachs_verdict_equals_enumeration_on_doctored_cuts():
    # Random unions of matched pairs as the SD side: most such cuts are
    # crossed by some Sachs subgraph, and each must fail with the
    # enumerated counterexample, whether or not permanents were computed.
    import random

    rng = random.Random(5)
    verdicts = []
    for seed, g in matchable_corpus(120, max_n=10):
        pairs = sd_ke_partition(g).matching.edge_pairs()
        for _ in range(2):
            sd = frozenset(x for pair in pairs if rng.random() < 0.5 for x in pair)
            r = _report_for(g, sd)
            verdicts.append(_assert_sachs_verdict_matches_enumeration(g, r))
            no_perm = replaced(r, perm_product_ok=None)
            assert _assert_sachs_verdict_matches_enumeration(g, no_perm) == verdicts[-1]
    assert verdicts.count(False) > 30 and verdicts.count(True) > 30


def test_theorem_suite_enumerates_no_sachs_subgraph_when_perm_factors(monkeypatch):
    from sdke.determinantal import enumerate_sachs

    calls = []

    def counted(*args, **kwargs):
        calls.append(1)
        return enumerate_sachs(*args, **kwargs)

    for name, module in list(sys.modules.items()):
        if name == "sdke" or name.startswith("sdke."):
            for attr, value in vars(module).items():
                if value is enumerate_sachs:
                    monkeypatch.setattr(module, attr, counted)
    for g in (complete_graph(8), posy12(), tangle8(), ladder8()):
        assert run_theorem_suite(g).all_passed
    assert calls == []


def test_reach_derived_sd_set_equals_split_under_every_matching():
    # The oracle's rule (v in R(v) and M(v) in R(M(v))), on the oracle's
    # own reach, against the strong-component split.
    graphs = [g for _, g in matchable_corpus(120, max_n=10)]
    graphs += [ladder8(), tangle8(), posy12(), complete_graph(6)]
    for g in graphs:
        for m in iter_perfect_matchings(g):
            assert sd_from_reach(m, reach_by_state_search(g, m)) == _sd_vertices(g, m)


def test_partner_check_catches_a_reach_set_not_closed_under_a_step():
    from sdke.verification import _check_partner_reachable

    g = posy12()
    m = sd_ke_partition(g).matching
    reach = list(reach_by_state_search(g, m))
    assert _check_partner_reachable(g, m, reach).passed
    # From M(11) = 10 the walk goes on through edge 10-8 into the SD core;
    # keeping only 10 holds the partner but is not closed.
    reach[11] = frozenset({10})
    result = _check_partner_reachable(g, m, reach)
    assert not result.passed
    assert result.counterexample == {"vertex": 11, "edge": (10, 8), "missing": 9}
    reach[11] = frozenset({8, 9})
    result = _check_partner_reachable(g, m, reach)
    assert result.counterexample == {"vertex": 11}


def test_stability_check_fails_on_a_skipped_edge(monkeypatch):
    # The only KE edge of k10_pendant is unavoidable and G - e is not
    # matchable, so the check runs the exhaustive search once.  A search
    # that hits a work bound lists the edge as skipped and fails the check.
    from sdke import configurations
    from sdke.verification import _check_stability

    def bounded(graph, **bounds):
        raise BoundExceededError("work bound")

    g = k10_pendant()
    part = sd_ke_partition(g)
    with monkeypatch.context() as patch:
        patch.setattr(configurations, "sd_vertices_bruteforce", bounded)
        result = _check_stability(g, part, 12)
    assert not result.passed
    assert result.counterexample == {"skipped": [{"edge": (10, 11), "bound": "work bound"}]}
    # Unpatched, the search lists no cycles and checks the edge: G - e is
    # K10 with the pendant 10 on 0, and an isolated 11.  Under a matching
    # that leaves 10 exposed, the stem 10-0-M(0) grows a flower into the
    # triangle of M(0) and any other matched pair, so every vertex but 11
    # is SD.
    assert configurations.sd_vertices_bruteforce(delete_edge(g, (10, 11))) == frozenset(range(11))
    assert _check_stability(g, part, 12).passed


def test_stability_check_reports_a_real_failure_before_skips(monkeypatch):
    from sdke import verification

    g = ladder8()
    first, second = g.edges[:2]

    def fake(graph, matching, **bounds):
        (e,) = g.edge_set - graph.edge_set
        if e == first:
            raise BoundExceededError("work bound")
        if e == second:
            return frozenset({0})
        return frozenset()

    monkeypatch.setattr(verification, "_sd_vertices", fake)
    result = verification._check_stability(g, sd_ke_partition(g), 12)
    assert not result.passed
    assert result.counterexample == {
        "edge": second, "avoidable": True, "sd_before": [], "sd_after": [0]
    }


def _stability_graphs():
    graphs = [g for _, g in matchable_corpus(200, max_n=12)]
    return graphs + [ladder8(), tangle8(), posy12(), k10_pendant(), complete_graph(6),
                     path_graph(4)]


def test_stability_loop_equals_per_edge_oracle():
    # The oracle's search lists simple odd cycles, and on k10_pendant's one
    # KE edge it stops at its cycle cap, where the loop, which lists none,
    # checks the edge and passes.  Elsewhere the two agree.
    from sdke.verification import _check_stability

    for i, g in enumerate(_stability_graphs()):
        part = sd_ke_partition(g)
        want = stability_per_edge(g, 12)
        if g == k10_pendant():
            assert want.counterexample == {
                "skipped": [{"edge": (10, 11), "bound": "more than 200000 simple cycles"}]
            }
            assert _check_stability(g, part, 12).passed
            continue
        assert _check_stability(g, part, 12) == want, f"graph {i}"


def test_stability_faults_make_the_loop_differ_from_the_oracle(monkeypatch):
    # A fault in the exhaustive route (one vertex of SD(G) dropped) or in
    # the split route on G - e (one vertex added) must fail the loop, while
    # the per-edge oracle, which calls neither route, still passes.
    from sdke import configurations, decomposition
    from sdke.verification import _check_stability

    search, split = configurations.sd_vertices_bruteforce, decomposition._split
    graphs = [g for g in _stability_graphs() if g.n <= 10 or g == posy12()]
    failed = {"exhaustive": 0, "split": 0}
    for g in graphs:
        part = sd_ke_partition(g)
        sd, size = part.sd_vertices, g.num_edges
        want = stability_per_edge(g, 12)
        assert want == _check_stability(g, part, 12), g.edges

        def drop(graph, **bounds):
            return search(graph, **bounds) - {min(sd)}

        def add(graph, pairing):
            arcs, comp, got = split(graph, pairing)
            if graph.num_edges == size or len(got) == graph.n:
                return arcs, comp, got
            return arcs, comp, got | {min(set(range(graph.n)) - got)}

        for route, attr, module, fault in (
            ("exhaustive", "sd_vertices_bruteforce", configurations, drop),
            ("split", "_split", decomposition, add),
        ):
            if route == "exhaustive" and not sd:
                continue
            with monkeypatch.context() as patch:
                patch.setattr(module, attr, fault)
                got = _check_stability(g, part, 12)
                assert stability_per_edge(g, 12) == want, (route, g.edges)
            if not got.passed:
                assert got != want, (route, g.edges)
                failed[route] += 1
    assert failed["exhaustive"] >= 5 and failed["split"] >= 50, failed


def test_stability_reuses_the_matching_of_g(monkeypatch):
    # Only a KE edge of G's matching costs a maximum matching, of G - e.
    from sdke import verification

    found = []

    def counted(graph):
        found.append(graph)
        return maximum_matching(graph)

    monkeypatch.setattr(verification, "maximum_matching", counted)
    for g in (ladder8(), posy12(), path_graph(4)):
        part = sd_ke_partition(g)
        found.clear()
        verification._check_stability(g, part, 12)
        assert found == [
            delete_edge(g, e) for e in g.edges
            if part.matching.contains_edge(e) and set(e) <= part.ke_vertices
        ]


def test_exhaustive_search_runs_only_where_the_verdict_depends_on_it(monkeypatch):
    # P4 has no SD vertices, so its two unavoidable end edges need no
    # search; posy12 has SD vertices and runs one search per unavoidable
    # KE edge.
    from sdke import configurations
    from sdke.verification import _check_stability

    search = configurations.sd_vertices_bruteforce
    calls = []

    def counted(graph, **bounds):
        calls.append(graph)
        return search(graph, **bounds)

    monkeypatch.setattr(configurations, "sd_vertices_bruteforce", counted)
    p4 = path_graph(4)
    assert _check_stability(p4, sd_ke_partition(p4), 12).passed
    assert calls == []
    g = posy12()
    part = sd_ke_partition(g)
    unavoidable = [
        e for e in g.edges
        if set(e) <= part.ke_vertices and not exists_max_matching_avoiding(g, e)
    ]
    calls.clear()
    assert _check_stability(g, part, 12).passed
    assert unavoidable and calls == [delete_edge(g, e) for e in unavoidable]


def _fault_packed_reach(monkeypatch, at, v, u):
    # Clear bit u of R(v) under matchings[at] in the packed route; the
    # chunks are closed in order, so the call count gives the chunk.
    from sdke import verification

    closure = verification._packed_reach
    chunks = []

    def faulty(graph, partner, k):
        packed = closure(graph, partner, k)
        i = at - len(chunks) * verification._CHUNK
        chunks.append(k)
        if 0 <= i < k:
            packed[v] &= ~(1 << u * k + i)
        return packed

    monkeypatch.setattr(verification, "_packed_reach", faulty)


def _fault_oracle_reach(monkeypatch, call, v, u):
    # R(v) loses u in the given call of the oracle's reach_by_state_search.
    # Call 0 is the reference; there every R(x) equal to R(v) loses u too:
    # those x have partners in M(v)'s strong component, whose one set the
    # suite's reference shares among them.
    import oracles

    reach = oracles.reach_by_state_search
    calls = []

    def faulty(graph, m):
        sets = reach(graph, m)
        calls.append(1)
        if len(calls) == call + 1:
            hit = {x for x, r in enumerate(sets) if r == sets[v]} if call == 0 else {v}
            return tuple(r - {u} if x in hit else r for x, r in enumerate(sets))
        return sets

    monkeypatch.setattr(oracles, "reach_by_state_search", faulty)


def _fault_reference_reach(monkeypatch, pairing, v, u):
    # The suite's reference sweep drops u from the reach of M(v)'s strong
    # component, the set that every vertex with a partner there shares.
    from sdke import verification

    sweep = verification._component_reach

    def faulty(arcs):
        comp, bits = sweep(arcs)
        bits[comp[pairing[v]]] &= ~(1 << u)
        return comp, bits

    monkeypatch.setattr(verification, "_component_reach", faulty)


def test_packed_closure_equals_per_matching_oracle(monkeypatch):
    # Chunks of 1, 3 and 7 matchings put chunk boundaries inside every
    # graph with more than a few perfect matchings; K10 has 945.  The
    # reference is the partition under the first, the default and the
    # last perfect matching, and a doctored split fails the SD-set check.
    from sdke import verification

    graphs = [g for _, g in matchable_corpus(200, max_n=12)]
    graphs += [ladder8(), tangle8(), posy12(), cycle_graph(4), k10_pendant()]
    graphs += [complete_graph(n) for n in range(2, 11, 2)]
    for g in graphs:
        matchings = list(iter_perfect_matchings(g))
        parts = [sd_ke_partition(g, pm) for pm in (matchings[0], None, matchings[-1])]
        if parts[0].sd_vertices:
            parts.append(_doctored_partition(g))
        for part in parts:
            want = matching_invariance_per_matching(g, matchings, part)
            for chunk in (1, 3, 7):
                monkeypatch.setattr(verification, "_CHUNK", chunk)
                assert verification._check_perfect_matchings(g, part, iter(matchings)) == want


def test_packed_closure_faults_give_the_oracle_payloads(monkeypatch):
    # One bit of one matching's reach cleared in the packed route, at and
    # around chunk boundaries, fails both checks with the payloads the
    # per-matching oracle gives under the same fault in that matching's
    # own reach_by_state_search call (its call at + 1; call 0 is the
    # reference).  A fault in the suite's reference sweep is call 0 of the
    # oracle, on every vertex that shares the faulted set.
    import oracles
    from sdke import verification

    graphs = [tangle8(), posy12(), complete_graph(6)]
    graphs += [g for _, g in matchable_corpus(60, max_n=12)][:12]
    failures = 0
    for g in graphs:
        matchings = list(iter_perfect_matchings(g))
        part = sd_ke_partition(g, matchings[0])
        for chunk in (2, 5):
            monkeypatch.setattr(verification, "_CHUNK", chunk)
            ats = {0, 1, chunk - 1, chunk, len(matchings) - 1}
            for at in sorted(a for a in ats if a < len(matchings)):
                for v in {0, g.n - 1}:
                    for u in {v, matchings[0].pairing[v]}:
                        with monkeypatch.context() as m:
                            _fault_packed_reach(m, at, v, u)
                            _fault_oracle_reach(m, at + 1, v, u)
                            got = verification._check_perfect_matchings(
                                g, part, iter(matchings))
                            want = oracles.matching_invariance_per_matching(
                                g, matchings, part)
                        assert got[:3] == want[:3], (at, v, u)
                        failures += not got[0].passed
                    with monkeypatch.context() as m:
                        _fault_reference_reach(m, part.matching.pairing, v, v)
                        _fault_oracle_reach(m, 0, v, v)
                        got = verification._check_perfect_matchings(
                            g, part, iter(matchings))
                        want = oracles.matching_invariance_per_matching(
                            g, matchings, part)
                    assert got[:3] == want[:3], v
    assert failures > 100


def test_matching_invariance_payloads_name_the_second_matching(monkeypatch):
    # With the packed route doctored so that R(v) loses v for the second
    # perfect matching only, both reach invariance and the reach-derived
    # SD set must fail and name that matching.
    from sdke import verification

    g = tangle8()
    matchings = list(iter_perfect_matchings(g))
    assert len(matchings) >= 2

    _fault_packed_reach(monkeypatch, 1, 0, 0)
    part = sd_ke_partition(g, matchings[0])
    invariance, independence, unmatched, reach = verification._check_perfect_matchings(
        g, part, iter(matchings)
    )
    assert unmatched.passed
    assert reach == reach_by_state_search(g, matchings[0])
    full = sorted(reach[0])
    assert invariance.counterexample == {
        "vertex": 0,
        "matching_a": matchings[0].edge_pairs(),
        "matching_b": matchings[1].edge_pairs(),
        "reach_a": full,
        "reach_b": [x for x in full if x != 0],
    }
    sd = sorted(part.sd_vertices)
    assert independence.counterexample == {
        "matching": matchings[1].edge_pairs(),
        "sd": [x for x in sd if x not in (0, matchings[1].pairing[0])],
        "sd_reference": sd,
    }


def _track_suite_matchings(monkeypatch):
    # Wrap the suite's enumerator: one weak reference per perfect matching
    # it yields, and after each yield the number of them still alive.
    import weakref

    from sdke import verification

    refs, alive = [], []

    def tracked(*args, **kwargs):
        for m in iter_perfect_matchings(*args, **kwargs):
            refs.append(weakref.ref(m))
            alive.append(sum(r() is not None for r in refs))
            yield m

    monkeypatch.setattr(verification, "iter_perfect_matchings", tracked)
    return refs, alive


def test_theorem_suite_caps_perfect_matchings(monkeypatch):
    # K6 has exactly 15 perfect matchings.  The cap is checked as the
    # chunks arrive, so K8 stops within a chunk of the cap; K30 is
    # refused by the permanent bound before any matching is drawn.
    from sdke import verification

    monkeypatch.setattr(verification, "_MAX_MATCHINGS", 15)
    assert run_theorem_suite(complete_graph(6)).all_passed
    monkeypatch.setattr(verification, "_MAX_MATCHINGS", 14)
    with pytest.raises(BoundExceededError, match="more than 14 perfect matchings"):
        run_theorem_suite(complete_graph(6))
    refs, _ = _track_suite_matchings(monkeypatch)
    monkeypatch.setattr(verification, "_CHUNK", 4)
    monkeypatch.setattr(verification, "_MAX_MATCHINGS", 100)
    with pytest.raises(BoundExceededError, match="more than 100 perfect matchings"):
        run_theorem_suite(complete_graph(8))
    assert len(refs) == 104
    refs.clear()
    with pytest.raises(BoundExceededError, match="exceeds permanent bound 22"):
        run_theorem_suite(complete_graph(30), max_order=30)
    assert refs == []


def test_theorem_suite_streams_perfect_matchings(monkeypatch):
    # Only the chunk being checked and the one being drawn are alive: at
    # most 2 * _CHUNK of K8's 105 perfect matchings at once.
    from sdke import verification

    monkeypatch.setattr(verification, "_CHUNK", 4)
    refs, alive = _track_suite_matchings(monkeypatch)
    assert run_theorem_suite(complete_graph(8)).all_passed
    assert len(refs) == 105
    assert max(alive) <= 2 * verification._CHUNK


def test_generators_bound_the_order(monkeypatch):
    from sdke import verification

    with pytest.raises(BoundExceededError, match="generator bound"):
        random_matchable_graph(10**9, 0.0, 1)
    monkeypatch.setattr(verification, "_MAX_RANDOM_ORDER", 10)
    assert random_matchable_graph(10, 0.5, 1).n == 10
    with pytest.raises(BoundExceededError, match="order 12 exceeds generator bound 10"):
        random_matchable_graph(12, 0.5, 1)


def _witnesses_by_verify_walk(graph, part):
    # The per-walk route: verify_walk, with its matching check, at each SD
    # vertex in order, as the suite's check ran before it validated once.
    from sdke import verify_walk
    from sdke.verification import CheckResult

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


def test_witness_check_validates_once_and_agrees_with_verify_walk(monkeypatch):
    # Doctored witnesses (a broken step, a wrong kind tag, walks found under
    # another perfect matching) and a matching that is not one of the graph
    # fail the suite's check exactly as they fail verify_walk per walk; the
    # suite validates the matching once per partition, not once per walk.
    from itertools import islice

    from sdke import AlternatingWalk, Matching
    from sdke.verification import _check_witnesses

    validated = []
    validate = Matching.validate
    monkeypatch.setattr(Matching, "validate", lambda m, g: validated.append(m) or validate(m, g))
    verdicts = {}
    graphs = [g for _, g in matchable_corpus(300, max_n=12)] + [posy12(), tangle8(), ladder8()]
    for g in graphs:
        part = sd_ke_partition(g)
        if not part.sd_vertices:
            continue
        v = max(part.sd_vertices)
        w = part.witnesses[v]
        doctored = [("true", part)] + [
            (kind, replaced(part, witnesses={**part.witnesses, v: walk}))
            for kind, walk in (
                ("step", AlternatingWalk(w.vertices[:1] + w.vertices[2:], "mm")),
                ("step", AlternatingWalk(w.vertices[:-2] + w.vertices[-1:], "mm")),
                ("tag", AlternatingWalk(w.vertices, "nn")),
                ("tag", AlternatingWalk(w.vertices, "mx")),
            )
        ]
        for m in islice(iter_perfect_matchings(g), 1, 4):
            other = sd_ke_partition(g, m)
            assert other.sd_vertices == part.sd_vertices
            doctored.append(("other", replaced(part, witnesses=other.witnesses)))
        # Pairs 2k, 2k + 1 (a matching of g only if each pair is an edge),
        # and a matching of another order.
        pairs = Matching(tuple(x ^ 1 for x in range(g.n)))
        doctored.append(("pairs", replaced(part, matching=pairs)))
        doctored.append(("order", replaced(part, matching=Matching((1, 0)))))
        for kind, p in doctored:
            del validated[:]
            got = _check_witnesses(g, p)
            assert len(validated) == 1
            assert got == _witnesses_by_verify_walk(g, p), (g.edges, kind)
            verdicts.setdefault(kind, []).append(got.passed)
    assert all(verdicts["true"]) and len(verdicts["true"]) > 30
    assert not any(verdicts["step"] + verdicts["tag"] + verdicts["order"])
    assert verdicts["other"].count(True) > 5 and verdicts["other"].count(False) > 5
    assert verdicts["pairs"].count(False) > 5
