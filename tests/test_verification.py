import sys

import pytest

from sdke import (
    BoundExceededError,
    FactorizationReport,
    NotMatchableError,
    SdkeError,
    build_graph,
    delete_edge,
    enumerate_perfect_matchings,
    factorization_report,
    independence_number,
    is_koenig_egervary,
    is_matchable,
    maximum_matching,
    random_graph,
    random_matchable_graph,
    reachable_sets,
    run_theorem_suite,
    sachs_cut_disjointness,
    sd_ke_partition,
    sd_vertices_under,
)
from conftest import matchable_corpus, mixed_corpus
from fixtures import (
    complete_graph,
    cycle_graph,
    k10_pendant,
    ladder8,
    path_graph,
    posy12,
    tangle8,
)
from oracles import (
    brute_alpha,
    exists_max_matching_avoiding,
    matching_invariance_per_matching,
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


def test_alpha_bound():
    with pytest.raises(BoundExceededError):
        independence_number(build_graph(40, []))


def test_ke_check_fixtures():
    assert is_koenig_egervary(cycle_graph(4)).is_ke  # 2 + 2 = 4
    assert not is_koenig_egervary(cycle_graph(5)).is_ke  # 2 + 2 != 5
    assert is_koenig_egervary(ladder8()).is_ke
    assert not is_koenig_egervary(tangle8()).is_ke
    chk = is_koenig_egervary(tangle8())
    assert chk.alpha + chk.mu < chk.n


def test_parts_ke_status_on_corpus():
    for seed, g in matchable_corpus(40, max_n=12):
        p = sd_ke_partition(g)
        assert is_koenig_egervary(p.ke_part).is_ke, f"seed {seed}"
        if p.sd_part.n:
            assert not is_koenig_egervary(p.sd_part).is_ke, f"seed {seed}"


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
    # Wrap both reachability routines in every sdke namespace that binds
    # them.  The suite takes the reference reachable sets of the first
    # perfect matching, and those of the partition's matching when it is
    # another one; the reach under every matching comes from its own
    # packed closure.
    from sdke.alternating import reachable_set, reachable_sets

    calls = {"reachable_set": 0, "reachable_sets": 0}

    def counting(fn):
        def counted(*args, **kwargs):
            calls[fn.__name__] += 1
            return fn(*args, **kwargs)
        return counted

    wrapped = {reachable_set: counting(reachable_set), reachable_sets: counting(reachable_sets)}
    for name, module in list(sys.modules.items()):
        if name == "sdke" or name.startswith("sdke."):
            for attr, value in list(vars(module).items()):
                if callable(value) and value in wrapped:
                    monkeypatch.setattr(module, attr, wrapped[value])
    seen = set()
    for g in (complete_graph(8), posy12(), tangle8(), random_matchable_graph(8, 0.2, 8)):
        calls.update(reachable_set=0, reachable_sets=0)
        assert run_theorem_suite(g).all_passed
        other = sd_ke_partition(g).matching != enumerate_perfect_matchings(g)[0]
        seen.add(other)
        assert calls == {"reachable_set": 0, "reachable_sets": 1 + other}
    assert seen == {False, True}


def test_theorem_suite_rejects_non_matchable():
    with pytest.raises(NotMatchableError):
        run_theorem_suite(cycle_graph(5))


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
    assert random_graph(9, 0.4, 11) == random_graph(9, 0.4, 11)
    assert random_graph(9, 0.0, 11).num_edges == 0
    assert random_graph(5, 1.0, 11).num_edges == 10


def _split_at(g, sd):
    # The partition of g with SD side sd, true or not.
    import dataclasses

    from sdke import induced_subgraph

    ke = frozenset(range(g.n)) - sd
    return dataclasses.replace(
        sd_ke_partition(g),
        sd_vertices=sd,
        ke_vertices=ke,
        sd_part=induced_subgraph(g, sd),
        ke_part=induced_subgraph(g, ke),
        cut=frozenset(e for e in g.edges if (e[0] in sd) != (e[1] in sd)),
    )


def _doctored_partition(g):
    # Swap one matched pair across the separation to fabricate a wrong split.
    p = sd_ke_partition(g)
    v = min(p.sd_vertices)
    return _split_at(g, p.sd_vertices - {v, p.matching.pairing[v]})


def test_injected_counterexamples_reverify_as_failures():
    # A fabricated wrong partition must trip the checks and carry payloads
    # that identify the offense.
    from sdke.matching import enumerate_maximum_matchings
    from sdke.verification import _check_cut_unmatched, _check_ke_status

    g = posy12()
    bad = _doctored_partition(g)
    maxima = enumerate_maximum_matchings(g)
    results = [_check_cut_unmatched(g, bad, maxima)]
    results.extend(_check_ke_status(g, bad, max_order=12))
    failing = [r for r in results if not r.passed]
    assert failing
    assert all(r.counterexample is not None for r in failing)


def test_ke_status_checks_name_each_failing_part():
    # Swapping posy12's parts makes both verdicts wrong; each check names
    # the offending part's numbers.  An empty part passes either way.
    import dataclasses

    from sdke.verification import _check_ke_status

    p = sd_ke_partition(posy12())
    swapped = dataclasses.replace(p, sd_part=p.ke_part, ke_part=p.sd_part)
    ke, sd = _check_ke_status(None, swapped, max_order=12)
    for result, name, side in (
        (ke, "ke_part_is_koenig_egervary", p.sd_part),
        (sd, "sd_part_not_koenig_egervary", p.ke_part),
    ):
        chk = is_koenig_egervary(side)
        assert (result.name, result.passed) == (name, False)
        assert result.counterexample == {"alpha": chk.alpha, "mu": chk.mu, "n": chk.n}
    for doctored in (
        dataclasses.replace(p, sd_part=build_graph(0, [])),
        dataclasses.replace(p, ke_part=build_graph(0, [])),
    ):
        assert all(r.passed for r in _check_ke_status(None, doctored, max_order=12))


def test_counterexample_payload_identifies_matched_cut_edge():
    from sdke.verification import _check_cut_unmatched

    g = posy12()
    p = sd_ke_partition(g)
    # Pretend a matched SD edge is a cut edge: the check must flag it.
    import dataclasses

    doctored = dataclasses.replace(p, cut=frozenset({(0, 1)}))
    result = _check_cut_unmatched(g, doctored, [p.matching])
    assert not result.passed
    assert result.counterexample["edge"] == (0, 1)
    assert [0, 1] in [list(e) for e in result.counterexample["matching"]]


def _report_for(g, sd):
    # A factorization report for the split of g at sd, with the permanents
    # of its own parts.
    import dataclasses

    from sdke import perm_adjacency

    part = _split_at(g, sd)
    r = factorization_report(g)
    perm_sd = perm_adjacency(part.sd_part)
    perm_ke = perm_adjacency(part.ke_part)
    return dataclasses.replace(
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
    import dataclasses
    import random

    rng = random.Random(5)
    verdicts = []
    for seed, g in matchable_corpus(120, max_n=10):
        pairs = sd_ke_partition(g).matching.edge_pairs()
        for _ in range(2):
            sd = frozenset(x for pair in pairs if rng.random() < 0.5 for x in pair)
            r = _report_for(g, sd)
            verdicts.append(_assert_sachs_verdict_matches_enumeration(g, r))
            no_perm = dataclasses.replace(r, perm_product_ok=None)
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
    graphs = [g for _, g in matchable_corpus(120, max_n=10)]
    graphs += [ladder8(), tangle8(), posy12(), complete_graph(6)]
    for g in graphs:
        for m in enumerate_perfect_matchings(g):
            assert sd_from_reach(m, reachable_sets(g, m)) == sd_vertices_under(g, m)


def test_partner_check_catches_a_reach_set_not_closed_under_a_step():
    from sdke.verification import _check_partner_reachable

    g = posy12()
    m = sd_ke_partition(g).matching
    reach = list(reachable_sets(g, m))
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


def test_stability_check_fails_on_a_skipped_edge():
    from sdke.verification import _check_stability

    g = k10_pendant()
    result = _check_stability(g, sd_ke_partition(g), 12)
    assert not result.passed
    assert result.counterexample == {
        "skipped": [{"edge": (10, 11), "bound": "more than 200000 simple cycles"}]
    }


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
    from sdke.verification import _check_stability

    for i, g in enumerate(_stability_graphs()):
        part = sd_ke_partition(g)
        assert _check_stability(g, part, 12) == stability_per_edge(g, part, 12), f"graph {i}"


def test_stability_faults_give_the_oracle_payloads(monkeypatch):
    # The same fault in the exhaustive route (one vertex of SD(G) dropped)
    # or in the split route on G - e (one vertex added) must fail the loop
    # and the per-edge oracle with the same payload.
    from sdke import configurations, decomposition
    from sdke.verification import _check_stability

    search, split = configurations.sd_vertices_bruteforce, decomposition.sd_vertices_under
    graphs = [g for g in _stability_graphs() if g.n <= 10 or g == posy12()]
    failed = {"exhaustive": 0, "split": 0}
    for g in graphs:
        part = sd_ke_partition(g)
        sd, size = part.sd_vertices, g.num_edges

        def drop(graph, **bounds):
            return search(graph, **bounds) - {min(sd)}

        def add(graph, matching):
            got = split(graph, matching)
            if graph.num_edges == size or len(got) == graph.n:
                return got
            return got | {min(set(range(graph.n)) - got)}

        for route, attr, module, fault in (
            ("exhaustive", "sd_vertices_bruteforce", configurations, drop),
            ("split", "sd_vertices_under", decomposition, add),
        ):
            if route == "exhaustive" and not sd:
                continue
            with monkeypatch.context() as patch:
                patch.setattr(module, attr, fault)
                got = _check_stability(g, part, 12)
                want = stability_per_edge(g, part, 12)
            assert got == want, (route, g.edges)
            failed[route] += not got.passed
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
    # search (the per-edge oracle runs one for each); posy12 has SD
    # vertices and runs one search per unavoidable KE edge.
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
    assert stability_per_edge(p4, sd_ke_partition(p4), 12).passed
    assert len(calls) == 2
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


def _fault_reachable_sets(monkeypatch, module, call, v, u):
    # R(v) loses u in the given call of module's reachable_sets.
    calls = []

    def faulty(graph, m):
        sets = reachable_sets(graph, m)
        calls.append(1)
        if len(calls) == call + 1:
            return sets[:v] + (sets[v] - {u},) + sets[v + 1:]
        return sets

    monkeypatch.setattr(module, "reachable_sets", faulty)


def test_packed_closure_equals_per_matching_oracle(monkeypatch):
    # Chunks of 1, 3 and 7 matchings put chunk boundaries inside every
    # graph with more than a few perfect matchings; K10 has 945.
    from sdke import verification

    graphs = [g for _, g in matchable_corpus(200, max_n=12)]
    graphs += [ladder8(), tangle8(), posy12(), cycle_graph(4), k10_pendant()]
    graphs += [complete_graph(n) for n in range(2, 11, 2)]
    for g in graphs:
        matchings = enumerate_perfect_matchings(g)
        for pm in (matchings[0], sd_ke_partition(g).matching, matchings[-1]):
            want = matching_invariance_per_matching(g, matchings, pm)
            for chunk in (1, 3, 7):
                monkeypatch.setattr(verification, "_CHUNK", chunk)
                assert verification._check_matching_invariance(g, matchings, pm) == want


def test_packed_closure_faults_give_the_oracle_payloads(monkeypatch):
    # One bit of one matching's reach cleared in the packed route, at and
    # around chunk boundaries, fails both checks with the payloads the
    # per-matching oracle gives under the same fault in that matching's
    # own reachable_sets call (its call at + 1; call 0 is the reference).
    # A fault in the public reference is the same call 0 on both routes.
    import oracles
    from sdke import verification

    graphs = [tangle8(), posy12(), complete_graph(6)]
    graphs += [g for _, g in matchable_corpus(60, max_n=12)][:12]
    failures = 0
    for g in graphs:
        matchings = enumerate_perfect_matchings(g)
        for chunk in (2, 5):
            monkeypatch.setattr(verification, "_CHUNK", chunk)
            ats = {0, 1, chunk - 1, chunk, len(matchings) - 1}
            for at in sorted(a for a in ats if a < len(matchings)):
                for v in {0, g.n - 1}:
                    for u in {v, matchings[0].pairing[v]}:
                        with monkeypatch.context() as m:
                            _fault_packed_reach(m, at, v, u)
                            _fault_reachable_sets(m, oracles, at + 1, v, u)
                            got = verification._check_matching_invariance(
                                g, matchings, matchings[0])
                            want = oracles.matching_invariance_per_matching(
                                g, matchings, matchings[0])
                        assert got[:2] == want[:2], (at, v, u)
                        failures += not got[0].passed
                    with monkeypatch.context() as m:
                        _fault_reachable_sets(m, verification, 0, v, v)
                        _fault_reachable_sets(m, oracles, 0, v, v)
                        got = verification._check_matching_invariance(
                            g, matchings, matchings[0])
                        want = oracles.matching_invariance_per_matching(
                            g, matchings, matchings[0])
                    assert got[:2] == want[:2], v
    assert failures > 100


def test_matching_invariance_payloads_name_the_second_matching(monkeypatch):
    # With the packed route doctored so that R(v) loses v for the second
    # perfect matching only, both reach invariance and the reach-derived
    # SD set must fail and name that matching.
    from sdke import verification

    g = tangle8()
    matchings = enumerate_perfect_matchings(g)
    assert len(matchings) >= 2

    _fault_packed_reach(monkeypatch, 1, 0, 0)
    invariance, independence, reach = verification._check_matching_invariance(
        g, matchings, matchings[0]
    )
    assert reach == reachable_sets(g, matchings[0])
    full = sorted(reach[0])
    assert invariance.counterexample == {
        "vertex": 0,
        "matching_a": matchings[0].edge_pairs(),
        "matching_b": matchings[1].edge_pairs(),
        "reach_a": full,
        "reach_b": [x for x in full if x != 0],
    }
    sd = sorted(sd_vertices_under(g, matchings[0]))
    assert independence.counterexample == {
        "matching": matchings[1].edge_pairs(),
        "sd": [x for x in sd if x not in (0, matchings[1].pairing[0])],
        "sd_reference": sd,
    }


def test_theorem_suite_caps_perfect_matchings(monkeypatch):
    # K6 has exactly 15 perfect matchings.  The cap is checked on the
    # enumeration itself, so K30 stops after cap + 1 of its 6.2e15.
    from sdke import verification

    monkeypatch.setattr(verification, "_MAX_MATCHINGS", 15)
    assert run_theorem_suite(complete_graph(6)).all_passed
    monkeypatch.setattr(verification, "_MAX_MATCHINGS", 14)
    with pytest.raises(BoundExceededError, match="more than 14 perfect matchings"):
        run_theorem_suite(complete_graph(6))
    monkeypatch.setattr(verification, "_MAX_MATCHINGS", 1000)
    with pytest.raises(BoundExceededError, match="more than 1000 perfect matchings"):
        run_theorem_suite(complete_graph(30), max_order=30)


def test_generators_bound_the_order(monkeypatch):
    from sdke import verification

    for make in (random_matchable_graph, random_graph):
        with pytest.raises(BoundExceededError, match="generator bound"):
            make(10**9, 0.0, 1)
    monkeypatch.setattr(verification, "_MAX_RANDOM_ORDER", 10)
    assert random_matchable_graph(10, 0.5, 1).n == random_graph(10, 0.5, 1).n == 10
    with pytest.raises(BoundExceededError, match="order 12 exceeds generator bound 10"):
        random_matchable_graph(12, 0.5, 1)
    with pytest.raises(BoundExceededError, match="order 11 exceeds generator bound 10"):
        random_graph(11, 0.5, 1)
