import sys
from itertools import product

import pytest

from sdke import (
    BoundExceededError,
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
    sd_ke_partition,
)
from conftest import matchable_corpus, mixed_corpus
from fixtures import (
    complete_graph,
    cycle_graph,
    disjoint_union,
    doctored_splits,
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
from sdke.verification import _block_fault, _ke_fault, _sd_fault
from oracles import (
    brute_alpha,
    exists_max_matching_avoiding,
    independence_number,
    ke_status_by_alpha,
    matched_cut_edge,
    matching_invariance_per_matching,
    reach_by_state_search,
    sachs_cut_disjointness,
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
    # The faults of the KE and the SD check, each None when it passes.
    mu_sd, mu_ke = matching_number(part.sd_part), matching_number(part.ke_part)
    return _ke_fault(part, mu_ke), _sd_fault(part, mu_sd)


def _ke_corpus():
    """(name, graph) of seeded matchable graphs with n <= 20."""
    graphs = [(f"seed {seed}", g) for seed, g in matchable_corpus(40, max_n=12)]
    graphs += [((n, prob, seed), random_matchable_graph(n, prob, seed))
               for n in range(4, 21, 2) for prob in (0.1, 0.2, 0.3) for seed in range(12)]
    return graphs


def test_parts_ke_status_on_corpus():
    # The certificates give the verdicts the independence numbers give, on
    # seeded matchable graphs with n <= 20: on each partition, with its
    # parts swapped, and with each SD component moved into KE.
    verdicts = []
    for name, g in _ke_corpus():
        for kind, part in ke_status_cases(g):
            got = [fault is None for fault in _ke_status(part)]
            assert got == ke_status_by_alpha(part), (name, kind)
            verdicts += got
    assert verdicts.count(False) > 100 and verdicts.count(True) > 100


def test_ke_check_after_block_certificate_equals_full_route():
    # The suite hands the block verdict to the KE check, which then counts
    # the certificate alone.  On the true and doctored splits of the KE
    # corpus, at the part's matching number and one above it, that gives
    # the verdict and payload of the full route.
    import random

    rng = random.Random(27)
    shortened = failed = 0
    for name, g in _ke_corpus():
        for kind, part in [("true", sd_ke_partition(g)), *doctored_splits(g, rng)]:
            independent = _block_fault(g, part) is None
            failed += not independent
            for mu in (matching_number(part.ke_part), matching_number(part.ke_part) + 1):
                full = _ke_fault(part, mu)
                assert _ke_fault(part, mu, independent) == full, (name, kind, mu)
                shortened += independent and full is not None
    assert shortened > 100 and failed > 100


def test_theorem_suite_hands_the_block_verdict_to_the_ke_check(monkeypatch):
    # On its own partition the block certificate passes, so the suite asks
    # the KE check for its count alone.
    from sdke import verification

    seen = []
    original = verification._ke_fault

    def recorded(part, mu, independent=False):
        seen.append(independent)
        return original(part, mu, independent)

    monkeypatch.setattr(verification, "_ke_fault", recorded)
    for g in (posy12(), ladder8(), tangle8()):
        assert run_theorem_suite(g).all_passed
    assert seen == [True, True, True]


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
    # that identify the offense: an edge of G between two partners of KE
    # certificate members, for the KE check and for the block certificate,
    # and a matching whose SD set is not the partition's.
    from sdke.verification import _matching_faults

    g = posy12()
    bad = _doctored_partition(g)
    invariance, independence, _ = _matching_faults(g, bad, iter_perfect_matchings(g))
    ke, sd = _ke_status(bad)
    assert invariance is None and sd is None
    partners = {bad.matching.pairing[x] for x in bad.failed_searches}
    assert g.has_edge(*ke["edge"]) and set(ke["edge"]) <= partners
    assert _block_fault(g, bad) == {"edge": ke["edge"]}
    assert independence["sd"] != independence["sd_reference"] == sorted(bad.sd_vertices)


def test_ke_status_checks_name_each_failing_part():
    # Swapping posy12's parts (SD 0-9, KE 10-11, M(10) = 11) makes both
    # verdicts wrong, and each check names what its certificate lacks.  The
    # one KE member, 11, is independent, but 1 + mu(SD part) = 6 falls
    # short of the part's 10 vertices; the witnesses at 0 leave the
    # 2-vertex part.  An empty part passes either way.
    p = sd_ke_partition(posy12())
    mu_sd, mu_ke = matching_number(p.sd_part), matching_number(p.ke_part)
    swapped = replaced(p, sd_part=p.ke_part, ke_part=p.sd_part)
    assert _ke_status(swapped) == ({"certificate": 1, "mu": 5, "n": 10}, {"vertex": 0})
    for doctored in (
        replaced(p, sd_part=build_graph(0, [])),
        replaced(p, ke_part=build_graph(0, [])),
    ):
        assert _ke_status(doctored) == (None, None)
    # A member outside KE, and two members joined by an edge.
    for failed, want in (({0, 10}, {"vertex": 1}), ({10, 11}, {"edge": (10, 11)})):
        assert _ke_status(replaced(p, failed_searches=frozenset(failed))) == (want, None)
    # The walks at 0 and 1 rule out n/2 independent vertices only when
    # every matched pair is an edge of the SD part; 6-7 is one, off the walks.
    doctored = replaced(p, sd_part=delete_edge(p.sd_part, (6, 7)))
    assert _ke_status(doctored) == (None, {"vertex": 0})
    # The matching numbers are the caller's, shared with the additivity
    # check, and are not computed again: one more on the KE side fails the
    # KE certificate's size, and one less on the SD side leaves that part
    # without a perfect matching, which its certificate needs.
    assert _sd_fault(p, mu_sd) is None and _ke_fault(p, mu_ke) is None
    assert _ke_fault(p, mu_ke + 1) == {"certificate": 1, "mu": mu_ke + 1, "n": 2}
    assert _sd_fault(p, mu_sd - 1) == {"mu": mu_sd - 1, "n": 10}


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
            mu_ke = matching_number(moved.ke_part)
            pairs = [(v, pairing[v]) for v in sorted(comp) if v < pairing[v]]
            for choice in product(*pairs):
                doctored = replaced(moved, failed_searches=part.failed_searches | set(choice))
                assert _ke_fault(doctored, mu_ke) is not None, (name, sorted(comp), choice)
            cases += 1
    assert cases > 100


def test_sd_certificate_fails_without_witnesses():
    # The SD verdict rests on the witnesses at the smallest SD vertex and
    # its partner; a partition stripped of its witnesses certifies nothing.
    cases = 0
    for name, _, part in _with_sd_vertices():
        _, sd = _ke_status(replaced(part, witnesses={}))
        assert sd == {"vertex": min(part.sd_vertices)}, name
        cases += 1
    assert cases > 100


def test_counterexample_payload_identifies_matched_cut_edge():
    import random

    g = posy12()
    p = sd_ke_partition(g)
    # Pretend a matched SD edge is a cut edge: the block certificate names
    # it, beside the true cut edge the doctored cut lacks, and the
    # per-matching oracle finds it in the partition's matching.
    doctored = replaced(p, cut=frozenset({(0, 1)}))
    assert _block_fault(g, doctored) == {"cut": [(0, 1), (8, 10)]}
    assert matched_cut_edge([p.matching], doctored.cut) == ((0, 1), p.matching)
    # Random edge sets as the cut: the certificate passes the true cut
    # only, and names exactly the edges where a cut differs from it; the
    # per-matching oracle passes some of the others, and fails none that
    # the certificate passes.
    rng = random.Random(3)
    verdicts = []
    for _, g in matchable_corpus(60, max_n=10):
        matchings = list(iter_perfect_matchings(g))
        part = sd_ke_partition(g)
        cuts = [part.cut] + [frozenset(rng.sample(g.edges, min(k, g.num_edges))) for k in (1, 2, 4)]
        for cut in cuts:
            fault = _block_fault(g, replaced(part, cut=cut))
            want = matched_cut_edge(matchings, cut)
            assert fault == (None if cut == part.cut else {"cut": sorted(cut ^ part.cut)})
            assert fault is not None or want is None, (g.edges, cut)
            verdicts.append(want is None)
    assert verdicts.count(False) > 30 and verdicts.count(True) > 30


def _assert_block_verdict_is_sound(g, part, matchings):
    # A pass of the block certificate implies a pass of both exhaustive
    # routes, the Sachs enumeration and the per-matching cut check.
    passed = _block_fault(g, part) is None
    sachs, _ = sachs_cut_disjointness(g, part.cut)
    unmatched = matched_cut_edge(matchings, part.cut) is None
    assert not passed or sachs and unmatched, (g.edges, sorted(part.sd_vertices))
    return passed, sachs and unmatched


def test_block_certificate_passes_on_true_splits():
    # Completeness: the certificate holds on every split the library
    # makes, as do both exhaustive routes.
    graphs = [g for _, g in matchable_corpus(200, max_n=12)]
    graphs += [ladder8(), tangle8(), posy12(), cycle_graph(4), complete_graph(8)]
    for g in graphs:
        part = sd_ke_partition(g)
        got = _assert_block_verdict_is_sound(g, part, iter_perfect_matchings(g))
        assert got == (True, True), g.edges


def test_block_certificate_pass_implies_no_crossing_sachs_subgraph():
    # Soundness on doctored splits (random cuts, random unions of matched
    # pairs, moved SD components): the certificate passes none that an
    # exhaustive route fails.  It is stricter: it fails some that both
    # routes pass.
    import random

    rng = random.Random(5)
    verdicts = []
    for _, g in matchable_corpus(120, max_n=10):
        matchings = list(iter_perfect_matchings(g))
        for _, part in doctored_splits(g, rng):
            verdicts.append(_assert_block_verdict_is_sound(g, part, matchings))
    assert verdicts.count((False, False)) > 30 and verdicts.count((True, True)) > 30
    assert verdicts.count((False, True)) > 30


def test_block_certificate_catches_both_mutations():
    # An SD component moved into KE, with one member per pair added to
    # failed_searches, and g given one more edge from a partner of a
    # failed search (an I vertex) to an SD vertex, with g's own partition
    # kept: each fails the certificate.
    moved = added = 0
    for name, g, part in _with_sd_vertices():
        for kind, doctored in ke_status_cases(g):
            if kind.startswith("moved"):
                assert _block_fault(g, doctored) is not None, (name, kind)
                moved += 1
        pairing = part.matching.pairing
        inside = sorted(pairing[v] for v in part.failed_searches)
        for x, y in product(inside, sorted(part.sd_vertices)):
            if not g.has_edge(x, y):
                more = build_graph(g.n, g.edges + ((x, y),))
                assert _block_fault(more, part) == {"edge": (min(x, y), max(x, y))}, name
                added += 1
                break
    assert moved > 100 and added > 30


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
    # Nor when the permanents do not factor, as in a doctored report,
    # where the cut verdict used to enumerate them: the block certificate
    # reads the partition only.
    from sdke import verification

    def doctored(graph):
        return replaced(factorization_report(graph), perm_product_ok=False)

    monkeypatch.setattr(verification, "factorization_report", doctored)
    report = run_theorem_suite(posy12())
    assert [c.name for c in report.failed()] == ["det_multiplicativity"]
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
    from sdke.verification import _partner_fault

    g = posy12()
    m = sd_ke_partition(g).matching
    reach = list(reach_by_state_search(g, m))
    assert _partner_fault(g, m, reach) is None
    # From M(11) = 10 the walk goes on through edge 10-8 into the SD core;
    # keeping only 10 holds the partner but is not closed.
    reach[11] = frozenset({10})
    assert _partner_fault(g, m, reach) == {"vertex": 11, "edge": (10, 8), "missing": 9}
    reach[11] = frozenset({8, 9})
    assert _partner_fault(g, m, reach) == {"vertex": 11}


def test_full_reach_check_names_a_vertex_short_of_its_component():
    # K4 beside a K2: K4 has no KE vertex, so each of its vertices must
    # reach all four; the K2 is KE, so its reach is not checked.
    from sdke.verification import _reach_fault

    g = disjoint_union(complete_graph(4), path_graph(2))
    part = sd_ke_partition(g)
    reach = list(reach_by_state_search(g, part.matching))
    assert part.ke_vertices == {4, 5} and _reach_fault(g, part, reach) is None
    reach[4] = frozenset()
    assert _reach_fault(g, part, reach) is None
    reach[2] = frozenset({0, 1, 2})
    assert _reach_fault(g, part, reach) == {"vertex": 2, "component": [0, 1, 2, 3]}


def test_product_check_names_the_product_that_fails():
    # Doctored reports: a det that does not factor is named before the
    # perm, and a perm that does not factor, or is missing, is named too.
    from sdke.verification import _product_fault

    r = factorization_report(posy12())
    assert r.det_product_ok and r.perm_product_ok and _product_fault(r) is None
    det = replaced(r, det_ke=r.det_ke + 1, det_product_ok=False)
    perm = replaced(r, perm_ke=r.perm_ke + 1, perm_product_ok=False)
    want = {"det": r.det_g, "det_sd": r.det_sd, "det_ke": r.det_ke + 1}
    assert _product_fault(det) == _product_fault(replaced(det, perm_product_ok=False)) == want
    want = {"perm": r.perm_g, "perm_sd": r.perm_sd, "perm_ke": r.perm_ke + 1}
    assert _product_fault(perm) == want
    assert _product_fault(replaced(r, perm_product_ok=None))["perm"] == r.perm_g


def _stability_graphs():
    graphs = [g for _, g in matchable_corpus(200, max_n=12)]
    return graphs + [ladder8(), tangle8(), posy12(), k10_pendant(), complete_graph(6),
                     path_graph(4)]


def test_stability_loop_equals_per_edge_oracle():
    # The oracle's search lists simple odd cycles, and on k10_pendant's one
    # KE edge it stops at its cycle cap, where the loop, which computes no
    # SD set of G - e, checks the edge and passes.  Elsewhere the two agree.
    from sdke.verification import _stability_fault

    for i, g in enumerate(_stability_graphs()):
        part = sd_ke_partition(g)
        want = stability_per_edge(g, 12)
        if g == k10_pendant():
            assert want == {
                "skipped": [{"edge": (10, 11), "bound": "more than 200000 simple cycles"}]
            }
            assert _stability_fault(g, part) is None
            continue
        assert _stability_fault(g, part) == want, f"graph {i}"


def test_stability_faults_make_the_loop_differ_from_the_oracle(monkeypatch):
    # A fault in the split route on G - e (one vertex added) or in the
    # certificate of an unavoidable edge (one SD witness dropped) must fail
    # the loop, while the per-edge oracle, which reads neither, still passes.
    from sdke import decomposition
    from sdke.verification import _stability_fault

    split = decomposition._split
    graphs = [g for g in _stability_graphs() if g.n <= 10 or g == posy12()]
    failed, witnessed = 0, []
    for g in graphs:
        part = sd_ke_partition(g)
        sd, size = part.sd_vertices, g.num_edges
        want = stability_per_edge(g, 12)
        assert want == _stability_fault(g, part), g.edges

        def add(graph, pairing):
            arcs, comp, got = split(graph, pairing)
            if graph.num_edges == size or len(got) == graph.n:
                return arcs, comp, got
            return arcs, comp, got | {min(set(range(graph.n)) - got)}

        with monkeypatch.context() as patch:
            patch.setattr(decomposition, "_split", add)
            got = _stability_fault(g, part)
            assert stability_per_edge(g, 12) == want, g.edges
        if got is not None:
            assert got != want, g.edges
            failed += 1

        unavoidable = [e for e in g.edges if set(e) <= part.ke_vertices
                       and not exists_max_matching_avoiding(g, e)]
        if sd and unavoidable:
            v = min(sd)
            dropped = replaced(part, witnesses={u: w for u, w in part.witnesses.items() if u != v})
            assert _stability_fault(g, dropped) == {
                "edge": unavoidable[0], "avoidable": False, "vertex": v}, g.edges
            assert want is None
            witnessed.append(g)
    assert failed >= 50 and len(witnessed) >= 5 and posy12() in witnessed, failed


def test_stability_witnesses_are_checked_without_the_deleted_edge():
    # Two triangles joined by 2-3, which every perfect matching uses: every
    # vertex is SD, and 0's witness 0-1-2-3-4-5-3-2-1-0 runs through 2-3.
    # A split that calls 2 and 3 KE makes 2-3 an unavoidable KE edge, and
    # that witness, read in G - e, no longer certifies SD(G) <= SD(G - e).
    from sdke.verification import _stability_fault

    g = build_graph(6, [(0, 1), (0, 2), (1, 2), (2, 3), (3, 4), (3, 5), (4, 5)])
    assert sd_ke_partition(g).sd_vertices == set(range(6))
    assert _stability_fault(g, split_at(g, {0, 1, 4, 5})) == {
        "edge": (2, 3), "avoidable": False, "vertex": 0}


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
        verification._stability_fault(g, part)
        assert found == [
            delete_edge(g, e) for e in g.edges
            if part.matching.contains_edge(e) and set(e) <= part.ke_vertices
        ]


def test_suite_runs_no_exhaustive_sd_search(monkeypatch):
    # An unavoidable KE edge is checked by the SD witnesses, and an
    # avoidable one by the split of G - e, so the suite never calls the
    # exhaustive search, not even on posy12 and k10_pendant, whose KE edges
    # include unavoidable ones beside SD vertices.
    from sdke import configurations

    calls = []
    monkeypatch.setattr(configurations, "sd_vertices_bruteforce", lambda *a, **k: calls.append(a))
    for g in _stability_graphs():
        assert run_theorem_suite(g).all_passed
    assert calls == []


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
                assert verification._matching_faults(g, part, iter(matchings)) == want


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
                            got = verification._matching_faults(g, part, iter(matchings))
                            want = oracles.matching_invariance_per_matching(
                                g, matchings, part)
                        assert got[:2] == want[:2], (at, v, u)
                        failures += got[0] is not None
                    with monkeypatch.context() as m:
                        _fault_reference_reach(m, part.matching.pairing, v, v)
                        _fault_oracle_reach(m, 0, v, v)
                        got = verification._matching_faults(g, part, iter(matchings))
                        want = oracles.matching_invariance_per_matching(
                            g, matchings, part)
                    assert got[:2] == want[:2], v
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
    invariance, independence, reach = verification._matching_faults(g, part, iter(matchings))
    assert reach == reach_by_state_search(g, matchings[0])
    full = sorted(reach[0])
    assert invariance == {
        "vertex": 0,
        "matching_a": matchings[0].edge_pairs(),
        "matching_b": matchings[1].edge_pairs(),
        "reach_a": full,
        "reach_b": [x for x in full if x != 0],
    }
    sd = sorted(part.sd_vertices)
    assert independence == {
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

    for v in sorted(part.sd_vertices):
        w = part.witnesses.get(v)
        if (
            w is None
            or not w.is_closed
            or w.vertices[0] != v
            or w.kind != "mm"
            or not verify_walk(graph, part.matching, w)
        ):
            return {"vertex": v}
    return None


def test_witness_check_validates_once_and_agrees_with_verify_walk(monkeypatch):
    # Doctored witnesses (a broken step, a wrong kind tag, walks found under
    # another perfect matching) and a matching that is not one of the graph
    # fail the suite's check exactly as they fail verify_walk per walk; the
    # suite validates the matching once per partition, not once per walk.
    from itertools import islice

    from sdke import AlternatingWalk, Matching
    from sdke.verification import _witness_fault

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
            got = _witness_fault(g, p)
            assert len(validated) == 1
            assert got == _witnesses_by_verify_walk(g, p), (g.edges, kind)
            verdicts.setdefault(kind, []).append(got is None)
    assert all(verdicts["true"]) and len(verdicts["true"]) > 30
    assert not any(verdicts["step"] + verdicts["tag"] + verdicts["order"])
    assert verdicts["other"].count(True) > 5 and verdicts["other"].count(False) > 5
    assert verdicts["pairs"].count(False) > 5
