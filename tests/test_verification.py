import sys

import pytest

from sdke import (
    BoundExceededError,
    NotMatchableError,
    SdkeError,
    build_graph,
    enumerate_perfect_matchings,
    independence_number,
    is_koenig_egervary,
    is_matchable,
    random_graph,
    random_matchable_graph,
    run_theorem_suite,
    sd_ke_partition,
)
from conftest import matchable_corpus, mixed_corpus
from fixtures import (
    complete_graph,
    cycle_graph,
    ladder8,
    posy12,
    tangle8,
)
from oracles import brute_alpha


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
    # them.  The suite takes all reachable sets in one call per perfect
    # matching, plus one for the partition's matching.
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
    for g in (complete_graph(8), posy12(), tangle8()):
        calls.update(reachable_set=0, reachable_sets=0)
        assert run_theorem_suite(g).all_passed
        assert calls == {
            "reachable_set": 0,
            "reachable_sets": len(enumerate_perfect_matchings(g)) + 1,
        }


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


def _doctored_partition(g):
    # Swap one matched pair across the separation to fabricate a wrong split.
    import dataclasses

    from sdke import induced_subgraph

    p = sd_ke_partition(g)
    v = min(p.sd_vertices)
    u = p.matching.pairing[v]
    sd = p.sd_vertices - {v, u}
    ke = p.ke_vertices | {v, u}
    cut = frozenset(e for e in g.edges if (e[0] in sd) != (e[1] in sd))
    return dataclasses.replace(
        p,
        sd_vertices=sd,
        ke_vertices=ke,
        sd_part=induced_subgraph(g, sd),
        ke_part=induced_subgraph(g, ke),
        cut=cut,
    )


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
