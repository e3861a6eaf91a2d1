import time

import pytest

from sdke import (
    BoundExceededError,
    GraphError,
    NotMatchableError,
    SachsSubgraph,
    build_graph,
    det_adjacency,
    disjoint_union,
    enumerate_sachs,
    factorization_report,
    perm_adjacency,
    sachs_census,
    sachs_cut_disjointness,
    sd_ke_partition,
)
from sdke import determinantal
from sdke.determinantal import _frontier_plan, _perm_frontier, _perm_glynn
from conftest import matchable_corpus, mixed_corpus
from fixtures import (
    complete_graph,
    cycle_graph,
    ladder8,
    mixed32,
    path_graph,
    posy12,
    tangle8,
)
from oracles import brute_det, brute_perm, brute_sachs_count, column_subset_perm


def sachs_key(s: SachsSubgraph):
    return (tuple(sorted(s.k2_edges)), tuple(sorted(s.cycles)))


def test_enumerate_sachs_k2_c3_c4():
    k2 = build_graph(2, [(0, 1)])
    assert [sachs_key(s) for s in enumerate_sachs(k2)] == [((((0, 1)),), ())]
    c3 = cycle_graph(3)
    assert [sachs_key(s) for s in enumerate_sachs(c3)] == [((), ((0, 1, 2),))]
    c4 = cycle_graph(4)
    found = list(enumerate_sachs(c4))
    assert len(found) == 3  # two perfect matchings plus the full cycle
    assert sum(1 for s in found if s.num_cycles == 1) == 1


def test_enumerate_sachs_counts_against_subset_oracle():
    for g in (cycle_graph(4), cycle_graph(5), cycle_graph(6), complete_graph(4),
              complete_graph(5), path_graph(4), ladder8()):
        assert len(list(enumerate_sachs(g))) == brute_sachs_count(g)


def test_sachs_subgraphs_are_valid_and_distinct():
    for seed, g in mixed_corpus(30, max_n=9):
        seen = set()
        for s in enumerate_sachs(g):
            assert s.vertices() == set(range(g.n))  # spanning
            key = sachs_key(s)
            assert key not in seen  # duplicate-free
            seen.add(key)
            for u, v in s.k2_edges:
                assert g.has_edge(u, v)
            cover = []
            for c in s.cycles:
                assert len(c) >= 3
                assert all(
                    g.has_edge(c[i], c[(i + 1) % len(c)]) for i in range(len(c))
                )
                cover.extend(c)
            cover.extend(x for e in s.k2_edges for x in e)
            assert len(cover) == len(set(cover))  # vertex-disjoint


def test_sachs_census():
    (c4_cycle,) = (s for s in enumerate_sachs(cycle_graph(4)) if s.num_cycles)
    assert c4_cycle.num_even_components == 1
    (c3_cycle,) = enumerate_sachs(cycle_graph(3))
    assert c3_cycle.num_even_components == 0 and c3_cycle.num_cycles == 1


def test_sachs_bound(monkeypatch):
    # The bound is the module constant, read at call time.
    with pytest.raises(BoundExceededError):
        list(enumerate_sachs(cycle_graph(22)))
    monkeypatch.setattr(determinantal, "DEFAULT_SACHS_ORDER", 22)
    assert len(list(enumerate_sachs(cycle_graph(22)))) == 3


@pytest.mark.parametrize("g,det,perm", [
    (build_graph(2, [(0, 1)]), -1, 1),
    (cycle_graph(3), 2, 2),
    (cycle_graph(4), 0, 4),
    (path_graph(4), 1, 1),
    (build_graph(2, []), 0, 0),
    (build_graph(0, []), 1, 1),
])
def test_fixture_values_all_four_routes(g, det, perm):
    assert sachs_census(g)[1:] == (det, perm)
    assert det_adjacency(g) == det
    assert perm_adjacency(g) == perm


def test_det_perm_against_permutation_expansion():
    for seed, g in mixed_corpus(40, max_n=7):
        assert det_adjacency(g) == brute_det(g), f"seed {seed}"
        assert perm_adjacency(g) == brute_perm(g), f"seed {seed}"


def test_sachs_routes_agree_with_direct_routes():
    for seed, g in mixed_corpus(60, max_n=10):
        assert sachs_census(g)[1:] == (det_adjacency(g), perm_adjacency(g)), f"seed {seed}"


def test_sachs_census_against_brute_force():
    # One pass gives the count, det and perm that three independent
    # brute-force routes give: edge subsets for the count, permutation
    # expansion for the matrix functions.
    for seed, g in mixed_corpus(60, max_n=7):
        assert sachs_census(g) == (brute_sachs_count(g), brute_det(g), brute_perm(g)), seed
    assert sachs_census(build_graph(0, [])) == (1, 1, 1)
    assert sachs_census(build_graph(3, [])) == (0, 0, 0)
    with pytest.raises(BoundExceededError, match="Sachs enumeration bound 20"):
        sachs_census(path_graph(21))


def test_perm_exceeds_det_in_magnitude():
    for seed, g in mixed_corpus(40, max_n=10):
        assert perm_adjacency(g) >= abs(det_adjacency(g)), f"seed {seed}"


def test_perm_counts_perfect_matchings_at_least():
    from sdke import iter_perfect_matchings

    for seed, g in matchable_corpus(30, max_n=10):
        assert perm_adjacency(g) >= len(list(iter_perfect_matchings(g)))


def test_perm_against_column_subset_dp():
    # Every order 1..14 at p = 0.15, 0.3 and 0.5.
    for seed, g in mixed_corpus(42, max_n=14):
        assert perm_adjacency(g) == column_subset_perm(g), f"seed {seed}"


def test_det_of_disjoint_union_multiplies():
    for a, b in [
        (cycle_graph(3), cycle_graph(4)),
        (path_graph(4), complete_graph(4)),
        (ladder8(), cycle_graph(3)),
    ]:
        assert det_adjacency(disjoint_union(a, b)) == det_adjacency(a) * det_adjacency(b)


def test_big_integers_stay_exact():
    # Complete-graph values have closed forms: perm(K_n) is the derangement
    # count D(n), det(K_n) = (-1)^(n-1) (n-1).  Through n = 18 the row-sum
    # products pass 2^63.  Both permanent engines run on every K_n; past
    # n = 18 the frontier DP takes seconds.
    g = complete_graph(13)
    assert perm_adjacency(g) == 2290792932  # D(13)
    assert det_adjacency(g) == 12
    derangements = [1, 0]
    for n in range(2, 19):
        derangements.append((n - 1) * (derangements[-1] + derangements[-2]))
    for n, d in enumerate(derangements):
        g = complete_graph(n)
        assert perm_adjacency(g) == d, f"K{n}"
        assert _perm_glynn(g) == d, f"K{n}"
        assert _perm_frontier(g, _frontier_plan(g)[0]) == d, f"K{n}"


def test_permanent_bound_refuses_k23_at_once():
    # 2^22 Glynn terms would take seconds; the bound refuses before any.
    start = time.perf_counter()
    with pytest.raises(BoundExceededError, match="permanent bound 22"):
        perm_adjacency(complete_graph(23))
    assert time.perf_counter() - start < 1.0


def test_permanent_bound_is_read_at_call_time(monkeypatch):
    monkeypatch.setattr(determinantal, "DEFAULT_PERMANENT_ORDER", 3)
    assert perm_adjacency(cycle_graph(3)) == 2
    with pytest.raises(BoundExceededError, match="permanent bound 3"):
        perm_adjacency(cycle_graph(4))


def test_permanent_isolated_vertex_answers_at_once():
    # A zero row makes the permanent 0; Glynn's 2^21 terms would take seconds.
    g = disjoint_union(complete_graph(21), build_graph(1, []))
    start = time.perf_counter()
    assert perm_adjacency(g) == 0
    assert time.perf_counter() - start < 1.0


def ladder(n: int):
    k = n // 2
    return build_graph(n, [(i, i + 1) for i in range(k - 1)]
                       + [(k + i, k + i + 1) for i in range(k - 1)]
                       + [(i, k + i) for i in range(k)])


def test_permanent_engines_against_oracles():
    # Both engines on their own, the frontier DP under its greedy order
    # and under the identity order, whichever engine perm_adjacency picks.
    graphs = [g for _, g in mixed_corpus(84, max_n=14)]
    graphs += [g for _, g in matchable_corpus(120, max_n=14)]
    isolated = build_graph(1, [])
    graphs += [disjoint_union(g, isolated) for g in graphs[:30]]
    graphs += [disjoint_union(isolated, ladder8())]
    for i, g in enumerate(graphs):
        want = column_subset_perm(g)
        if g.n <= 8:
            assert want == brute_perm(g), f"graph {i}"
        assert _perm_glynn(g) == want, f"graph {i}"
        assert _perm_frontier(g, _frontier_plan(g)[0]) == want, f"graph {i}"
        assert _perm_frontier(g, list(range(g.n))) == want, f"graph {i}"


def engine_of(monkeypatch, g) -> str:
    picked = []
    monkeypatch.setattr(determinantal, "_perm_glynn", lambda g: picked.append("glynn"))
    monkeypatch.setattr(determinantal, "_perm_frontier", lambda g, order: picked.append("frontier"))
    perm_adjacency(g)
    (engine,) = picked
    return engine


def test_permanent_engine_choice(monkeypatch):
    # On K_n the DP's states grow like C(n, n/2) and its work bound is
    # 1.2-1.9 times n * 2^(n-1), so Glynn runs.  Paths, cycles and ladders
    # keep at most three states alive; the 22-vertex ladder takes 0.1 ms
    # there against about a second of Glynn.
    for n in range(4, 23):
        assert engine_of(monkeypatch, complete_graph(n)) == "glynn", f"K{n}"
    for g in (ladder8(), path_graph(20), cycle_graph(20), ladder(22)):
        assert engine_of(monkeypatch, g) == "frontier", f"{g}"


def test_factorization_ladder8():
    r = factorization_report(ladder8())
    assert r.det_sd == 1 and r.perm_sd == 1  # empty part convention
    assert r.det_g == r.det_ke and r.perm_g == r.perm_ke
    assert r.det_product_ok and r.perm_product_ok


def test_factorization_computes_each_order_n_value_once(monkeypatch):
    # When one part is empty the other is G itself, so det and perm of
    # order n are computed once, on G, and the parts' values still match.
    calls = []

    def counting(fn):
        def counted(graph, **kwargs):
            calls.append((fn.__name__, graph.n))
            return fn(graph, **kwargs)
        return counted

    monkeypatch.setattr(determinantal, "det_adjacency", counting(det_adjacency))
    monkeypatch.setattr(determinantal, "perm_adjacency", counting(perm_adjacency))
    for g, all_sd in ((tangle8(), True), (ladder8(), False), (cycle_graph(4), False)):
        calls.clear()
        r = factorization_report(g)
        assert (len(r.partition.sd_vertices) == g.n) == all_sd
        order_n = sorted(name for name, n in calls if n == g.n)
        assert order_n == ["det_adjacency", "perm_adjacency"], g
        for value, part in ((r.det_sd, r.partition.sd_part), (r.det_ke, r.partition.ke_part)):
            assert value == det_adjacency(part)
        for value, part in ((r.perm_sd, r.partition.sd_part), (r.perm_ke, r.partition.ke_part)):
            assert value == perm_adjacency(part)
        assert r.det_product_ok and r.perm_product_ok


def test_factorization_posy12():
    r = factorization_report(posy12())
    assert r.det_ke == -1  # the pendant pair is a single edge
    assert r.det_g == -r.det_sd
    assert r.det_product_ok and r.perm_product_ok


def test_factorization_mixed32_known_values():
    r = factorization_report(mixed32(), include_permanent=False)
    assert r.det_ke == -1
    assert r.det_sd == -5
    assert r.det_g == 5
    assert r.det_product_ok
    assert len(r.partition.cut) == 2


def test_factorization_requires_matchable():
    with pytest.raises(NotMatchableError):
        factorization_report(cycle_graph(5))


def test_factorization_sachs_methods():
    # The component census alone shows both products on posy12's parts.
    g = posy12()
    part = sd_ke_partition(g)
    graphs = (g, part.sd_part, part.ke_part)
    (_, det_g, perm_g), (_, det_sd, perm_sd), (_, det_ke, perm_ke) = map(sachs_census, graphs)
    assert det_g == det_sd * det_ke == det_adjacency(g)
    assert perm_g == perm_sd * perm_ke == perm_adjacency(g)


def test_multiplicativity_on_corpus():
    for seed, g in matchable_corpus(60, max_n=12):
        r = factorization_report(g)
        assert r.det_product_ok, f"seed {seed}"
        assert r.perm_product_ok, f"seed {seed}"


def test_cut_disjointness_fixtures():
    for g in (ladder8(), tangle8(), posy12()):
        assert sachs_cut_disjointness(g, sd_ke_partition(g).cut) == (True, None)


@pytest.mark.parametrize("cut", [{(0, 9)}, {(0, 2)}, {(1, 0)}, {(0, 1), (2, 3), (0, 2)}])
def test_cut_disjointness_refuses_an_edge_not_in_the_graph(cut):
    # Such an entry can never meet a Sachs subgraph's edges, so the check
    # used to answer True for it.  (1, 0) is not in canonical form.
    with pytest.raises(GraphError, match="is not an edge of the graph"):
        sachs_cut_disjointness(cycle_graph(4), cut)


def test_cut_disjointness_would_catch_a_violation():
    # Feed the checker a doctored cut that a Sachs subgraph does use.
    ok, witness = sachs_cut_disjointness(cycle_graph(4), frozenset({(0, 1)}))
    assert not ok
    s, e = witness
    assert e == (0, 1) and (0, 1) in s.edges()
