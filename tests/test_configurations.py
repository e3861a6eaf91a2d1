import pytest

from sdke import (
    BoundExceededError,
    blossoms,
    build_graph,
    configuration_vertices,
    delete_edge,
    disjoint_union,
    enumerate_maximum_matchings,
    matching_from_edges,
    maximum_matching,
    sd_ke_partition,
    sd_vertices_bruteforce,
    sd_vertices_of,
    simple_odd_cycles,
)
from sdke.alternating import _state_search
from sdke import configurations
from sdke.configurations import _state_reach
from conftest import matchable_corpus, mixed_corpus
from fixtures import (
    FLOWER9_M,
    complete_graph,
    cycle_graph,
    flower9,
    label_ids,
    label_matching,
    ladder8,
    miss11,
    path_graph,
    posy12,
    tangle8,
)
from oracles import (
    blossoms_by_cycle_scan,
    configuration_vertices_by_state_search,
    sd_vertices_stop_at_full,
    states_reaching_bfs,
)


def test_odd_cycles_triangle_and_c5():
    assert simple_odd_cycles(cycle_graph(3)) == [(0, 1, 2)]
    assert simple_odd_cycles(cycle_graph(5)) == [(0, 1, 2, 3, 4)]
    assert simple_odd_cycles(cycle_graph(4)) == []
    assert simple_odd_cycles(path_graph(5)) == []


def test_odd_cycles_each_once_k5():
    cycles = simple_odd_cycles(complete_graph(5))
    # K5 has 10 triangles and 12 five-cycles.
    assert sum(1 for c in cycles if len(c) == 3) == 10
    assert sum(1 for c in cycles if len(c) == 5) == 12
    assert len(set(cycles)) == len(cycles)


def test_cycle_bound():
    with pytest.raises(BoundExceededError):
        simple_odd_cycles(complete_graph(9), max_cycles=10)


def test_flower9_blossoms():
    g = flower9()
    m = label_matching(g, FLOWER9_M)
    found = blossoms(g, m)
    by_set = {(vs, g.labels[base]) for vs, base in found}
    assert (label_ids(g, [1, 2, 3]), 3) in by_set
    assert (label_ids(g, [3, 4, 6, 7, 8]), 8) in by_set
    assert len(found) == 2


def test_bipartite_has_no_configurations():
    g = cycle_graph(6)
    m = maximum_matching(g)
    assert configuration_vertices(g, m) == frozenset()
    assert sd_vertices_bruteforce(g) == frozenset()


def test_flower9_coverage_per_matching():
    g = flower9()
    m = label_matching(g, FLOWER9_M)
    # With this matching the only configuration is the flower grown from
    # the exposed vertex 5 through 4 into the triangle.
    assert configuration_vertices(g, m) == label_ids(g, [1, 2, 3, 4, 5])


def test_flower9_union_over_matchings():
    g = flower9()
    assert sd_vertices_bruteforce(g) == label_ids(g, [1, 2, 3, 4, 5, 8, 9])


def test_bruteforce_order_bound():
    with pytest.raises(BoundExceededError):
        sd_vertices_bruteforce(cycle_graph(14))
    assert sd_vertices_bruteforce(cycle_graph(14), max_order=14) == frozenset()


def test_agrees_with_fast_partition_on_matchable_graphs():
    # On matchable inputs the configuration search must reproduce the
    # pair-wise separation exactly; this cross-validates both.
    for seed, g in matchable_corpus(40, max_n=10):
        fast = sd_ke_partition(g).sd_vertices
        slow = sd_vertices_bruteforce(g, max_cycles=500_000)
        assert fast == slow, f"seed {seed}"


def test_single_matching_configurations_subset_of_sd():
    for seed, g in matchable_corpus(20, max_n=10):
        m = maximum_matching(g)
        sd = sd_ke_partition(g, m).sd_vertices
        assert configuration_vertices(g, m) <= sd or sd == configuration_vertices(g, m)


def test_posy_via_triangle_pair():
    # Two triangles sharing no vertex, joined by a matched bridge: the
    # bridge is an mm walk between the two blossom bases.
    g = build_graph(
        8,
        [(0, 1), (0, 2), (1, 2), (2, 3), (4, 5), (4, 6), (5, 6), (3, 6), (3, 7)],
    )
    m = matching_from_edges(8, [(0, 1), (2, 3), (4, 5)])  # 6, 7 exposed
    covered = configuration_vertices(g, m)
    assert label_ids(g, [0, 1, 2]) <= covered


def test_backward_reach_by_skew_symmetry_matches_predecessor_bfs():
    # The states reaching (x, p) are the parity flips of the states
    # reached from (x, not p).  Check that identity against a literal
    # backward search, unsaturated vertices included, both for the state
    # search and for the bitset form the configuration search reads: the
    # half-swap of the reach mask of (x, not p), with (y, True) at bit y
    # and (y, False) at bit y + n.
    cases = 0
    for seed, g in mixed_corpus(72, max_n=12):
        n = g.n
        for m in enumerate_maximum_matchings(g):
            reach = _state_reach(g, m.pairing)
            for x in range(g.n):
                for p in (True, False):
                    want = states_reaching_bfs(g, m.pairing, (x, p))
                    reached = _state_search(g, m.pairing, [(x, not p)])
                    flipped = {(y, not q) for (y, q) in reached}
                    assert flipped == want, f"seed {seed} state {(x, p)}"
                    bits = reach[x + n if p else x]
                    swapped = bits >> n | (bits & ((1 << n) - 1)) << n
                    got = {(y % n, y < n) for y in range(2 * n) if swapped >> y & 1}
                    assert got == want, f"seed {seed} state {(x, p)} (bitset)"
                    cases += 1
    assert cases > 10_000


def test_bitset_search_matches_state_search_oracles():
    # Every maximum matching of the small corpora and three fixtures:
    # blossoms in the same order, and the same covered set, as the
    # cycle scan and per-start state searches.
    graphs = [g for _, g in mixed_corpus(100, max_n=10)]
    graphs += [g for _, g in matchable_corpus(60, max_n=10)]
    graphs += [flower9(), posy12(), tangle8()]
    pairs = 0
    for i, g in enumerate(graphs):
        cycles = simple_odd_cycles(g)
        for m in enumerate_maximum_matchings(g):
            assert blossoms(g, m, cycles) == blossoms_by_cycle_scan(g, m, cycles), f"graph {i}"
            want = configuration_vertices_by_state_search(g, m, cycles)
            assert configuration_vertices(g, m, cycles) == want, f"graph {i} {m}"
            pairs += 1
    assert pairs > 500


def test_miss11_every_vertex_sd():
    # Recorded from the set-based search before the bitset rewrite.
    g = miss11()
    assert sd_vertices_bruteforce(g) == frozenset(range(11))
    assert sd_vertices_of(g) == frozenset(range(11))


def test_ceiling_stop_matches_full_stop_oracle():
    # Stopping at the odd-component ceiling gives the same set as running
    # until every vertex is covered, on arbitrary graphs, on the
    # non-matchable deletions the stability check feeds the search, and
    # on fixtures with a component that has no odd cycle or several odd
    # components.
    graphs = [g for _, g in mixed_corpus(300, max_n=12)]
    for _, g in matchable_corpus(200, max_n=12):
        for e in g.edges:
            h = delete_edge(g, e)
            if not maximum_matching(h).is_perfect:
                graphs.append(h)
    graphs += [flower9(), miss11(), posy12(), disjoint_union(flower9(), ladder8()),
               disjoint_union(flower9(), flower9())]
    assert len(graphs) > 600
    for i, g in enumerate(graphs):
        assert sd_vertices_bruteforce(g, max_order=g.n) == sd_vertices_stop_at_full(g), f"graph {i}"


def test_no_odd_cycle_enumerates_no_matching(monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("maximum matchings enumerated")

    monkeypatch.setattr(configurations, "iter_maximum_matchings", refuse)
    assert sd_vertices_bruteforce(cycle_graph(6)) == frozenset()
    assert sd_vertices_bruteforce(ladder8()) == frozenset()
