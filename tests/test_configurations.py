import pytest

from sdke import (
    BoundExceededError,
    build_graph,
    delete_edge,
    iter_maximum_matchings,
    matching_from_edges,
    maximum_matching,
    sd_ke_partition,
    sd_vertices_bruteforce,
    sd_vertices_of,
)
from sdke import configurations
from sdke.alternating import _bit_indices
from sdke.configurations import _state_reach, _walk_cover
from conftest import matchable_corpus, mixed_corpus
from fixtures import (
    FLOWER9_M,
    complete_graph,
    cycle_graph,
    disjoint_union,
    flower9,
    k10_pendant,
    label_ids,
    label_matching,
    ladder8,
    miss11,
    path_graph,
    posy12,
    tangle8,
)
import oracles
from oracles import (
    _blossoms,
    _covered,
    _cycle_table,
    blossoms_by_cycle_scan,
    configuration_vertices_by_state_search,
    sd_split_per_pair_bfs,
    sd_vertices_stop_at_full,
    simple_odd_cycles,
    state_search,
    states_reaching_bfs,
)


def blossoms(g, m, odd_cycles=None):
    """(vertex set, base) of every blossom of m, from the oracle's bitset cycle table."""
    bits, rows = _cycle_table(g, simple_odd_cycles(g) if odd_cycles is None else odd_cycles)
    return [(frozenset(_bit_indices(verts)), base) for verts, base in _blossoms(rows, bits, m.pairing)]


def configuration_vertices(g, m, odd_cycles=None):
    """Vertices on some flower or posy of m, from the oracle's bitset search."""
    bits, rows = _cycle_table(g, simple_odd_cycles(g) if odd_cycles is None else odd_cycles)
    found = _blossoms(rows, bits, m.pairing)
    return frozenset(_bit_indices(_covered(g, m.pairing, found)))


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


def test_cycle_bound(monkeypatch):
    # The oracle's cycle listing keeps its cap; the library lists no cycles.
    monkeypatch.setattr(oracles, "DEFAULT_MAX_CYCLES", 10)
    with pytest.raises(BoundExceededError, match="more than 10 simple cycles"):
        simple_odd_cycles(complete_graph(9))


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
    # the exposed vertex 5 through 4 into the triangle, and the walk cover
    # holds just that flower.
    assert configuration_vertices(g, m) == label_ids(g, [1, 2, 3, 4, 5])
    assert set(_bit_indices(_walk_cover(g, m.pairing))) == label_ids(g, [1, 2, 3, 4, 5])


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
        slow = sd_vertices_bruteforce(g)
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
        for m in iter_maximum_matchings(g):
            reach = _state_reach(g, m.pairing)
            for x in range(g.n):
                for p in (True, False):
                    want = states_reaching_bfs(g, m.pairing, (x, p))
                    reached = state_search(g, m.pairing, [(x, not p)])
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
        for m in iter_maximum_matchings(g):
            assert blossoms(g, m, cycles) == blossoms_by_cycle_scan(g, m, cycles), f"graph {i}"
            want = configuration_vertices_by_state_search(g, m, cycles)
            assert configuration_vertices(g, m, cycles) == want, f"graph {i} {m}"
            pairs += 1
    assert pairs > 500


def walk_cover_by_state_search(g, m):
    """The walk cover of m from the set-based state search.

    The posy half is every pair whose members both have an mm-closed
    walk; the flower half every vertex some exposed u reaches in both
    states from (u, True).
    """
    cover = set(sd_split_per_pair_bfs(g, m.pairing))
    for u in range(g.n):
        if m.pairing[u] == u:
            reached = state_search(g, m.pairing, [(u, True)])
            cover.update(x for (x, p) in reached if p and (x, False) in reached)
    return frozenset(cover)


def test_walk_cover_holds_every_flower_and_posy_vertex():
    # Under every maximum matching the bitset cover equals its set-based
    # recomputation and holds the blossom search's flowers and posies;
    # under a perfect matching it is the split's SD set.
    graphs = [g for _, g in mixed_corpus(120, max_n=10)]
    graphs += [g for _, g in matchable_corpus(60, max_n=10)]
    graphs += [flower9(), posy12(), tangle8(), miss11()]
    pairs = exceeded = 0
    for i, g in enumerate(graphs):
        cycles = simple_odd_cycles(g)
        for m in iter_maximum_matchings(g):
            cover = frozenset(_bit_indices(_walk_cover(g, m.pairing)))
            assert cover == walk_cover_by_state_search(g, m), f"graph {i} {m}"
            configured = configuration_vertices(g, m, cycles)
            assert configured <= cover, f"graph {i} {m}"
            if m.is_perfect:
                assert cover == sd_ke_partition(g, m).sd_vertices, f"graph {i} {m}"
            pairs += 1
            exceeded += cover != configured
    assert pairs > 500 and exceeded > 0


def test_one_cover_exceeds_its_own_configurations():
    # The triangle 0-1-3 and the 4-cycle 0-1-4-2 share the edge 0-1.  Under
    # {0-1, 2-4} the only configuration is the triangle, a flower with the
    # exposed base 3; but 3 reaches 2 and 4 in both states round the
    # 4-cycle, so the cover is all of V.  That is still SD(G): under
    # {0-2, 1-3} the stem 4-2-0 grows a flower into the same triangle.
    g = build_graph(5, [(0, 1), (0, 2), (0, 3), (1, 3), (1, 4), (2, 4)])
    m = matching_from_edges(5, [(0, 1), (2, 4)])
    assert configuration_vertices(g, m) == {0, 1, 3}
    assert _walk_cover(g, m.pairing) == 0b11111
    assert sd_vertices_bruteforce(g) == sd_vertices_stop_at_full(g) == frozenset(range(5))


def test_one_cover_falls_short_of_sd():
    # Under {0-1, 2-4} only the triangle 0-1-3 is covered; under {0-1, 3-4}
    # the stem 2-4-3 grows a flower into the triangle 0-1-3, and the union
    # is all of V.
    g = build_graph(5, [(0, 1), (0, 3), (1, 3), (1, 4), (2, 4), (3, 4)])
    m = matching_from_edges(5, [(0, 1), (2, 4)])
    assert _walk_cover(g, m.pairing) == 0b01011
    assert sd_vertices_bruteforce(g) == sd_vertices_stop_at_full(g) == frozenset(range(5))


def test_miss11_every_vertex_sd():
    # Recorded from the set-based search before the bitset rewrite.
    g = miss11()
    assert sd_vertices_bruteforce(g) == frozenset(range(11))
    assert sd_vertices_of(g) == frozenset(range(11))


def test_k10_pendant_deletion_every_vertex_but_11_sd():
    # Derived by hand: G - e is K10 with the pendant 10 on 0, and an
    # isolated 11.  Under a matching that leaves 10 exposed, the stem
    # 10-0-M(0) grows a flower into the triangle of M(0) and any other
    # matched pair, so every vertex but 11 is SD.  K10 has more simple odd
    # cycles than the oracles' cap, so no cycle-listing search checks it.
    g = k10_pendant()
    assert sd_vertices_bruteforce(delete_edge(g, (10, 11))) == frozenset(range(11))


def test_ceiling_stop_matches_full_stop_oracle():
    # Stopping at the odd-component ceiling gives the same set as running
    # until every vertex is covered, on arbitrary graphs, on the
    # non-matchable deletions G - e of matchable graphs, and
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


def test_no_odd_cycle_stops_after_one_matching(monkeypatch):
    # Every covered vertex lies on an odd closed walk, so a bipartite
    # graph's first cover is empty and so is its ceiling.
    drawn = []

    def spy(*args, **kwargs):
        for m in iter_maximum_matchings(*args, **kwargs):
            drawn.append(m)
            yield m

    monkeypatch.setattr(configurations, "iter_maximum_matchings", spy)
    for g in (cycle_graph(6), ladder8(), path_graph(5)):
        drawn.clear()
        assert sd_vertices_bruteforce(g) == frozenset()
        assert len(drawn) == 1


def triangle_two_pendants():
    """Triangle 0-1-2 with pendants 3 and 4 on 0: n = 5, alpha = 3, mu = 2, KE."""
    return build_graph(5, [(0, 1), (0, 2), (0, 3), (0, 4), (1, 2)])


def test_ke_odd_component_leaves_ceiling_after_one_matching(monkeypatch):
    # The graph holds an odd cycle but is König–Egerváry, so the first
    # maximum matching has no flower or posy and the search stops there;
    # without the Sterboul–Deming ceiling it drew both maximum matchings.
    g = triangle_two_pendants()
    assert len(list(iter_maximum_matchings(g))) == 2
    drawn = []

    def spy(*args, **kwargs):
        for m in iter_maximum_matchings(*args, **kwargs):
            drawn.append(m)
            yield m

    monkeypatch.setattr(configurations, "iter_maximum_matchings", spy)
    assert sd_vertices_bruteforce(g) == frozenset()
    assert len(drawn) == 1


def test_ke_odd_component_beside_flower_matches_full_stop_oracle():
    # The KE component is dropped from the ceiling whichever side of the
    # union it is on, and the flower's component is still covered.
    t = triangle_two_pendants()
    sd9 = sd_vertices_bruteforce(flower9())
    for g, shift in ((disjoint_union(flower9(), t), 0), (disjoint_union(t, flower9()), t.n)):
        want = sd_vertices_stop_at_full(g)
        assert want == {v + shift for v in sd9}
        assert sd_vertices_bruteforce(g, max_order=g.n) == want
