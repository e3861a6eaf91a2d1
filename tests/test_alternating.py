import pytest

from sdke import (
    AlternatingWalk,
    GraphError,
    MatchingError,
    NotMatchableError,
    build_graph,
    has_mm_closed_walk,
    iter_perfect_matchings,
    matching_from_edges,
    maximum_matching,
    reachable_set,
    semi_jposy_witness,
    verify_walk,
)
from sdke.alternating import _arcs, _bit_indices, _component_reach
from conftest import matchable_corpus
from fixtures import (
    LADDER8_M1,
    LADDER8_M2,
    POSY12_M,
    POSY12_WALK,
    TANGLE8_M1,
    cycle_graph,
    label_matching,
    ladder8,
    posy12,
    tangle8,
)
from oracles import (
    enumerate_mm_walks_tiny,
    mm_reach_by_length_dp,
    mm_reach_by_state_search,
)


def every_reach(g, m):
    # R(v) of every v from one strong-component sweep of D, as the theorem
    # suite builds its reference: everything M(v)'s component reaches.
    comp, bits = _component_reach(_arcs(g, m.pairing))
    return tuple(frozenset(_bit_indices(bits[comp[w]])) for w in m.pairing)


def reach_labels(g, m, label):
    index = {lab: i for i, lab in enumerate(g.labels)}
    return frozenset(g.labels[v] for v in reachable_set(g, m, index[label]))


def test_ladder8_reach_sets_both_matchings():
    g = ladder8()
    for pairs in (LADDER8_M1, LADDER8_M2):
        m = label_matching(g, pairs)
        assert reach_labels(g, m, 1) == {2, 4, 5, 7}
        assert reach_labels(g, m, 2) == {1, 3, 6, 8}


def test_tangle8_reach_is_everything():
    g = tangle8()
    m = label_matching(g, TANGLE8_M1)
    assert reach_labels(g, m, 1) == {1, 2, 3, 4, 5, 6, 7, 8}
    assert reach_labels(g, m, 2) == {1, 2, 3, 4, 5, 6, 7, 8}


def test_reachable_requires_perfect_matching():
    g = build_graph(3, [(0, 1), (1, 2)])
    with pytest.raises(NotMatchableError):
        reachable_set(g, matching_from_edges(3, [(0, 1)]), 0)


def test_reachable_rejects_bad_vertex():
    g = build_graph(2, [(0, 1)])
    with pytest.raises(GraphError):
        reachable_set(g, matching_from_edges(2, [(0, 1)]), 5)


def test_partner_always_reachable():
    for seed, g in matchable_corpus(30, max_n=12):
        m = maximum_matching(g)
        for v in range(g.n):
            assert m.pairing[v] in reachable_set(g, m, v), f"seed {seed} v {v}"


def test_reachability_lemma_small_graphs():
    # Reachable sets agree across every perfect matching of the host.
    for seed, g in matchable_corpus(40, max_n=10):
        fam = list(iter_perfect_matchings(g))
        ref = [reachable_set(g, fam[0], v) for v in range(g.n)]
        for m in fam[1:]:
            assert [reachable_set(g, m, v) for v in range(g.n)] == ref, f"seed {seed}"


def test_reachable_sets_against_oracles():
    # Under every perfect matching, the sweep's entry for every vertex
    # equals the state-search oracle and the layered walk DP, and so does
    # the one-vertex BFS; v has an mm-closed walk iff v is in the oracle's
    # reach from M(v).
    graphs = [g for _, g in matchable_corpus(40, max_n=10)] + [posy12(), tangle8()]
    for i, g in enumerate(graphs):
        for m in iter_perfect_matchings(g):
            sets = every_reach(g, m)
            assert len(sets) == g.n, i
            for v in range(g.n):
                want = mm_reach_by_state_search(g, m.pairing, v)
                assert sets[v] == want, (i, v)
                assert sets[v] == mm_reach_by_length_dp(g, m.pairing, v, 4 * g.n), (i, v)
                assert reachable_set(g, m, v) == want, (i, v)
                assert has_mm_closed_walk(g, m, v) == (v in want), (i, v)


def test_reachable_sets_fixture_values():
    g = ladder8()
    m = label_matching(g, LADDER8_M1)
    labels = [frozenset(g.labels[x] for x in s) for s in every_reach(g, m)]
    assert labels[g.labels.index(1)] == {2, 4, 5, 7}
    assert labels[g.labels.index(2)] == {1, 3, 6, 8}
    t = tangle8()
    assert every_reach(t, label_matching(t, TANGLE8_M1)) == (frozenset(range(8)),) * 8
    assert every_reach(build_graph(0, []), matching_from_edges(0, [])) == ()


def test_reachable_sets_requires_perfect_matching():
    # reachable_set judges the matching before the vertex, so these are
    # the errors that every vertex's set gives.
    g = build_graph(3, [(0, 1), (1, 2)])
    with pytest.raises(
        NotMatchableError,
        match="^SD-KE separation requires a graph with a perfect matching$",
    ):
        reachable_set(g, matching_from_edges(3, [(0, 1)]), 0)
    with pytest.raises(MatchingError, match="not an edge"):
        reachable_set(build_graph(2, []), matching_from_edges(2, [(0, 1)]), 0)
    # A matched non-edge is reported before the matching's size is judged,
    # and of several, the one with the lowest end.
    with pytest.raises(MatchingError, match=r"^matched pair \(0,2\) is not an edge$"):
        reachable_set(g, matching_from_edges(3, [(2, 0)]), 0)
    p6 = build_graph(6, [(0, 1), (1, 2), (2, 3), (3, 4), (4, 5)])
    with pytest.raises(MatchingError, match=r"^matched pair \(0,3\) is not an edge$"):
        reachable_set(p6, matching_from_edges(6, [(4, 1), (3, 0), (2, 5)]), 0)
    with pytest.raises(MatchingError, match=r"^matched pair \(3,5\) is not an edge$"):
        reachable_set(p6, matching_from_edges(6, [(1, 2), (3, 5)]), 0)
    with pytest.raises(MatchingError, match="matching over 2 vertices"):
        reachable_set(p6, matching_from_edges(2, [(0, 1)]), 0)


def test_has_mm_closed_walk_fixture_values():
    g = ladder8()
    m = label_matching(g, LADDER8_M1)
    assert not has_mm_closed_walk(g, m, 0)  # label 1: 1 not in {2,4,5,7}
    t = tangle8()
    mt = label_matching(t, TANGLE8_M1)
    assert has_mm_closed_walk(t, mt, 0)
    p = posy12()
    mp = label_matching(p, POSY12_M)
    assert has_mm_closed_walk(p, mp, 9)


def test_c4_has_no_mm_closed_walk():
    g = cycle_graph(4)
    m = matching_from_edges(4, [(0, 1), (2, 3)])
    for v in range(4):
        assert not has_mm_closed_walk(g, m, v)
        assert semi_jposy_witness(g, m, v) is None


def test_posy12_pendant_pair_is_one_sided():
    # Vertex 11 reaches itself through the core, its partner 10 cannot.
    g = posy12()
    m = label_matching(g, POSY12_M)
    assert has_mm_closed_walk(g, m, 11)
    assert not has_mm_closed_walk(g, m, 10)


def test_witness_ladder8_none():
    g = ladder8()
    m = label_matching(g, LADDER8_M1)
    assert semi_jposy_witness(g, m, 0) is None


def test_witness_posy12_vertex9():
    g = posy12()
    m = label_matching(g, POSY12_M)
    w = semi_jposy_witness(g, m, 9)
    assert w is not None
    assert w.kind == "mm"
    assert w.is_closed and w.vertices[0] == 9
    assert verify_walk(g, m, w)
    assert w.num_edges <= 4 * g.n


def test_witnesses_verify_and_are_shortest():
    for seed, g in matchable_corpus(24, max_n=8):
        m = maximum_matching(g)
        for v in range(g.n):
            w = semi_jposy_witness(g, m, v)
            if w is None:
                continue
            assert verify_walk(g, m, w)
            assert w.is_closed and w.vertices[0] == v
            # No strictly shorter closed mm walk exists.
            walks = enumerate_mm_walks_tiny(g, m.pairing, v, w.num_edges)
            closed = [s for s in walks if s[-1] == v and len(s) - 1 < w.num_edges]
            assert not closed, f"seed {seed} v {v}"


def test_state_search_agrees_with_length_dp():
    for seed, g in matchable_corpus(24, max_n=8):
        m = maximum_matching(g)
        for v in range(g.n):
            dp = mm_reach_by_length_dp(g, m.pairing, v, 4 * g.n)
            assert mm_reach_by_state_search(g, m.pairing, v) == dp, f"seed {seed} v {v}"


def test_verify_walk_k2():
    g = build_graph(2, [(0, 1)])
    m = matching_from_edges(2, [(0, 1)])
    assert verify_walk(g, m, AlternatingWalk((0, 1), "mm"))
    assert not verify_walk(g, m, AlternatingWalk((0, 1), "nn"))


def test_verify_posy12_fixture_walk():
    g = posy12()
    m = label_matching(g, POSY12_M)
    walk = AlternatingWalk(POSY12_WALK, "mm")
    assert verify_walk(g, m, walk)
    assert walk.is_closed and walk.num_edges == 17


@pytest.mark.parametrize("vertices,kind,reason", [
    ((0,), "mm", "no edges"),
    ((0, 2), "mm", "not an edge"),
    ((0, 1, 0), "mm", "alternate"),   # matched edge twice in a row
    ((0, 1), "xy", "unknown kind"),
    ((0, 9), "mm", "out of range"),
    ((1.0, 0), "mm", "not an int"),
    (("a", "b"), "mm", "not an int"),
    ((1, None), "mm", "not an int"),
    ((True, False), "mm", "not an int"),
])
def test_walk_violations(vertices, kind, reason):
    # Each walk breaks the one invariant its reason names; verify_walk
    # answers False, never an exception.  (1, 0) would be valid.
    g = build_graph(3, [(0, 1), (1, 2)])
    m = matching_from_edges(3, [(0, 1)])
    assert verify_walk(g, m, AlternatingWalk((1, 0), "mm"))
    assert not verify_walk(g, m, AlternatingWalk(vertices, kind))


def test_walk_kind_tags():
    g = build_graph(4, [(0, 1), (1, 2), (2, 3)])
    m = matching_from_edges(4, [(0, 1), (2, 3)])
    assert verify_walk(g, m, AlternatingWalk((0, 1, 2, 3), "mm"))
    assert verify_walk(g, m, AlternatingWalk((1, 2), "nn"))
    assert verify_walk(g, m, AlternatingWalk((0, 1, 2), "mn"))
    assert verify_walk(g, m, AlternatingWalk((2, 1, 0), "nm"))
    assert not verify_walk(g, m, AlternatingWalk((0, 1, 2), "mm"))


def test_mutated_witnesses_fail():
    g = tangle8()
    m = label_matching(g, TANGLE8_M1)
    w = semi_jposy_witness(g, m, 0)
    assert w is not None and verify_walk(g, m, w)
    # Swap the kind tag, truncate, and relabel: all must be rejected.
    assert not verify_walk(g, m, AlternatingWalk(w.vertices, "nn"))
    assert not verify_walk(g, m, AlternatingWalk(w.vertices[:-1], "mm"))
    bad = (w.vertices[0],) + (w.vertices[2],) + w.vertices[2:]
    assert not verify_walk(g, m, AlternatingWalk(bad, "mm"))


def test_strong_components_against_reachability():
    import random

    from sdke.alternating import _strong_components

    rng = random.Random(3)
    for trial in range(300):
        n = rng.randint(0, 12)
        p = rng.choice([0.05, 0.15, 0.3])
        arcs = [[z for z in range(n) if z != x and rng.random() < p] for x in range(n)]
        reach = []
        for x in range(n):
            seen, stack = {x}, [x]
            while stack:
                for z in arcs[stack.pop()]:
                    if z not in seen:
                        seen.add(z)
                        stack.append(z)
            reach.append(seen)
        comp = _strong_components(arcs)
        for x in range(n):
            for z in range(n):
                assert (comp[x] == comp[z]) == (z in reach[x] and x in reach[z]), trial
                if z in reach[x]:
                    assert comp[x] >= comp[z], trial  # sinks are numbered first
