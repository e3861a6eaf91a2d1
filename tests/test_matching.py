import random

import pytest
from hypothesis import given, strategies as st

from sdke import (
    BoundExceededError,
    GraphError,
    Matching,
    MatchingError,
    build_graph,
    is_matchable,
    iter_maximum_matchings,
    iter_perfect_matchings,
    matching_from_edges,
    matching_number,
    maximum_matching,
    parse_matching,
)
from conftest import matchable_corpus, mixed_corpus
from fixtures import (
    LADDER8_M1,
    LADDER8_M2,
    complete_graph,
    cycle_graph,
    flower9,
    label_matching,
    ladder8,
    miss11,
    mixed32,
    path_graph,
    posy12,
    random_graph,
    tangle8,
)
from oracles import (
    brute_matching_number,
    brute_maximum_matchings,
    brute_perfect_matchings,
    exists_max_matching_avoiding,
    maximum_matching_full_reset,
)


def test_matching_requires_involution():
    with pytest.raises(MatchingError):
        Matching((1, 2, 0))


def test_matching_from_edges_rejects_reuse():
    with pytest.raises(MatchingError):
        matching_from_edges(3, [(0, 1), (1, 2)])


def test_validate_names_lowest_non_edge_pair():
    # Path 0-1-2-3-4-5: none of the pairs (1,4), (0,3), (2,5) is an edge;
    # the one with the lowest end is reported, written u < v.
    g = build_graph(6, [(0, 1), (1, 2), (2, 3), (3, 4), (4, 5)])
    m = matching_from_edges(6, [(4, 1), (3, 0), (2, 5)])
    with pytest.raises(MatchingError, match=r"^matched pair \(0,3\) is not an edge$"):
        m.validate(g)
    m = matching_from_edges(6, [(1, 2), (3, 5)])
    with pytest.raises(MatchingError, match=r"^matched pair \(3,5\) is not an edge$"):
        m.validate(g)
    matching_from_edges(6, [(1, 0), (3, 2), (5, 4)]).validate(g)
    with pytest.raises(MatchingError, match="matching over 2 vertices"):
        matching_from_edges(2, [(0, 1)]).validate(g)


def test_maximum_matching_k2():
    m = maximum_matching(build_graph(2, [(0, 1)]))
    assert m.edge_pairs() == [(0, 1)] and m.size == 1


def test_maximum_matching_c5():
    assert matching_number(cycle_graph(5)) == 2


def test_maximum_matching_ladder8_perfect():
    m = maximum_matching(ladder8())
    assert m.size == 4 and m.is_perfect


def test_maximum_matching_is_deterministic():
    g = ladder8()
    assert maximum_matching(g) == maximum_matching(g)


def test_maximum_matching_against_brute_force():
    for seed, g in mixed_corpus(60, max_n=10):
        m = maximum_matching(g)
        m.validate(g)
        assert m.size == brute_matching_number(g), f"seed {seed}"


def _shuffled_triangle_chain(k: int, chords: int, rng: random.Random):
    """k triangles, each joined to the next by an edge, plus random chords,
    under a random vertex relabelling: blossoms whose ids are out of order."""
    n = 3 * k + 1
    edges = set()
    for i in range(k):
        a, b, c = 3 * i, 3 * i + 1, 3 * i + 2
        edges |= {(a, b), (a, c), (b, c), (c, c + 1)}
    chords = min(chords, n * (n - 1) // 2 - len(edges))
    while chords:
        e = tuple(sorted(rng.sample(range(n), 2)))
        if e not in edges:
            edges.add(e)
            chords -= 1
    perm = list(range(n))
    rng.shuffle(perm)
    return build_graph(n, [tuple(sorted((perm[u], perm[v]))) for u, v in edges])


def test_maximum_matching_equals_full_reset_oracle():
    # The same pairing, not just the same size.  The sparse random graphs are
    # mostly not matchable, so searches fail and later roots search again;
    # the triangle chains contract blossoms before later searches, so state
    # left over from an earlier search, or a queue out of id order, shows.
    graphs = [g for _, g in mixed_corpus(200, max_n=12)]
    graphs += [g for _, g in matchable_corpus(100)]
    graphs += [ladder8(), tangle8(), posy12(), flower9(), miss11(), mixed32()]
    rng = random.Random(2024)
    for seed in range(16):
        n = rng.randrange(100, 1001)
        graphs.append(random_graph(n, rng.uniform(1.5, 4) / n, seed))
    for _ in range(200):
        graphs.append(_shuffled_triangle_chain(rng.randint(1, 60), rng.randint(0, 30), rng))
    assert sum(not is_matchable(g) for g in graphs) > 100
    for i, g in enumerate(graphs):
        assert maximum_matching(g).pairing == maximum_matching_full_reset(g).pairing, f"graph {i}"


def test_is_perfect():
    g = build_graph(2, [(0, 1)])
    m = matching_from_edges(2, [(0, 1)])
    m.validate(g)
    assert m.is_perfect
    p3 = path_graph(3)
    m = matching_from_edges(3, [(0, 1)])
    m.validate(p3)
    assert not m.is_perfect
    with pytest.raises(MatchingError):
        matching_from_edges(3, [(0, 2)]).validate(p3)  # not an edge


def test_is_perfect_tangle_matching():
    from fixtures import TANGLE8_M1, tangle8
    g = tangle8()
    m = label_matching(g, TANGLE8_M1)
    m.validate(g)
    assert m.is_perfect


def test_is_matchable():
    assert is_matchable(cycle_graph(4))
    assert not is_matchable(cycle_graph(5))
    assert is_matchable(posy12())
    assert is_matchable(build_graph(0, []))


def test_enumerate_perfect_k2_c4():
    assert len(list(iter_perfect_matchings(build_graph(2, [(0, 1)])))) == 1
    assert len(list(iter_perfect_matchings(cycle_graph(4)))) == 2


def test_enumerate_perfect_ladder8_contains_both_drawn():
    g = ladder8()
    fam = list(iter_perfect_matchings(g))
    pairs = {frozenset(m.edge_pairs()) for m in fam}
    for drawn in (LADDER8_M1, LADDER8_M2):
        assert frozenset(label_matching(g, drawn).edge_pairs()) in pairs


def test_enumerate_perfect_matches_brute_force():
    for seed, g in mixed_corpus(40, max_n=10):
        fam = list(iter_perfect_matchings(g))
        assert len({frozenset(m.edge_pairs()) for m in fam}) == len(fam)
        assert {frozenset(m.edge_pairs()) for m in fam} == brute_perfect_matchings(g), f"seed {seed}"
        for m in fam:
            assert m.is_perfect


def test_enumerate_maximum_p3_c4_c5():
    assert len(list(iter_maximum_matchings(path_graph(3)))) == 2
    assert len(list(iter_maximum_matchings(cycle_graph(4)))) == 2
    assert len(list(iter_maximum_matchings(cycle_graph(5)))) == 5


def test_enumerate_maximum_matches_brute_force():
    # Up to n = 10, so some graphs leave two or more vertices unmatched.
    for seed, g in mixed_corpus(40, max_n=10):
        fam = list(iter_maximum_matchings(g))
        assert {frozenset(m.edge_pairs()) for m in fam} == brute_maximum_matchings(g), f"seed {seed}"


def test_enumeration_bound():
    # The iterators refuse at the call, before the first matching is asked for.
    with pytest.raises(BoundExceededError):
        iter_perfect_matchings(complete_graph(18))
    # The bound is configuration: tighten it and a small graph is rejected,
    # loosen it and an 18-vertex cycle enumerates fine.
    with pytest.raises(BoundExceededError):
        iter_maximum_matchings(cycle_graph(6), max_order=4)
    assert len(list(iter_perfect_matchings(cycle_graph(18), max_order=18))) == 2


def test_exists_max_matching_avoiding():
    k2 = build_graph(2, [(0, 1)])
    assert not exists_max_matching_avoiding(k2, (0, 1))
    c4 = cycle_graph(4)
    for e in c4.edges:
        assert exists_max_matching_avoiding(c4, e)
    assert exists_max_matching_avoiding(posy12(), (8, 10))
    with pytest.raises(GraphError):
        exists_max_matching_avoiding(k2, (0, 0))


def test_exists_avoiding_agrees_with_enumeration():
    for seed, g in mixed_corpus(40, max_n=10):
        if not g.edges:
            continue
        maxima = list(iter_maximum_matchings(g))
        for e in g.edges:
            expected = any(not m.contains_edge(e) for m in maxima)
            assert exists_max_matching_avoiding(g, e) == expected, f"seed {seed} {e}"


def test_union_of_two_perfect_matchings_structure():
    # Shared edges aside, the union must decompose into even cycles that
    # alternate between the two matchings.
    for seed, g in mixed_corpus(60, max_n=10):
        fam = list(iter_perfect_matchings(g))
        if len(fam) < 2:
            continue
        for m1 in fam[:4]:
            for m2 in fam[:4]:
                e1 = set(m1.edge_pairs())
                e2 = set(m2.edge_pairs())
                sym = e1 ^ e2
                deg = {}
                for u, v in sym:
                    deg[u] = deg.get(u, 0) + 1
                    deg[v] = deg.get(v, 0) + 1
                assert all(d == 2 for d in deg.values())
                assert len(sym) % 2 == 0


@given(st.integers(0, 10).flatmap(lambda n: st.tuples(
    st.just(n),
    st.sets(st.tuples(st.integers(0, 9), st.integers(0, 9))
            .map(lambda e: (min(e), max(e)))
            .filter(lambda e: e[0] != e[1] and e[1] < n)))))
def test_maximum_matching_always_valid(case):
    n, edges = case
    g = build_graph(n, sorted(edges))
    m = maximum_matching(g)
    m.validate(g)  # involution over actual edges
    assert 0 <= m.size <= n // 2
    assert m.size >= (1 if edges else 0)  # an edge exists, so can a pair


def test_library_matchings_equal_their_checked_construction():
    # maximum_matching and the enumerators build their matchings without
    # the constructor's checks; each is an involution the checked
    # constructor accepts as the same matching.
    for seed, g in matchable_corpus(60, max_n=10):
        found = [maximum_matching(g), *iter_perfect_matchings(g), *iter_maximum_matchings(g)]
        for m in found:
            checked = Matching(m.pairing)
            assert type(m) is Matching and checked == m and checked.pairing == m.pairing, seed
            m.validate(g)
    for seed, g in mixed_corpus(60):
        m = maximum_matching(g)
        assert Matching(m.pairing) == m, seed


def test_matching_text_roundtrip():
    g = ladder8()
    m = maximum_matching(g)
    text = "".join(f"{u} {v}\n" for u, v in m.edge_pairs())
    assert parse_matching(text, g.n) == m
    # Comment and blank lines are skipped.
    assert parse_matching(f"# pairs\n\n  \n{text}# end\n", g.n) == m


def test_parse_matching_rejects_garbage():
    with pytest.raises(MatchingError):
        parse_matching("0 1 2\n", 4)
    with pytest.raises(MatchingError):
        parse_matching("0 9\n", 4)
    with pytest.raises(MatchingError, match="malformed matching line '0 x'"):
        parse_matching("0 x\n", 4)
