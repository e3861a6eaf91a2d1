import random

import pytest

from sdke import (
    GraphError,
    NotMatchableError,
    build_graph,
    check_stability_under_deletion,
    delete_edge,
    disjoint_union,
    enumerate_perfect_matchings,
    matching_from_edges,
    matching_number,
    sd_ke_partition,
    sd_vertices_of,
    verify_walk,
)
from conftest import matchable_corpus
from fixtures import (
    POSY12_M,
    TANGLE8_M1,
    cycle_graph,
    flower9,
    label_ids,
    label_matching,
    ladder8,
    posy12,
    tangle8,
)


def test_ladder8_is_all_ke():
    g = ladder8()
    p = sd_ke_partition(g)
    assert p.sd_vertices == frozenset()
    assert p.ke_vertices == frozenset(range(8))
    assert p.cut == frozenset()
    assert p.ke_part.n == 8 and p.sd_part.n == 0


def test_tangle8_is_all_sd():
    g = tangle8()
    p = sd_ke_partition(g, label_matching(g, TANGLE8_M1))
    assert p.sd_vertices == frozenset(range(8))
    assert p.ke_vertices == frozenset()
    assert p.cut == frozenset()
    assert set(p.witnesses) == set(range(8))


def test_posy12_partition():
    g = posy12()
    p = sd_ke_partition(g, label_matching(g, POSY12_M))
    assert p.sd_vertices == frozenset(range(10))
    assert p.ke_vertices == frozenset({10, 11})
    assert p.cut == frozenset({(8, 10)})
    assert p.ke_part.n == 2 and p.ke_part.edges == ((0, 1),)
    # Certificates: every SD vertex carries a verified closed walk, and
    # the KE pair carries a failed search at one of its members.
    for v in p.sd_vertices:
        w = p.witnesses[v]
        assert w.vertices[0] == v and w.is_closed and verify_walk(g, p.matching, w)
    assert 10 in p.failed_searches
    assert not any(v in p.witnesses for v in p.ke_vertices)


def test_empty_graph_partition():
    g = build_graph(0, [])
    p = sd_ke_partition(g)
    assert p.sd_vertices == p.ke_vertices == frozenset()
    assert p.sd_part.n == p.ke_part.n == 0 and p.cut == frozenset()


def test_partition_requires_perfect_matching():
    with pytest.raises(NotMatchableError):
        sd_ke_partition(cycle_graph(5))
    g = build_graph(4, [(0, 1), (2, 3)])
    with pytest.raises(NotMatchableError):
        sd_ke_partition(g, matching_from_edges(4, [(0, 1)]))


def test_partition_sd_pairs_closed_under_matching():
    for seed, g in matchable_corpus(40, max_n=12):
        p = sd_ke_partition(g)
        for v in range(g.n):
            u = p.matching.pairing[v]
            assert (v in p.sd_vertices) == (u in p.sd_vertices), f"seed {seed}"


def test_partition_matching_invariance():
    for seed, g in matchable_corpus(30, max_n=10):
        fam = enumerate_perfect_matchings(g)
        parts = [sd_ke_partition(g, m) for m in fam]
        assert len({p.sd_vertices for p in parts}) == 1, f"seed {seed}"


def test_partition_independent_of_visit_order():
    # Relabeling the vertices by a random permutation and mapping back
    # must produce the same partition.
    rng = random.Random(7)
    for seed, g in matchable_corpus(20, max_n=10):
        perm = list(range(g.n))
        rng.shuffle(perm)
        relabeled = build_graph(
            g.n, [(perm[u], perm[v]) for u, v in g.edges]
        )
        p = sd_ke_partition(g)
        q = sd_ke_partition(relabeled)
        assert {perm[v] for v in p.sd_vertices} == set(q.sd_vertices), f"seed {seed}"


def test_parts_are_matchable():
    for seed, g in matchable_corpus(40, max_n=12):
        p = sd_ke_partition(g)
        assert matching_number(p.sd_part) * 2 == p.sd_part.n, f"seed {seed}"
        assert matching_number(p.ke_part) * 2 == p.ke_part.n, f"seed {seed}"


def test_mu_additivity_on_corpus():
    for seed, g in matchable_corpus(40, max_n=12):
        p = sd_ke_partition(g)
        assert (
            matching_number(g)
            == matching_number(p.sd_part) + matching_number(p.ke_part)
        ), f"seed {seed}"


def test_cut_edges_have_one_end_per_side():
    for seed, g in matchable_corpus(40, max_n=12):
        p = sd_ke_partition(g)
        for u, v in p.cut:
            assert (u in p.sd_vertices) != (v in p.sd_vertices)
        within = {
            e for e in g.edges
            if (e[0] in p.sd_vertices) == (e[1] in p.sd_vertices)
        }
        assert p.cut == g.edge_set - within


def test_stability_on_ke_cycle_with_gadget():
    # A C4 next to a K2: everything KE, deleting any C4 edge keeps SD empty.
    g = disjoint_union(cycle_graph(4), build_graph(2, [(0, 1)]))
    for e in cycle_graph(4).edges:
        rep = check_stability_under_deletion(g, e)
        assert rep.ok and rep.equal and rep.avoidable
        assert rep.sd_before == rep.sd_after == frozenset()


def test_stability_flower9_strict_growth():
    g = flower9()
    idx = {lab: i for i, lab in enumerate(g.labels)}
    e = (idx[6], idx[7])
    rep = check_stability_under_deletion(g, e)
    assert not rep.avoidable  # edge 67 lies in every maximum matching
    assert rep.sd_before == label_ids(g, [1, 2, 3, 4, 5, 8, 9])
    assert rep.sd_after == frozenset(range(9))
    assert rep.inclusion_ok and not rep.equal and rep.ok


def test_flower9_ke_sets_match_captions():
    g = flower9()
    assert frozenset(range(g.n)) - sd_vertices_of(g) == label_ids(g, [6, 7])
    idx = {lab: i for i, lab in enumerate(g.labels)}
    g2 = delete_edge(g, (idx[6], idx[7]))
    assert sd_vertices_of(g2) == frozenset(range(9))


def test_stability_rejects_non_ke_edges():
    g = posy12()
    with pytest.raises(GraphError, match="KE part"):
        check_stability_under_deletion(g, (8, 10))  # cut edge
    with pytest.raises(GraphError, match="KE part"):
        check_stability_under_deletion(g, (0, 1))  # SD edge
    with pytest.raises(GraphError, match="not in graph"):
        check_stability_under_deletion(g, (0, 11))


def test_stability_avoidable_edges_on_corpus():
    from sdke import exists_max_matching_avoiding

    checked = 0
    for seed, g in matchable_corpus(30, max_n=10):
        p = sd_ke_partition(g)
        ke_edges = [
            e for e in g.edges
            if e[0] in p.ke_vertices and e[1] in p.ke_vertices
        ]
        for e in ke_edges[:3]:
            rep = check_stability_under_deletion(g, e)
            assert rep.inclusion_ok, f"seed {seed} {e}"
            if exists_max_matching_avoiding(g, e):
                assert rep.equal, f"seed {seed} {e}"
            checked += 1
    assert checked > 20
