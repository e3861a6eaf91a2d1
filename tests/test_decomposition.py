import copy
import pickle
import random
import sys
import threading
from collections import Counter

import pytest

import sdke
from sdke import (
    Matching,
    NotMatchableError,
    SdKePartition,
    build_graph,
    delete_edge,
    factorization_report,
    induced_subgraph,
    iter_perfect_matchings,
    matching_from_edges,
    matching_number,
    random_matchable_graph,
    run_theorem_suite,
    sd_ke_partition,
    sd_vertices_of,
    serialize_edge_list,
    verify_walk,
)
from sdke.cli import run_cli
from sdke.decomposition import _sd_vertices
from conftest import matchable_corpus
from fixtures import (
    POSY12_M,
    TANGLE8_M1,
    cycle_graph,
    disjoint_union,
    flower9,
    label_ids,
    label_matching,
    ladder8,
    planted_split,
    posy12,
    replaced,
    sd_components,
    tangle8,
)
from oracles import (
    exists_max_matching_avoiding,
    sd_split_per_pair_bfs,
    sd_vertices_by_search,
    shortest_mm_closed_walk_bfs,
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


def _oracle_cases():
    yield from matchable_corpus(60)
    for n in range(10, 81, 10):
        for seed in range(4):
            yield f"sparse n={n} seed={seed}", random_matchable_graph(n, 3 / n, seed)


def test_partition_against_per_pair_bfs_oracle():
    seen_ke_pair = seen_sd = False
    for name, g in _oracle_cases():
        p = sd_ke_partition(g)
        pairing = p.matching.pairing
        shortest = [shortest_mm_closed_walk_bfs(g, pairing, v) for v in range(g.n)]
        assert p.sd_vertices == sd_split_per_pair_bfs(g, pairing), name
        assert p.ke_vertices == frozenset(range(g.n)) - p.sd_vertices, name
        # One certified member per KE pair, and it really has no closed walk.
        assert len(p.failed_searches) * 2 == len(p.ke_vertices), name
        for v in p.failed_searches:
            assert v in p.ke_vertices and pairing[v] not in p.failed_searches, name
            assert shortest[v] is None, f"{name} v {v}"
        _assert_witnesses_hold(name, g, p)
        seen_ke_pair |= any(shortest[v] is not None for v in p.ke_vertices)
        seen_sd |= bool(p.sd_vertices)
    # The corpus holds one-sided KE pairs and SD vertices, so both paths ran.
    assert seen_ke_pair and seen_sd


def _assert_witnesses_hold(name, g, p):
    """Every SD vertex v, and no other, has a walk that passes verify_walk,
    starts and ends at v, and lies in v's connected component of G[SD]."""
    assert set(p.witnesses) == p.sd_vertices, name
    component = {v: c for c in sd_components(p) for v in c}
    for v, w in p.witnesses.items():
        assert verify_walk(g, p.matching, w), f"{name} v {v}"
        assert w.vertices[0] == w.vertices[-1] == v, f"{name} v {v}"
        assert component[v].issuperset(w.vertices), f"{name} v {v}"


def _count_witness_routines(monkeypatch):
    """Log the last argument of every call to the one-vertex and the
    all-vertex witness routine, patched in every sdke namespace that binds
    them: the vertex, or the set of targets."""
    from sdke import alternating

    calls = {"_closed_walk": [], "_tree_walks": []}
    for attr, log in calls.items():
        original = getattr(alternating, attr)

        def counted(*args, _original=original, _log=log):
            _log.append(args[-1])
            return _original(*args)

        for name, module in list(sys.modules.items()):
            if name == "sdke" or name.startswith("sdke."):
                for key, value in list(vars(module).items()):
                    if value is original:
                        monkeypatch.setattr(module, key, counted)
    return calls


def test_closed_walk_searches_only_sd_vertices(monkeypatch):
    calls = _count_witness_routines(monkeypatch)
    none = {"_closed_walk": [], "_tree_walks": []}
    for seed, g in matchable_corpus(30, max_n=10):
        for m in iter_perfect_matchings(g):
            for log in calls.values():
                log.clear()
            p = sd_ke_partition(g, m)
            # The split builds no witness; the first read runs one build,
            # whose targets are exactly the SD vertices, and later reads none.
            assert calls == none, f"seed {seed}"
            witnesses = p.witnesses
            assert calls == {"_closed_walk": [], "_tree_walks": [p.sd_vertices]}, f"seed {seed}"
            calls["_tree_walks"].clear()
            assert p.witnesses is witnesses and calls == none, f"seed {seed}"
            assert sd_vertices_of(g) == p.sd_vertices, f"seed {seed}"
            assert _sd_vertices(g, m) == p.sd_vertices, f"seed {seed}"
            assert calls == none, f"seed {seed}"
            _assert_witnesses_hold(f"seed {seed}", g, p)


def _count_builds(monkeypatch):
    """Log the field of every deferred build, in the order they run."""
    from sdke import decomposition

    built = []
    for field, build in list(decomposition._DEFERRED.items()):

        def counted(*split, _build=build, _field=field):
            built.append(_field)
            return _build(*split)

        monkeypatch.setitem(decomposition._DEFERRED, field, counted)
    return built


def test_only_callers_that_read_witnesses_build_them(monkeypatch, tmp_path, capsys):
    # Each caller builds the deferred fields it reads, and no other.
    # factorization_report reads the two parts, sd_vertices_of builds no
    # partition, decompose --text reads the cut and export-dot --decorate
    # the split alone.  The theorem suite reads every field once; it
    # checks no witness where there is no SD vertex (ladder8).
    calls = _count_witness_routines(monkeypatch)
    built = _count_builds(monkeypatch)
    path = tmp_path / "posy12.edges"
    path.write_text(serialize_edge_list(posy12()))
    for name, g in [("posy12", posy12()), ("tangle8", tangle8()), ("ladder8", ladder8())]:
        r = factorization_report(g)
        sd_vertices_of(g)
        assert r.det_product_ok and r.perm_product_ok, name
        assert sorted(built) == ["ke_part", "sd_part"], name
        assert calls == {"_closed_walk": [], "_tree_walks": []}, name
        built.clear()
        suite = run_theorem_suite(g)
        assert all(c.passed for c in suite.checks), name
        sd = r.partition.sd_vertices
        fields = DEFERRED if sd else tuple(f for f in DEFERRED if f != "witnesses")
        assert sorted(built) == sorted(fields), name
        assert calls == {"_closed_walk": [], "_tree_walks": [sd] if sd else []}, name
        calls["_tree_walks"].clear()
        built.clear()
    assert run_cli(["decompose", str(path), "--text"]) == 0
    assert "cut:" in capsys.readouterr().out
    assert built == ["cut"]
    built.clear()
    assert run_cli(["export-dot", str(path), "--decorate"]) == 0
    assert "fillcolor=gray85" in capsys.readouterr().out
    assert calls == {"_closed_walk": [], "_tree_walks": []} and built == []


DEFERRED = ("sd_part", "ke_part", "cut", "witnesses")


def test_deferred_witnesses_keep_the_record_contract(monkeypatch):
    # A partition whose parts, cut and witnesses wait for their first read
    # behaves as one built with the same values given explicitly.
    for g in (posy12(), tangle8(), ladder8(), build_graph(0, [])):
        p = sd_ke_partition(g)
        given = SdKePartition(*(getattr(p, f) for f in SdKePartition._fields))
        assert repr(sd_ke_partition(g)) == repr(given)
        for copied in (
            sd_ke_partition(g),
            pickle.loads(pickle.dumps(sd_ke_partition(g))),
            copy.deepcopy(sd_ke_partition(g)),
            copy.copy(sd_ke_partition(g)),
            replaced(sd_ke_partition(g)),
        ):
            assert copied == given and given == copied
    # Given values are kept as the very objects, and a field deleted from
    # a partition made by the constructor stays unset.
    p = sd_ke_partition(posy12())
    values = [getattr(p, f) for f in SdKePartition._fields]
    given = SdKePartition(*values)
    assert all(getattr(given, f) is v for f, v in zip(SdKePartition._fields, values))
    for name in DEFERRED:
        delattr(given, name)
        with pytest.raises(AttributeError):
            getattr(given, name)
    # Each deferred field acts as a functools.cached_property: assigning
    # it before or after its first read replaces it; deleting it once
    # built makes the next read build it again, and deleting it unread
    # raises.  No other field is built by any of this.
    full = sd_ke_partition(posy12())
    expected = {f: getattr(full, f) for f in DEFERRED}
    built = _count_builds(monkeypatch)
    for name in DEFERRED:
        for read_first in (False, True):
            mine = object()
            p = sd_ke_partition(posy12())
            if read_first:
                getattr(p, name)
            setattr(p, name, mine)
            assert getattr(p, name) is mine
            assert built == ([name] if read_first else []), name
            built.clear()
            p = sd_ke_partition(posy12())
            if read_first:
                first = getattr(p, name)
                delattr(p, name)
                again = getattr(p, name)
                assert again is not first and again == first == expected[name]
                assert getattr(p, name) is again and built == [name, name], name
            else:
                with pytest.raises(AttributeError):
                    delattr(p, name)
                assert built == [], name
            built.clear()
    with pytest.raises(AttributeError):
        p.no_such_field


def test_split_state_lives_as_long_as_the_partition():
    # The graph, D's arcs and components stay with a deferred partition
    # whatever is done to its fields, so that a deleted field can be built
    # again; a partition made by the constructor holds none.
    def state(p):
        return p._SdKePartition__split

    for act in (getattr, delattr, lambda p, f: setattr(p, f, None)):
        p = sd_ke_partition(posy12())
        for f in DEFERRED:
            getattr(p, f)
            act(p, f)
            assert state(p) is not None
    assert state(SdKePartition(*(getattr(p, f) for f in SdKePartition._fields[:6]))) is None


def _count_induced_subgraph(monkeypatch):
    from sdke import decomposition, graph

    calls = []

    def counted(*args, _original=graph.induced_subgraph):
        calls.append(args[1])
        return _original(*args)

    monkeypatch.setattr(decomposition, "induced_subgraph", counted)
    return calls


def test_parts_and_cut_wait_for_their_first_read(monkeypatch):
    # The split calls induced_subgraph for neither part.  The first read
    # of a part calls it once, for that part alone; reading the cut or
    # the witnesses calls it not at all, and later reads never.
    calls = _count_induced_subgraph(monkeypatch)
    for g in (posy12(), tangle8(), ladder8()):
        p = sd_ke_partition(g)
        assert p.witnesses is not None and p.cut is not None and calls == []
        for first, second in (("sd_part", "ke_part"), ("ke_part", "sd_part")):
            p = sd_ke_partition(g)
            getattr(p, first)
            sides = {"sd_part": p.sd_vertices, "ke_part": p.ke_vertices}
            assert calls == [sides[first]]
            getattr(p, second)
            assert calls == [sides[first], sides[second]]
            calls.clear()
            p.sd_part, p.ke_part, p.cut
            assert calls == []


def test_deferred_parts_and_cut_equal_their_definitions():
    # Under the library's own matching and under each given perfect
    # matching, the parts are the induced subgraphs of the split's sides
    # and the cut is the set of crossing edges.
    for seed, g in matchable_corpus(60):
        own = sd_ke_partition(g)
        for p in (own, sd_ke_partition(g, own.matching),
                  *(sd_ke_partition(g, m) for m in iter_perfect_matchings(g))):
            sd = p.sd_vertices
            assert p.sd_part == induced_subgraph(g, sd), seed
            assert p.ke_part == induced_subgraph(g, p.ke_vertices), seed
            assert p.cut == frozenset(e for e in g.edges if (e[0] in sd) != (e[1] in sd)), seed


def test_not_matchable_graphs_raise_as_before():
    # The split's own maximum matching is tested for size alone; one that
    # is not perfect, or a given one, raises the same error.
    message = "SD-KE separation requires a graph with a perfect matching"
    for g in (cycle_graph(5), build_graph(4, [(0, 1), (0, 2), (0, 3)]), build_graph(2, [])):
        for m in (None, sdke.maximum_matching(g)):
            with pytest.raises(NotMatchableError) as raised:
                sd_ke_partition(g, m)
            assert type(raised.value) is NotMatchableError and str(raised.value) == message


def test_concurrent_first_reads_share_one_build(monkeypatch):
    # Four threads read the witnesses, or the cut, of one fresh partition
    # at once, with thread switches forced often: one build of that field
    # runs, and all four get its object.
    calls = _count_witness_routines(monkeypatch)
    parts = _count_induced_subgraph(monkeypatch)
    built = _count_builds(monkeypatch)
    g = random_matchable_graph(200, 3 / 200, 1)
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for name in ("witnesses", "cut") * 10:
            p = sd_ke_partition(g)
            start = threading.Barrier(4)
            got = []

            def read():
                start.wait()
                got.append(getattr(p, name))

            threads = [threading.Thread(target=read) for _ in range(4)]
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=30)
            assert not any(t.is_alive() for t in threads)
            assert len(got) == 4 and all(x is getattr(p, name) for x in got)
            assert built == [name] and parts == []
            if name == "witnesses":
                assert calls["_tree_walks"] == [p.sd_vertices] and p.sd_vertices
            else:
                assert p.cut and calls["_tree_walks"] == []
            calls["_tree_walks"].clear()
            built.clear()
    finally:
        sys.setswitchinterval(interval)


def test_planted_split_against_per_pair_bfs_oracle():
    # fixtures.planted_split knows its SD set by construction.  The split,
    # under the library's matching and under the planted one, and the
    # per-pair search under the planted one all find it.
    shapes = set()
    for seed in range(200):
        rng = random.Random(seed)
        n = rng.randrange(2, 13, 2)
        g, sd, pairing = planted_split(n, rng.randint(0, n // 4), rng, rng.choice((0.5, 1, 2)))
        assert sd_ke_partition(g).sd_vertices == sd == sd_split_per_pair_bfs(g, pairing), seed
        assert sd_ke_partition(g, Matching(pairing)).sd_vertices == sd, seed
        shapes.add((bool(sd), len(sd) < n))
    assert shapes == {(False, True), (True, True), (True, False)}


def test_witnesses_on_wide_and_deep_components():
    # Each walk runs through one root of its strong component C of D, so
    # it has at most 4|C| - 3 edges: one matched edge, then two per arc of
    # the two BFS trees, each at most |C| - 1 deep.  C lies in the walk's
    # component of G[SD], whose size bounds it here.  A 700-vertex graph
    # whose largest SD component holds hundreds of vertices, and an even
    # cycle with chords 0-2 and 1-3, one SD component whose walks grow to
    # about n arcs of D.
    wide = random_matchable_graph(700, 3 / 700, 0)
    deep = build_graph(200, [(i, (i + 1) % 200) for i in range(200)] + [(0, 2), (1, 3)])
    for name, g, longest in (("wide", wide, 10), ("deep", deep, 128)):
        p = sd_ke_partition(g)
        _assert_witnesses_hold(name, g, p)
        sizes = {v: len(c) for c in sd_components(p) for v in c}
        assert max(sizes.values()) > 100, name
        for v, w in p.witnesses.items():
            assert w.num_edges <= 4 * sizes[v] - 3, f"{name} v {v}"
        assert max(w.num_edges for w in p.witnesses.values()) > longest, name


def test_witness_searches_keep_to_their_component(monkeypatch):
    # The two searches per strong component take only its own arcs, so
    # together they reach each SD vertex exactly twice, and nothing else,
    # although an SD component can reach outside itself (posy12's SD side
    # reaches its pendant KE pair).
    from sdke import alternating

    reached = []

    def bfs(*args, _original=alternating._bfs):
        parent = _original(*args)
        reached.extend(parent)
        return parent

    monkeypatch.setattr(alternating, "_bfs", bfs)
    for name, g in [("posy12", posy12()), *_oracle_cases()]:
        p = sd_ke_partition(g)
        reached.clear()
        assert set(p.witnesses) == p.sd_vertices, name
        assert Counter(reached) == Counter(dict.fromkeys(p.sd_vertices, 2)), name


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
        fam = list(iter_perfect_matchings(g))
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
    assert sd_vertices_of(g) == frozenset()
    for e in cycle_graph(4).edges:
        assert exists_max_matching_avoiding(g, e)
        assert sd_vertices_of(delete_edge(g, e)) == frozenset()


def test_stability_flower9_strict_growth():
    g = flower9()
    idx = {lab: i for i, lab in enumerate(g.labels)}
    e = (idx[6], idx[7])
    assert not exists_max_matching_avoiding(g, e)  # edge 67 lies in every maximum matching
    assert sd_vertices_of(g) == label_ids(g, [1, 2, 3, 4, 5, 8, 9])
    assert sd_vertices_of(delete_edge(g, e)) == frozenset(range(9))


def test_stability_oracle_on_flower9():
    # flower9 is not matchable, so the theorem suite never reaches it; the
    # stability oracle's own SD route must give the sets pinned above.
    g = flower9()
    idx = {lab: i for i, lab in enumerate(g.labels)}
    e = (idx[6], idx[7])
    assert not exists_max_matching_avoiding(g, e)
    assert sd_vertices_by_search(g) == label_ids(g, [1, 2, 3, 4, 5, 8, 9])
    assert sd_vertices_by_search(delete_edge(g, e)) == frozenset(range(9))


def test_flower9_ke_sets_match_captions():
    g = flower9()
    assert frozenset(range(g.n)) - sd_vertices_of(g) == label_ids(g, [6, 7])
    idx = {lab: i for i, lab in enumerate(g.labels)}
    g2 = delete_edge(g, (idx[6], idx[7]))
    assert sd_vertices_of(g2) == frozenset(range(9))


def test_stability_avoidable_edges_on_corpus():
    checked = 0
    for seed, g in matchable_corpus(30, max_n=10):
        p = sd_ke_partition(g)
        ke_edges = [
            e for e in g.edges
            if e[0] in p.ke_vertices and e[1] in p.ke_vertices
        ]
        for e in ke_edges[:3]:
            after = sd_vertices_of(delete_edge(g, e))
            assert p.sd_vertices <= after, f"seed {seed} {e}"
            if exists_max_matching_avoiding(g, e):
                assert after == p.sd_vertices, f"seed {seed} {e}"
            checked += 1
    assert checked > 20
