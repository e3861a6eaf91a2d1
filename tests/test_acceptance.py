"""Acceptance gate: every criterion at its stated tolerance and budget.

All equalities are exact integer or set equality; each test prints one
pass line (visible with -s or -rA) and enforces its wall-clock budget.
"""

import time

from sdke import (
    delete_edge,
    det_adjacency,
    enumerate_sachs,
    factorization_report,
    iter_maximum_matchings,
    iter_perfect_matchings,
    matching_number,
    perm_adjacency,
    reachable_set,
    sachs_census,
    sd_ke_partition,
    sd_vertices_of,
)
from conftest import matchable_corpus, mixed_corpus
from fixtures import (
    LADDER8_M1,
    LADDER8_M2,
    POSY12_M,
    TANGLE8_M1,
    TANGLE8_M2,
    cycle_graph,
    flower9,
    label_ids,
    label_matching,
    ladder8,
    mixed32,
    path_graph,
    posy12,
    tangle8,
)
from oracles import independence_number
from sdke import build_graph


class Budget:
    def __init__(self, name, seconds):
        self.name = name
        self.seconds = seconds

    def __enter__(self):
        self.start = time.monotonic()
        return self

    def __exit__(self, exc_type, exc, tb):
        elapsed = time.monotonic() - self.start
        if exc_type is None:
            assert elapsed < self.seconds, (
                f"{self.name} took {elapsed:.2f}s, budget {self.seconds}s"
            )
            print(f"PASS {self.name} ({elapsed:.2f}s)")
        return False


def test_criterion_1_fixture_reachability():
    with Budget("criterion 1: fixture reachability", 1.0):
        g = ladder8()
        idx = {lab: i for i, lab in enumerate(g.labels)}
        for pairs in (LADDER8_M1, LADDER8_M2):
            m = label_matching(g, pairs)
            r1 = {g.labels[v] for v in reachable_set(g, m, idx[1])}
            r2 = {g.labels[v] for v in reachable_set(g, m, idx[2])}
            assert r1 == {2, 4, 5, 7}
            assert r2 == {1, 3, 6, 8}
        t = tangle8()
        tidx = {lab: i for i, lab in enumerate(t.labels)}
        everything = frozenset(range(8))
        for pairs in (TANGLE8_M1, TANGLE8_M2):
            m = label_matching(t, pairs)
            assert reachable_set(t, m, tidx[1]) == everything
            assert reachable_set(t, m, tidx[2]) == everything


def test_criterion_2_partition_fixtures():
    with Budget("criterion 2: partition fixtures", 1.0):
        # Fully SD graph: empty KE part.
        pt = sd_ke_partition(tangle8())
        assert pt.ke_vertices == frozenset()
        # SD core with pendant KE pair.
        pp = sd_ke_partition(posy12(), label_matching(posy12(), POSY12_M))
        assert pp.sd_vertices == frozenset(range(10))
        assert pp.ke_vertices == frozenset({10, 11})
        assert pp.cut == frozenset({(8, 10)})
        # Stability pair: deleting the matched KE edge 67 makes all SD.
        g = flower9()
        idx = {lab: i for i, lab in enumerate(g.labels)}
        e = (idx[6], idx[7])
        ke_before = frozenset(range(g.n)) - sd_vertices_of(g)
        assert ke_before == label_ids(g, [6, 7])
        ke_after = frozenset(range(g.n)) - sd_vertices_of(delete_edge(g, e))
        assert ke_after == frozenset()


def test_criterion_3_harary_agreement():
    with Budget("criterion 3: Sachs/direct agreement on 200 graphs", 120.0):
        fixtures = [
            (build_graph(2, [(0, 1)]), -1, 1),
            (cycle_graph(3), 2, 2),
            (cycle_graph(4), 0, 4),
            (path_graph(4), 1, 1),
        ]
        for g, det, perm in fixtures:
            assert sachs_census(g)[1:] == (det_adjacency(g), perm_adjacency(g)) == (det, perm)
        count = 0
        for seed, g in mixed_corpus(200, max_n=12):
            assert sachs_census(g)[1:] == (det_adjacency(g), perm_adjacency(g)), f"seed {seed}"
            count += 1
        assert count == 200


def test_criterion_4_multiplicativity():
    with Budget("criterion 4: det/perm multiplicativity on 500 graphs", 600.0):
        count = 0
        for seed, g in matchable_corpus(500):
            r = factorization_report(g)
            assert r.det_g == r.det_sd * r.det_ke, f"seed {seed}"
            assert r.perm_g == r.perm_sd * r.perm_ke, f"seed {seed}"
            count += 1
        assert count == 500


def test_criterion_5_cut_disjointness():
    with Budget("criterion 5: cut disjointness", 600.0):
        for seed, g in matchable_corpus(500, max_n=12):
            part = sd_ke_partition(g)
            if part.cut:
                for s in enumerate_sachs(g):
                    assert not (s.edges() & part.cut), f"seed {seed}"
            for m in iter_maximum_matchings(g):
                for e in part.cut:
                    assert not m.contains_edge(e), f"seed {seed}"


def test_criterion_6_reachability_invariance():
    with Budget("criterion 6: reachability invariance on 100 graphs", 300.0):
        count = 0
        for seed, g in matchable_corpus(1000, max_n=12):
            if count == 100:
                break
            fam = list(iter_perfect_matchings(g))
            reference = [reachable_set(g, fam[0], v) for v in range(g.n)]
            for m in fam[1:]:
                got = [reachable_set(g, m, v) for v in range(g.n)]
                assert got == reference, f"seed {seed}"
            count += 1
        assert count == 100


def test_criterion_7_mu_additivity_and_ke_status():
    with Budget("criterion 7: mu additivity and KE/SD status", 300.0):
        for seed, g in matchable_corpus(500):
            p = sd_ke_partition(g)
            mu = matching_number(g)
            assert mu == matching_number(p.sd_part) + matching_number(p.ke_part), (
                f"seed {seed}"
            )
            ke = p.ke_part
            assert independence_number(ke) + matching_number(ke) == ke.n, f"seed {seed}"
            sd = p.sd_part
            if sd.n:
                assert independence_number(sd) + matching_number(sd) < sd.n, (
                    f"seed {seed}"
                )


def test_criterion_8_worked_example():
    with Budget("criterion 8: 32-vertex worked example", 60.0):
        r = factorization_report(mixed32(), include_permanent=False)
        assert r.det_ke == -1
        assert r.det_sd == -5
        assert r.det_g == 5
        assert r.det_g == r.det_sd * r.det_ke
