"""Wide sweeps and scale smoke tests, marked slow.

Tier-1 deselects them (``addopts`` in pyproject.toml); CI runs each one,
and each part of the exhaustive SD sweep, as its own step under a 120 s
limit, for example

    PYTHONPATH=src timeout 120 python -m pytest -q -m slow -k matching_scale
"""

import math
import random
import time

import pytest

import sdke
from sdke import alternating, configurations, decomposition, verification
from sdke.determinantal import _frontier_plan, _perm_frontier, _perm_glynn
from fixtures import doctored_splits, ke_status_cases, planted_split, random_graph, sd_components
import oracles
from oracles import (
    ke_status_by_alpha,
    matched_cut_edge,
    matching_invariance_per_matching,
    sachs_cut_disjointness,
    sd_vertices_stop_at_full,
    stability_per_edge,
)

pytestmark = pytest.mark.slow


def test_matching_scale():
    # A planted perfect matching plus about n random extra edges at
    # n = 10^5, built in O(n + m).  maximum_matching takes a few seconds
    # here; a search that costs O(n) per root would take minutes.
    n = 100_000
    rng = random.Random(1)
    order = list(range(n))
    rng.shuffle(order)
    edges = {(min(a, b), max(a, b)) for a, b in zip(order[0::2], order[1::2])}
    for _ in range(n):
        u, v = rng.randrange(n), rng.randrange(n)
        if u != v:
            edges.add((min(u, v), max(u, v)))
    g = sdke.build_graph(n, sorted(edges))
    assert sdke.maximum_matching(g).is_perfect


def test_planted_split_scale(monkeypatch):
    # fixtures.planted_split at n = 10^5, half of it in K4 blocks: the
    # split returns the planted SD set and passes its block certificate.
    # No witness or part is built before its first read: the certificate
    # reads the cut, which builds neither part, and the first read of
    # each part makes one induced_subgraph call.  The first read of the
    # witnesses then builds one for each planted SD vertex, and
    # every one passes the walk checker and lies in its own connected
    # component of G[SD].  About 7 s on a 2-core VM with Python 3.11:
    # 0.9 s to build the witnesses, 2.7 s to check them.
    parts, walks = [], []

    def induced(graph, vertices, _original=decomposition.induced_subgraph):
        parts.append(len(vertices))
        return _original(graph, vertices)

    def tree_walks(*args, _original=decomposition._tree_walks):
        walks.append(len(args[-1]))
        return _original(*args)

    monkeypatch.setattr(decomposition, "induced_subgraph", induced)
    monkeypatch.setattr(decomposition, "_tree_walks", tree_walks)
    g, sd, _ = planted_split(100_000, 12_500, random.Random(17))
    part = sdke.sd_ke_partition(g)
    assert part.sd_vertices == sd and len(part.ke_vertices) == 50_000
    assert parts == []
    assert verification._block_fault(g, part) is None
    assert parts == [] and walks == []
    assert part.sd_part.n == 50_000 and parts == [50_000]
    assert part.ke_part.n == 50_000 and parts == [50_000, 50_000] and walks == []
    assert set(part.witnesses) == sd and walks == [50_000]
    pairing = part.matching.pairing
    component = {v: c for c in sd_components(part) for v in c}
    for v, w in part.witnesses.items():
        assert alternating._walk_holds(g, pairing, w), v
        assert w.vertices[0] == w.vertices[-1] == v and component[v].issuperset(w.vertices), v


def test_witness_build_scales_linearly():
    # The witness builder costs O(n + m) plus the length of the walks it
    # returns.  On planted splits at n = 2.5 * 10^4 and 10^5, its best-of-3
    # time per unit of n + m + walk edges must grow less than twofold.
    # On a 2-core VM with Python 3.11 it read 0.22 -> 0.31 us per unit
    # (x1.3 to x1.6 over four runs), where a quadratic builder, a bitset
    # level sweep per block of targets, read 3.8 -> 18.4 us (x4.9).  A
    # ratio of two runs in one process, not an absolute time, so that a
    # shared or slow machine does not decide it.
    per_unit = []
    for n in (25_000, 100_000):
        g, sd, _ = planted_split(n, n // 8, random.Random(17))
        pairing = sdke.sd_ke_partition(g).matching.pairing
        arcs, comp, split_sd = decomposition._split(g, pairing)
        assert split_sd == sd
        best = math.inf
        for _ in range(3):
            walks = None  # the last build's walks are freed before the next
            start = time.perf_counter()
            walks = alternating._tree_walks(arcs, comp, pairing, sd)
            best = min(best, time.perf_counter() - start)
        assert set(walks) == sd
        per_unit.append(best / (n + len(g.edges) + sum(w.num_edges for w in walks.values())))
    assert per_unit[1] < 2 * per_unit[0], per_unit


def test_permanent_engines():
    # The frontier DP and Glynn's loop must agree at orders where tier-1
    # cannot afford Glynn: the 22-vertex ladder and seeded random
    # matchable graphs at n = 20 and 22.  Glynn takes about a second per
    # graph here; the DP takes milliseconds.
    k = 11
    ladder = sdke.build_graph(2 * k, [(i, i + 1) for i in range(k - 1)]
                              + [(k + i, k + i + 1) for i in range(k - 1)]
                              + [(i, k + i) for i in range(k)])
    graphs = [("ladder22", ladder)]
    graphs += [(f"n={n} p={p} seed={s}", sdke.random_matchable_graph(n, p, s))
               for n in (20, 22) for p in (0.1, 0.3) for s in (1, 2)]
    for name, g in graphs:
        dp = _perm_frontier(g, _frontier_plan(g)[0])
        assert dp == _perm_glynn(g), name


SD_SWEEP_PARTS = 4


def _exhaustive_sd_sweep_graphs():
    """(name, graph) of the exhaustive SD sweep: 10,080 seeded random graphs
    with n = 4-12, then the 2,222 non-matchable G - e of 900 seeded
    matchable graphs with n = 8, 10 and 12."""
    graphs = [(f"random_graph({n}, {p}, {s})", random_graph(n, p, s))
              for n in range(4, 13) for p in (0.2, 0.3, 0.4, 0.5) for s in range(280)]
    for n in (8, 10, 12):
        for p in (0.1, 0.2, 0.3):
            for s in range(100):
                g = sdke.random_matchable_graph(n, p, s)
                for e in g.edges:
                    h = sdke.delete_edge(g, e)
                    if not sdke.maximum_matching(h).is_perfect:
                        graphs.append((f"random_matchable_graph({n}, {p}, {s}) - {e}", h))
    return graphs


@pytest.mark.parametrize("part", range(SD_SWEEP_PARTS), ids=lambda k: f"part{k}")
def test_exhaustive_sd_sweep(part, monkeypatch):
    # sd_vertices_bruteforce, the union of walk covers stopped at the
    # components the first cover touches, must equal the blossom-by-blossom
    # oracle, which lists every simple odd cycle and runs until every
    # vertex is covered or the maximum matchings run out.  One graph,
    # random_graph(12, 0.5, 232), has 276,893 of them, so the oracle's cap
    # is raised.  The graphs are dealt round-robin into SD_SWEEP_PARTS
    # parts, one CI step each.
    monkeypatch.setattr(oracles, "DEFAULT_MAX_CYCLES", 1_000_000)
    graphs = _exhaustive_sd_sweep_graphs()
    assert len(graphs) == 10_080 + 2_222
    for name, g in graphs[part::SD_SWEEP_PARTS]:
        got = configurations.sd_vertices_bruteforce(g, max_order=g.n)
        assert got == sd_vertices_stop_at_full(g), name


def test_matching_invariance_sweep(monkeypatch):
    # The theorem suite's one pass over the perfect matchings (reach and
    # SD-set invariance from one packed Warshall closure per chunk) must
    # equal the per-matching oracle (a state search per vertex and
    # matching) on 1,200 seeded matchable graphs and on K2-K12, at chunks
    # of 1, 3, 7 and 256 matchings; K12's 10,395 cross the 256-matching
    # boundary 40 times.
    graphs = [(f"random_matchable_graph({n}, {p}, {s})", sdke.random_matchable_graph(n, p, s))
              for n in range(4, 13, 2) for p in (0.2, 0.3, 0.4, 0.5) for s in range(60)]
    graphs += [(f"K{n}", sdke.build_graph(n, [(u, v) for u in range(n) for v in range(u + 1, n)]))
               for n in range(2, 13, 2)]
    for name, g in graphs:
        matchings = list(sdke.iter_perfect_matchings(g))
        part = sdke.sd_ke_partition(g)
        want = matching_invariance_per_matching(g, matchings, part)
        for chunk in (1, 3, 7, 256):
            monkeypatch.setattr(verification, "_CHUNK", chunk)
            got = verification._matching_faults(g, part, iter(matchings))
            assert got == want, (name, chunk)


def test_cut_certificate_sweep():
    # The suite's block certificate against both exhaustive cut routes, the
    # Sachs enumeration and the per-matching cut check, on 1,200 seeded
    # matchable graphs with n = 4-12: it passes every true split, and of
    # the doctored splits (random cuts, random unions of matched pairs,
    # moved SD components) it passes none that either route fails.
    rng = random.Random(26)
    verdicts = []
    for n in range(4, 13, 2):
        for p in (0.2, 0.3, 0.4, 0.5):
            for s in range(60):
                g = sdke.random_matchable_graph(n, p, s)
                matchings = list(sdke.iter_perfect_matchings(g))
                cases = [("true", sdke.sd_ke_partition(g)), *doctored_splits(g, rng)]
                for kind, part in cases:
                    passed = verification._block_fault(g, part) is None
                    exhaustive = (sachs_cut_disjointness(g, part.cut)[0]
                                  and matched_cut_edge(matchings, part.cut) is None)
                    name = f"random_matchable_graph({n}, {p}, {s}), {kind}"
                    assert exhaustive if passed else kind != "true", name
                    verdicts.append((passed, exhaustive))
    assert verdicts.count((True, True)) > 1200 and verdicts.count((False, False)) > 1000


def test_stability_sweep():
    # The theorem suite's stability loop, on one matching of G, must equal
    # the per-edge oracle, which shares no SD or stability code with it, on
    # 900 seeded matchable graphs.
    for n in range(4, 13, 2):
        for p in (0.2, 0.3, 0.4):
            for s in range(60):
                g = sdke.random_matchable_graph(n, p, s)
                part = sdke.sd_ke_partition(g)
                got = verification._stability_fault(g, part)
                name = f"random_matchable_graph({n}, {p}, {s})"
                assert got == stability_per_edge(g, 12), name


def test_ke_certificate_sweep():
    # The suite's two KE checks, from the partition's certificates, must
    # give the verdicts of the independence-number oracle on 750 seeded
    # sparse matchable graphs with n = 22-40, beyond tier-1's n <= 20: on
    # each partition, with its parts swapped, and with each SD component
    # moved into KE.
    verdicts = []
    for n, seeds in [(n, 50) for n in range(22, 31, 2)] + [(n, 25) for n in range(32, 41, 2)]:
        for p in (0.05, 0.1):
            for s in range(seeds):
                g = sdke.random_matchable_graph(n, p, s)
                for kind, part in ke_status_cases(g):
                    ke = verification._ke_fault(part, sdke.matching_number(part.ke_part))
                    sd = verification._sd_fault(part, sdke.matching_number(part.sd_part))
                    got = [ke is None, sd is None]
                    assert got == ke_status_by_alpha(part), (n, p, s, kind)
                    verdicts += got
    assert verdicts.count(False) > 1000 and verdicts.count(True) > 1000
