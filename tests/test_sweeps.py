"""Wide sweeps and scale smoke tests, marked slow.

Tier-1 deselects them (``addopts`` in pyproject.toml); CI runs each one
as its own step under a 120 s limit, for example

    PYTHONPATH=src timeout 120 python -m pytest -q -m slow -k matching_scale
"""

import random

import pytest

import sdke
from sdke import configurations, verification
from sdke.determinantal import _frontier_plan, _perm_frontier, _perm_glynn
from oracles import matching_invariance_per_matching, sd_vertices_stop_at_full, stability_per_edge

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


def test_exhaustive_sd_sweep():
    # sd_vertices_bruteforce stops at its Sterboul-Deming ceiling; the
    # oracle runs until every vertex is covered or the maximum matchings
    # run out.  They must agree on about 3,000 seeded random graphs and
    # on every non-matchable G - e of 120 seeded matchable graphs, wider
    # than tier-1's 600 graphs.
    graphs = [(f"random_graph({n}, {p}, {s})", sdke.random_graph(n, p, s))
              for n in range(5, 12) for p in (0.25, 0.35, 0.5) for s in range(143)]
    for p in (0.2, 0.3, 0.4):
        for s in range(40):
            g = sdke.random_matchable_graph(12, p, s)
            for e in g.edges:
                h = sdke.delete_edge(g, e)
                if not sdke.maximum_matching(h).is_perfect:
                    graphs.append((f"random_matchable_graph(12, {p}, {s}) - {e}", h))
    for name, g in graphs:
        got = configurations.sd_vertices_bruteforce(g, max_order=g.n)
        assert got == sd_vertices_stop_at_full(g), name


def test_matching_invariance_sweep():
    # The theorem suite's reach and SD-set invariance checks, from one
    # packed Warshall closure per chunk of perfect matchings, must equal
    # the per-matching oracle (one reachable_sets call per matching) on
    # 1,200 seeded matchable graphs and on K2-K12, whose K12 crosses the
    # 256-matching chunk boundary 40 times.
    graphs = [(f"random_matchable_graph({n}, {p}, {s})", sdke.random_matchable_graph(n, p, s))
              for n in range(4, 13, 2) for p in (0.2, 0.3, 0.4, 0.5) for s in range(60)]
    graphs += [(f"K{n}", sdke.build_graph(n, [(u, v) for u in range(n) for v in range(u + 1, n)]))
               for n in range(2, 13, 2)]
    for name, g in graphs:
        matchings = sdke.enumerate_perfect_matchings(g)
        pm = sdke.sd_ke_partition(g).matching
        got = verification._check_matching_invariance(g, matchings, pm)
        assert got == matching_invariance_per_matching(g, matchings, pm), name


def test_stability_sweep():
    # The theorem suite's stability loop, on one matching of G, must equal
    # one check_stability_under_deletion call per KE edge on 900 seeded
    # matchable graphs.
    for n in range(4, 13, 2):
        for p in (0.2, 0.3, 0.4):
            for s in range(60):
                g = sdke.random_matchable_graph(n, p, s)
                part = sdke.sd_ke_partition(g)
                got = verification._check_stability(g, part, 12)
                name = f"random_matchable_graph({n}, {p}, {s})"
                assert got == stability_per_edge(g, part, 12), name
