"""Wide sweeps and scale smoke tests, marked slow.

Tier-1 deselects them (``addopts`` in pyproject.toml); CI runs each one,
and each part of the exhaustive SD sweep, as its own step under a 120 s
limit, for example

    PYTHONPATH=src timeout 120 python -m pytest -q -m slow -k matching_scale
"""

import random

import pytest

import sdke
from sdke import configurations, verification
from sdke.determinantal import _frontier_plan, _perm_frontier, _perm_glynn
from fixtures import ke_status_cases, random_graph
import oracles
from oracles import (
    ke_status_by_alpha,
    matching_invariance_per_matching,
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
    # SD-set invariance from one packed Warshall closure per chunk, and
    # matched cut edges from the same partner masks) must equal the
    # per-matching oracle (a state search per vertex and matching) on 1,200
    # seeded matchable graphs and on K2-K12, at chunks of 1, 3, 7 and 256
    # matchings; K12's 10,395 cross the 256-matching boundary 40 times.
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
            got = verification._check_perfect_matchings(g, part, iter(matchings))
            assert got == want, (name, chunk)


def test_stability_sweep():
    # The theorem suite's stability loop, on one matching of G, must equal
    # the per-edge oracle, which shares no SD or stability code with it, on
    # 900 seeded matchable graphs.
    for n in range(4, 13, 2):
        for p in (0.2, 0.3, 0.4):
            for s in range(60):
                g = sdke.random_matchable_graph(n, p, s)
                part = sdke.sd_ke_partition(g)
                got = verification._check_stability(g, part, 12)
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
                    mu_sd = sdke.matching_number(part.sd_part)
                    mu_ke = sdke.matching_number(part.ke_part)
                    got = [r.passed for r in verification._check_ke_status(part, mu_sd, mu_ke)]
                    assert got == ke_status_by_alpha(part), (n, p, s, kind)
                    verdicts += got
    assert verdicts.count(False) > 1000 and verdicts.count(True) > 1000
