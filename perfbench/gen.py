"""Seeded input generator for the benchmark.

Each graph is a planted perfect matching on a random pairing of the
vertices plus independent extra edges, each other vertex pair present with
probability p.  The extra edges are drawn by geometric skipping over the
pairs in row-major upper-triangle order, so generation is O(n + m) rather
than O(n^2).  Only ``random.Random`` and ``math`` are used, so the same
seed gives byte-identical edge-list text on any platform.
"""

from __future__ import annotations

import hashlib
import math
import random
from dataclasses import dataclass

Edges = list[tuple[int, int]]

CORPUS_SEED = 0


@dataclass(frozen=True)
class Input:
    """One generated graph: its edge-list text and the planted matching."""

    n: int
    edges: Edges
    pairing: tuple[int, ...]

    @property
    def text(self) -> str:
        """The sdke edge-list format: an "n m" header, then one "u v" per line."""
        return f"{self.n} {len(self.edges)}\n" + "".join(f"{u} {v}\n" for u, v in self.edges)


def planted_graph(n: int, p: float, rng: random.Random) -> Input:
    """A planted perfect matching plus G(n, p) extra edges."""
    if n % 2:
        raise ValueError(f"a planted perfect matching needs even n, got {n}")
    order = list(range(n))
    rng.shuffle(order)
    pairing = [0] * n
    edges = set()
    for a, b in zip(order[0::2], order[1::2]):
        pairing[a], pairing[b] = b, a
        edges.add((min(a, b), max(a, b)))
    if p >= 1:
        edges.update((u, v) for u in range(n) for v in range(u + 1, n))
    elif p > 0:
        log_q = math.log1p(-p)
        # Pair k in row-major order is (u, u + 1 + offset); row u holds n - 1 - u pairs.
        u, offset = 0, -1
        while True:
            offset += 1 + int(math.log(1.0 - rng.random()) / log_q)
            while u < n - 1 and offset >= n - 1 - u:
                offset -= n - 1 - u
                u += 1
            if u >= n - 1:
                break
            edges.add((u, u + 1 + offset))
    return Input(n, sorted(edges), tuple(pairing))


def relabel(g: Input, rng: random.Random) -> Input:
    """The same graph under a random vertex permutation."""
    perm = list(range(g.n))
    rng.shuffle(perm)
    edges = sorted((min(perm[u], perm[v]), max(perm[u], perm[v])) for u, v in g.edges)
    pairing = [0] * g.n
    for v, w in enumerate(g.pairing):
        pairing[perm[v]] = perm[w]
    return Input(g.n, edges, tuple(pairing))


def make_inputs(workload: str, seed: int, specs: list[tuple[int, float]]) -> list[Input]:
    """One graph per (n, p) spec, under a vertex relabelling drawn from ``seed``.

    The graph structures come from a fixed corpus seed, so every seed
    relabels the same unfiltered corpus.  Per-graph cost varies too much
    for fresh graphs to give steady figures: at n = 12 one verify-small
    graph in a few hundred takes 10 s against a 30 ms median, and fresh
    dense-perm sets moved lib_p50_ms by 48 % between seeds.
    """
    graphs = random.Random(f"{workload}:{CORPUS_SEED}")
    labels = random.Random(f"{workload}:labels:{seed}")
    return [relabel(planted_graph(n, p, graphs), labels) for n, p in specs]


def inputs_hash(inputs: list[Input]) -> str:
    """SHA-256 over the edge-list texts in order, to show two runs saw the same inputs."""
    h = hashlib.sha256()
    for g in inputs:
        h.update(g.text.encode())
        h.update(b"\0")
    return h.hexdigest()
