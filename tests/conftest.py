"""Corpus definitions shared by the unit and acceptance suites.

The seed lists are fixed here so every reported result is replayable.
"""

from __future__ import annotations

from sdke import random_matchable_graph
from fixtures import random_graph

MATCHABLE_ORDERS = (4, 6, 8, 10, 12, 14)
MATCHABLE_PROBS = (0.1, 0.2, 0.3)


def matchable_corpus(count: int, *, max_n: int | None = None):
    """Seeded matchable graphs: (seed, graph) pairs, orders cycling 4..14."""
    for seed in range(count):
        n = MATCHABLE_ORDERS[seed % len(MATCHABLE_ORDERS)]
        if max_n is not None and n > max_n:
            continue
        p = MATCHABLE_PROBS[(seed // len(MATCHABLE_ORDERS)) % len(MATCHABLE_PROBS)]
        yield seed, random_matchable_graph(n, p, seed)


def mixed_corpus(count: int, *, max_n: int = 12):
    """Seeded arbitrary graphs (odd orders and non-matchable included)."""
    for seed in range(count):
        n = (seed % max_n) + 1
        p = (0.15, 0.3, 0.5)[(seed // max_n) % 3]
        yield seed, random_graph(n, p, seed)
