"""Shared fixture graphs.

Each builder documents the structure and the known ground truth used by
the tests.  Labels preserve the naming the graphs were drawn with
(1-based for some, 0-based or string names for others), so expected
values are written in label space and translated through the graph's
label table.
"""

from __future__ import annotations

import random
from typing import Hashable

from sdke import (
    Graph,
    build_graph,
    connected_components,
    induced_subgraph,
    matching_from_edges,
    sd_ke_partition,
)


def from_labeled_edges(pairs: list[tuple[Hashable, Hashable]]) -> Graph:
    """Graph on the labels the edges name, with ids in sorted label order.

    Mixed int and string labels sort by their string form.
    """
    names = {x for pair in pairs for x in pair}
    try:
        ordered = sorted(names)
    except TypeError:
        ordered = sorted(names, key=str)
    index = {name: i for i, name in enumerate(ordered)}
    return build_graph(len(ordered), [(index[a], index[b]) for a, b in pairs], labels=ordered)


def label_ids(g: Graph, labels) -> frozenset[int]:
    index = {lab: i for i, lab in enumerate(g.labels)}
    return frozenset(index[x] for x in labels)


def label_matching(g: Graph, pairs):
    index = {lab: i for i, lab in enumerate(g.labels)}
    return matching_from_edges(g.n, [(index[a], index[b]) for a, b in pairs])


def replaced(record, **changes):
    """The record rebuilt through its constructor with some fields changed.

    Fields are the record's ``__match_args__``; naming any other is a
    TypeError, as with ``dataclasses.replace``.
    """
    fields = type(record).__match_args__
    unknown = set(changes) - set(fields)
    if unknown:
        raise TypeError(f"{type(record).__name__} has no fields {sorted(unknown)}")
    return type(record)(**{f: changes.get(f, getattr(record, f)) for f in fields})


def split_at(g: Graph, sd):
    """The partition of g with SD side sd, true or not.

    Everything but the vertex sets, the parts and the cut is g's own
    partition's: its matching, witnesses and failed_searches.
    """
    sd = frozenset(sd)
    ke = frozenset(range(g.n)) - sd
    return replaced(
        sd_ke_partition(g),
        sd_vertices=sd,
        ke_vertices=ke,
        sd_part=induced_subgraph(g, sd),
        ke_part=induced_subgraph(g, ke),
        cut=frozenset(e for e in g.edges if (e[0] in sd) != (e[1] in sd)),
    )


def sd_components(part) -> list[frozenset[int]]:
    """The connected components of the SD part, in the whole graph's ids."""
    order = sorted(part.sd_vertices)
    return [frozenset(order[i] for i in c) for c in connected_components(part.sd_part)]


def ke_status_cases(g: Graph):
    """(name, partition) pairs for the suite's two KE checks: g's own
    partition, then wrong ones.

    The wrong ones are the partition with its two parts swapped, and the
    split with one connected component C of the SD part moved into KE,
    for each C, the smaller end of each pair of C added to
    failed_searches.  C holds the closed walks of its own vertices, so it
    is not Koenig-Egervary, and KE plus C is not either: its independence
    number is at most alpha(KE) + alpha(C) < (|KE| + |C|) / 2.
    """
    part = sd_ke_partition(g)
    yield "true", part
    yield "swapped", replaced(part, sd_part=part.ke_part, ke_part=part.sd_part)
    pairing = part.matching.pairing
    for comp in sd_components(part):
        moved = split_at(g, part.sd_vertices - comp)
        members = part.failed_searches | {v for v in comp if v < pairing[v]}
        yield f"moved {sorted(comp)}", replaced(moved, failed_searches=members)


def doctored_splits(g: Graph, rng: random.Random):
    """(kind, partition) pairs of wrong splits of g, of the kinds the
    suite's tests build.

    They are g's partition with a random set of one to four edges as its
    cut; two random unions of matched pairs as the SD side, each as
    ``split_at`` gives it and again with one member per KE pair in
    failed_searches (g's own where the pair is KE in g's partition, the
    smaller end elsewhere), so that the KE certificate's sizes hold; and
    each SD component moved into KE, as ``ke_status_cases`` moves it.
    """
    part = sd_ke_partition(g)
    cut = rng.sample(g.edges, min(rng.randint(1, 4), g.num_edges))
    yield "random cut", replaced(part, cut=frozenset(cut))
    pairs = part.matching.edge_pairs()
    for _ in range(2):
        split = split_at(g, {x for pair in pairs if rng.random() < 0.5 for x in pair})
        yield "pairs", split
        pairing, ke = split.matching.pairing, split.ke_vertices
        kept = {v for v in split.failed_searches if v in ke}
        fresh = {v for v in ke if v < pairing[v] and not {v, pairing[v]} & kept}
        yield "pairs with members", replaced(split, failed_searches=frozenset(kept | fresh))
    for kind, moved in ke_status_cases(g):
        if kind.startswith("moved"):
            yield "moved", moved


def disjoint_union(a: Graph, b: Graph) -> Graph:
    """Disjoint union; the second graph's ids are shifted by a.n."""
    edges = list(a.edges) + [(u + a.n, v + a.n) for u, v in b.edges]
    return build_graph(a.n + b.n, edges, labels=list(a.labels) + list(b.labels))


def random_graph(n: int, edge_prob: float, seed: int) -> Graph:
    """Seeded Erdos-Renyi graph: each vertex pair present with edge_prob.

    No matchability guarantee; deterministic for a fixed (n, prob, seed).
    """
    rng = random.Random(seed)
    return build_graph(n, [
        (u, v) for u in range(n) for v in range(u + 1, n) if rng.random() < edge_prob
    ])


def planted_split(n: int, blocks: int, rng: random.Random, extra: float = 0.5):
    """A matchable graph whose SD set S is known by construction, drawn
    in O(n + m): (graph, S, the planted perfect matching's pairing).

    S is ``blocks`` disjoint K4s, each matched inside itself.  The other
    n - 4 * blocks vertices are KE pairs, the matching pairing I to J.
    Each of the kinds I-J, J-J, S-S and S-J then draws extra times as
    many random pairs as its first side has vertices, as edges.  Vertices
    are relabelled at random.

    SD(G) = S: with M fixed, an edge only adds arcs to D, and K4 is SD
    under any perfect matching, so S stays SD.  I's neighbours all lie in
    J, so every arc of D from I leads back into I: no J vertex is reached
    from its partner, and every I-J pair is KE.
    """
    if n % 2 or not 0 <= 4 * blocks <= n:
        raise ValueError(f"no planted split with {blocks} K4 blocks on {n} vertices")
    ids = list(range(n))
    rng.shuffle(ids)
    s = 4 * blocks
    sd, mine, theirs = ids[:s], ids[s::2], ids[s + 1::2]
    pairing = [0] * n
    edges = set()
    for k in range(0, s, 4):
        q = sd[k:k + 4]
        edges.update((min(a, b), max(a, b)) for i, a in enumerate(q) for b in q[i + 1:])
        pairing[q[0]], pairing[q[1]], pairing[q[2]], pairing[q[3]] = q[1], q[0], q[3], q[2]
    for i, j in zip(mine, theirs):
        edges.add((min(i, j), max(i, j)))
        pairing[i], pairing[j] = j, i
    for side, other in ((mine, theirs), (theirs, theirs), (sd, sd), (sd, theirs)):
        if side and other:
            for _ in range(round(extra * len(side))):
                u, v = rng.choice(side), rng.choice(other)
                if u != v:
                    edges.add((min(u, v), max(u, v)))
    return build_graph(n, edges), frozenset(sd), tuple(pairing)


def path_graph(n: int) -> Graph:
    return build_graph(n, [(i, i + 1) for i in range(n - 1)])


def cycle_graph(n: int) -> Graph:
    return build_graph(n, [(i, (i + 1) % n) for i in range(n)])


def complete_graph(n: int) -> Graph:
    return build_graph(n, [(i, j) for i in range(n) for j in range(i + 1, n)])


def ladder8() -> Graph:
    """2x4 grid with vertices 1..4 below 5..8; bipartite, hence fully KE.

    Ground truth: with either of its perfect matchings {15,26,37,48} and
    {15,26,34,78}, the mm-reachable set of vertex 1 is {2,4,5,7} and of
    vertex 2 is {1,3,6,8}.
    """
    edges = [(1, 2), (1, 5), (2, 3), (2, 6), (3, 4), (3, 7), (4, 8),
             (5, 6), (6, 7), (7, 8)]
    return from_labeled_edges(edges)


LADDER8_M1 = [(1, 5), (2, 6), (3, 7), (4, 8)]
LADDER8_M2 = [(1, 5), (2, 6), (3, 4), (7, 8)]


def tangle8() -> Graph:
    """8 vertices, 12 edges, labels 1..8; every vertex is SD.

    Ground truth: with perfect matchings {12,45,36,78} and {12,36,57,48},
    the mm-reachable set of every vertex is all of 1..8, so the KE part
    is empty.
    """
    edges = [(1, 2), (1, 4), (2, 3), (2, 5), (3, 6), (4, 5), (4, 7),
             (4, 8), (5, 6), (5, 7), (5, 8), (7, 8)]
    return from_labeled_edges(edges)


TANGLE8_M1 = [(1, 2), (4, 5), (3, 6), (7, 8)]
TANGLE8_M2 = [(1, 2), (3, 6), (5, 7), (4, 8)]


def posy12() -> Graph:
    """12 vertices 0..11: an SD core 0..9 with a pendant KE pair {10,11}.

    Ground truth: SD = {0..9}, KE = {10,11}, cut = {(8,10)}.  The closed
    walk 9,8,5,4,3,2,0,1,2,3,4,5,1,0,6,7,8,9 is mm-alternating for the
    matching below.
    """
    edges = [(0, 1), (0, 2), (0, 5), (0, 6), (1, 2), (1, 5), (2, 3),
             (3, 4), (4, 5), (4, 9), (5, 8), (5, 9), (6, 7), (7, 8),
             (8, 9), (8, 10), (10, 11)]
    return build_graph(12, edges)


POSY12_M = [(0, 1), (2, 3), (4, 5), (6, 7), (8, 9), (10, 11)]

POSY12_WALK = (9, 8, 5, 4, 3, 2, 0, 1, 2, 3, 4, 5, 1, 0, 6, 7, 8, 9)


def k10_pendant() -> Graph:
    """12 vertices 0..11: K10 on 0..9 with a pendant path 0-10-11.

    Ground truth: SD = {0..9}, KE = {10,11}.  The only KE edge is 10-11,
    and deleting it leaves vertex 11 isolated, so the stability check
    reads the SD witnesses in G - e, where SD = {0..10}.  K10 has more
    simple odd cycles than the oracles' cap of 200000, so their
    cycle-listing search raises BoundExceededError there.
    """
    edges = [(i, j) for i in range(10) for j in range(i + 1, 10)]
    return build_graph(12, edges + [(0, 10), (10, 11)])


def flower9() -> Graph:
    """9 vertices 1..9 (odd order, so not matchable).

    A triangle 1,2,3 with tails hanging off it; with the maximum matching
    {12,34,67,89} the edge 67 lies in every maximum matching.  Ground
    truth: SD = {1,2,3,4,5,8,9}, KE = {6,7}; deleting edge 67 makes every
    vertex SD.
    """
    edges = [(1, 2), (1, 3), (2, 3), (3, 4), (3, 8), (4, 5), (4, 6),
             (6, 7), (7, 8), (8, 9)]
    return from_labeled_edges(edges)


FLOWER9_M = [(1, 2), (3, 4), (6, 7), (8, 9)]


def miss11() -> Graph:
    """11 vertices 0..10 (odd order, so not matchable).

    Gallai-Edmonds view: D (vertices some maximum matching misses) holds
    the triangle component {3,7,9}, A = {6} is its neighbourhood, and C
    is the matchable rest.  A posy joins a blossom in {3,7,9} through 6
    to blossoms inside C, so a rule that only grows SD from the D
    components misses C.  Ground truth (configuration search over all
    maximum matchings): every vertex is SD.
    """
    edges = [(0, 1), (0, 5), (0, 8), (1, 5), (2, 4), (2, 5), (2, 6), (3, 7),
             (3, 9), (4, 5), (4, 8), (5, 6), (6, 7), (6, 8), (6, 9), (6, 10),
             (7, 9)]
    return build_graph(11, edges)


def mixed32() -> Graph:
    """32 vertices: an 18-vertex SD side and a 14-vertex KE side.

    The SD side extends the posy12 core; the KE side is a 2x3 grid plus
    an 8-vertex tree, attached through the two cut edges g-h and 11-r.
    Ground truth: det(KE part) = -1, det(SD part) = -5, det(G) = 5.
    """
    edges = [
        # SD side (labels 0..11 as in posy12, plus c,d,e,f,g,d1)
        (1, 2), (1, 5), (3, 4), (0, 6), (7, 8), (9, 5), (9, 4), (0, 5),
        (5, 8), (2, 0), (10, 8), (8, "e"), (9, "e"), (11, "c"), (10, "d"),
        ("d", "g"), ("f", "g"), ("f", "d1"),
        (2, 3), (4, 5), (1, 0), (6, 7), (8, 9), (10, 11), ("e", "f"),
        ("c", "d"), ("g", "d1"),
        # cut
        ("g", "h"), (11, "r"),
        # KE side
        ("i", "j"), ("h", "k"), ("k", "m"), ("j", "l"),
        ("t", "r"), ("t", "s"), ("t", "v"), ("t", "w"), ("w", "z"),
        ("i", "h"), ("j", "k"), ("l", "m"),
        ("s", "r"), ("t", "u"), ("v", "w"), ("z", "c1"),
    ]
    return from_labeled_edges(edges)


MIXED32_M = [
    (2, 3), (4, 5), (1, 0), (6, 7), (8, 9), (10, 11), ("e", "f"),
    ("c", "d"), ("g", "d1"), ("i", "h"), ("j", "k"), ("l", "m"),
    ("s", "r"), ("t", "u"), ("v", "w"), ("z", "c1"),
]

MIXED32_SD_LABELS = [0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11,
                     "c", "d", "e", "f", "g", "d1"]
MIXED32_KE_LABELS = ["h", "i", "j", "k", "l", "m",
                     "r", "s", "t", "u", "v", "w", "z", "c1"]
