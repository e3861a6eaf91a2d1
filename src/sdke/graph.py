"""Simple undirected graphs with contiguous integer vertex ids.

Graphs are immutable after construction.  Vertex ids are always 0..n-1;
external labels (string or integer names used by whoever produced the
graph) are preserved in the ``labels`` tuple so that derived graphs such
as induced subgraphs can report results in the caller's vocabulary.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, field
from functools import cached_property
from typing import Hashable, Iterable, Sequence

from .errors import GraphError

Edge = tuple[int, int]


def as_edge(u: int, v: int) -> Edge:
    """Canonical (min, max) form of an undirected edge of int endpoints."""
    if type(u) is not int or type(v) is not int:
        raise GraphError(f"edge ({u!r},{v!r}) has an endpoint that is not an int")
    if u == v:
        raise GraphError(f"loop edge ({u},{v}) not allowed")
    return (u, v) if u < v else (v, u)


@dataclass(frozen=True)
class Graph:
    """An immutable simple undirected graph.

    Attributes
    ----------
    n : int
        Number of vertices; ids are 0..n-1.
    edges : tuple[Edge, ...]
        Canonically ordered edge list: each edge is (u, v) with u < v and
        the list is sorted lexicographically.
    labels : tuple
        labels[i] is the external name of internal vertex i.  Defaults to
        the identity 0..n-1.
    """

    n: int
    edges: tuple[Edge, ...]
    labels: tuple[Hashable, ...] = field(default=())

    def __post_init__(self) -> None:
        if not self.labels and self.n:
            object.__setattr__(self, "labels", tuple(range(self.n)))

    @cached_property
    def adjacency(self) -> tuple[tuple[int, ...], ...]:
        """Per-vertex sorted neighbor tuples."""
        neigh: list[list[int]] = [[] for _ in range(self.n)]
        for u, v in self.edges:
            neigh[u].append(v)
            neigh[v].append(u)
        return tuple(tuple(sorted(ns)) for ns in neigh)

    @cached_property
    def edge_set(self) -> frozenset[Edge]:
        return frozenset(self.edges)

    @property
    def num_edges(self) -> int:
        return len(self.edges)

    def has_edge(self, u: int, v: int) -> bool:
        if u == v:
            return False
        return (min(u, v), max(u, v)) in self.edge_set

    def labels_of(self, vs: Iterable[int]) -> list[Hashable]:
        return [self.labels[v] for v in vs]

    def __repr__(self) -> str:  # keep reprs short for test failures
        return f"Graph(n={self.n}, m={self.num_edges})"


def build_graph(
    n: int,
    edge_list: Iterable[tuple[int, int]],
    *,
    labels: Sequence[Hashable] | None = None,
) -> Graph:
    """Build a graph on n vertices from a list of (u, v) pairs.

    Loops, endpoints that are not ints (bools included) or lie outside
    0..n-1, and duplicate edges are errors.
    """
    if type(n) is not int:
        raise GraphError(f"vertex count {n!r} is not an int")
    if n < 0:
        raise GraphError(f"vertex count must be nonnegative, got {n}")
    seen: set[Edge] = set()
    canonical: list[Edge] = []
    for u, v in edge_list:
        e = as_edge(u, v)
        if e[0] < 0 or e[1] >= n:
            raise GraphError(f"edge ({u},{v}) has endpoint outside 0..{n - 1}")
        if e in seen:
            raise GraphError(f"duplicate edge ({e[0]},{e[1]})")
        seen.add(e)
        canonical.append(e)
    if labels is None:
        label_tuple: tuple[Hashable, ...] = tuple(range(n))
    else:
        if len(labels) != n:
            raise GraphError(f"expected {n} labels, got {len(labels)}")
        label_tuple = tuple(labels)
    return Graph(n=n, edges=tuple(sorted(canonical)), labels=label_tuple)


def induced_subgraph(graph: Graph, vertices: Iterable[int]) -> Graph:
    """Subgraph induced by a vertex set, with ids remapped to 0..k-1.

    The returned graph's ``labels`` record the original labels of the
    selected vertices (in increasing original-id order), which is the
    id-remap table.
    """
    chosen = set(vertices)
    for v in chosen:
        if type(v) is not int or not 0 <= v < graph.n:
            raise GraphError(f"vertex {v!r} is not an int in 0..{graph.n - 1}")
    selected = sorted(chosen)
    index = {v: i for i, v in enumerate(selected)}
    edges = [
        (index[u], index[v])
        for u, v in graph.edges
        if u in index and v in index
    ]
    return build_graph(
        len(selected), edges, labels=[graph.labels[v] for v in selected]
    )


def delete_edge(graph: Graph, e: tuple[int, int]) -> Graph:
    """Same vertex set, one edge removed.  The edge must exist."""
    e = as_edge(*e)
    if e not in graph.edge_set:
        raise GraphError(f"edge ({e[0]},{e[1]}) not in graph")
    return Graph(
        n=graph.n,
        edges=tuple(x for x in graph.edges if x != e),
        labels=graph.labels,
    )


def disjoint_union(a: Graph, b: Graph) -> Graph:
    """Disjoint union; the second graph's ids are shifted by a.n."""
    edges = list(a.edges) + [(u + a.n, v + a.n) for u, v in b.edges]
    return build_graph(a.n + b.n, edges, labels=list(a.labels) + list(b.labels))


def connected_components(graph: Graph) -> list[frozenset[int]]:
    """Vertex sets of connected components, each sorted by smallest member."""
    seen = [False] * graph.n
    comps: list[frozenset[int]] = []
    for s in range(graph.n):
        if seen[s]:
            continue
        stack = [s]
        seen[s] = True
        comp = [s]
        while stack:
            x = stack.pop()
            for y in graph.adjacency[x]:
                if not seen[y]:
                    seen[y] = True
                    comp.append(y)
                    stack.append(y)
        comps.append(frozenset(comp))
    return comps


# Vertices a header may declare beyond one per input character.
_SPARE_VERTICES = 1 << 16


def parse_edge_list(text: str) -> Graph:
    """Parse the edge-list file format.

    Lines starting with '#' are comments.  The first non-comment line is
    "n m"; exactly m lines "u v" with 0-based ids follow.  n may exceed
    the input's length in characters by at most 65,536, since the text
    can name fewer vertices than it has characters and the rest are
    isolated; a larger n raises GraphError before anything of size n is
    built.
    """
    lines = [
        ln.strip()
        for ln in text.splitlines()
        if ln.strip() and not ln.lstrip().startswith("#")
    ]
    if not lines:
        raise GraphError("empty input: missing 'n m' header")
    head = lines[0].split()
    if len(head) != 2:
        raise GraphError(f"malformed header line {lines[0]!r}, expected 'n m'")
    try:
        n, m = int(head[0]), int(head[1])
    except ValueError:
        raise GraphError(f"malformed header line {lines[0]!r}") from None
    if n > len(text) + _SPARE_VERTICES:
        raise GraphError(
            f"header declares {n} vertices, more than {_SPARE_VERTICES} beyond "
            f"the input's {len(text)} characters"
        )
    body = lines[1:]
    if len(body) != m:
        raise GraphError(f"header declares {m} edges but {len(body)} lines follow")
    edges: list[tuple[int, int]] = []
    for ln in body:
        parts = ln.split()
        if len(parts) != 2:
            raise GraphError(f"malformed edge line {ln!r}")
        try:
            u, v = int(parts[0]), int(parts[1])
        except ValueError:
            raise GraphError(f"malformed edge line {ln!r}") from None
        edges.append((u, v))
    return build_graph(n, edges)


def serialize_edge_list(graph: Graph) -> str:
    """Canonical edge-list text; parse(serialize(G)) == G up to labels."""
    out = [f"{graph.n} {graph.num_edges}"]
    out.extend(f"{u} {v}" for u, v in graph.edges)
    return "\n".join(out) + "\n"


def graph_hash(graph: Graph) -> str:
    """SHA-256 hex digest of the canonical edge-list serialization."""
    return hashlib.sha256(serialize_edge_list(graph).encode()).hexdigest()


def export_dot(graph: Graph, partition=None, matching=None) -> str:
    """Render the graph as DOT text.

    Labels are quoted, with backslashes and double quotes escaped.
    Matching edges, if a matching is given, are drawn bold red; a matching
    that is not one of this graph raises MatchingError.  If a partition
    is given, its SD vertices are filled gray and KE vertices light blue.
    """
    sd: frozenset[int] = frozenset()
    ke: frozenset[int] = frozenset()
    if partition is not None:
        sd = frozenset(partition.sd_vertices)
        ke = frozenset(partition.ke_vertices)
        for v in sd | ke:
            if not (0 <= v < graph.n):
                raise GraphError(f"partition references unknown vertex {v}")
    matched: set[Edge] = set()
    if matching is not None:
        matching.validate(graph)
        matched.update(matching.edge_pairs())
    lines = ["graph G {", "  node [shape=circle];"]
    for v in range(graph.n):
        label = str(graph.labels[v]).replace("\\", "\\\\").replace('"', '\\"')
        attrs = [f'label="{label}"']
        if v in sd:
            attrs.append('style=filled, fillcolor=gray85')
        elif v in ke:
            attrs.append('style=filled, fillcolor=lightblue')
        lines.append(f"  {v} [{', '.join(attrs)}];")
    for u, v in graph.edges:
        if (u, v) in matched:
            lines.append(f"  {u} -- {v} [style=bold, color=red];")
        else:
            lines.append(f"  {u} -- {v};")
    lines.append("}")
    return "\n".join(lines) + "\n"
