"""Simple undirected graphs with contiguous integer vertex ids.

Graphs are immutable after construction.  Vertex ids are always 0..n-1;
external labels (string or integer names used by whoever produced the
graph) are preserved in the ``labels`` tuple so that derived graphs such
as induced subgraphs can report results in the caller's vocabulary.
"""

from __future__ import annotations

import hashlib
from functools import cached_property
from typing import Hashable, Iterable, Sequence

from .errors import GraphError

Edge = tuple[int, int]
_setattr = object.__setattr__  # how a frozen record's __init__ sets its fields


def as_edge(u: int, v: int) -> Edge:
    """Canonical (min, max) form of an undirected edge of int endpoints."""
    if type(u) is not int or type(v) is not int:
        raise GraphError(f"edge ({u!r},{v!r}) has an endpoint that is not an int")
    if u == v:
        raise GraphError(f"loop edge ({u},{v}) not allowed")
    return (u, v) if u < v else (v, u)


class _Record:
    """Base of the result records, whose fields are their ``__slots__`` but
    those whose names start with two underscores (``__dict__``,
    ``__weakref__``, private state).  Records of one class are equal when
    their fields are; only a class made ``frozen=True`` hashes and is immutable.
    """

    __slots__ = ()

    def __init_subclass__(cls, frozen: bool = False) -> None:
        if _Record in cls.__bases__:  # a record; its subclasses inherit all this
            cls._fields = cls.__match_args__ = tuple(s for s in cls.__slots__ if s[:2] != "__")
            if frozen:
                cls.__setattr__ = cls.__delattr__ = _Record._refuse
                cls.__hash__ = _Record._hash

    def _refuse(self, name: str, *value: object) -> None:
        raise AttributeError(f"cannot {'assign to' if value else 'delete'} field {name!r}")

    def _values(self) -> tuple:
        return tuple([getattr(self, f) for f in self._fields])

    def __eq__(self, other: object) -> bool:
        same = other.__class__ is self.__class__
        return self._values() == other._values() if same else NotImplemented

    def _hash(self) -> int:  # frozen records' __hash__; __eq__ sets _Record's to None
        return hash(self._values())

    def __repr__(self) -> str:
        fields = ", ".join(f"{f}={getattr(self, f)!r}" for f in self._fields)
        return f"{type(self).__qualname__}({fields})"

    def __reduce__(self):
        return self.__class__, self._values()


class Graph(_Record, frozen=True):
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

    Every graph holds its edges canonical and sorted: the constructor
    sorts them, and ``_derived``'s callers keep their order.  So each
    vertex meets its neighbours in increasing order along the edge list,
    and ``adjacency`` needs no per-vertex sort.
    """

    __slots__ = ("n", "edges", "labels", "__dict__")  # __dict__ caches adjacency, edge_set

    def __init__(self, n: int, edges: Iterable[Edge], labels: Iterable[Hashable] = ()) -> None:
        """Check and store the fields.

        Loops, endpoints that are not ints (bools included) or lie outside
        0..n-1, and duplicate edges are errors.  Each edge is stored in its
        (min, max) form, and the list sorted; a tuple already in that form
        is kept as given.
        """
        if type(n) is not int:
            raise GraphError(f"vertex count {n!r} is not an int")
        if n < 0:
            raise GraphError(f"vertex count must be nonnegative, got {n}")
        seen: set[Edge] = set()
        canonical: list[Edge] = []
        try:
            for u, v in edges:
                e = as_edge(u, v)
                if e[0] < 0 or e[1] >= n:
                    raise GraphError(f"edge ({u},{v}) has endpoint outside 0..{n - 1}")
                if e in seen:
                    raise GraphError(f"duplicate edge ({e[0]},{e[1]})")
                seen.add(e)
                canonical.append(e)
        except (TypeError, ValueError) as exc:  # not iterable, or an item not a pair
            bad = GraphError("edges are not an iterable of (u, v) pairs")
            raise exc if isinstance(exc, GraphError) else bad from None
        ordered = tuple(sorted(canonical))
        labels = tuple(labels) or tuple(range(n))
        if len(labels) != n:
            raise GraphError(f"expected {n} labels, got {len(labels)}")
        _setattr(self, "n", n)
        _setattr(self, "edges", edges if edges == ordered else ordered)
        _setattr(self, "labels", labels)

    @cached_property
    def adjacency(self) -> tuple[tuple[int, ...], ...]:
        """Per-vertex sorted neighbor tuples.

        The edges are sorted, so x's lower neighbours u, from the edges
        (u, x), come first and in increasing order, then its higher ones.
        """
        neigh: list[list[int]] = [[] for _ in range(self.n)]
        for u, v in self.edges:
            neigh[u].append(v)
            neigh[v].append(u)
        return tuple(map(tuple, neigh))

    @cached_property
    def edge_set(self) -> frozenset[Edge]:
        return frozenset(self.edges)

    @property
    def num_edges(self) -> int:
        return len(self.edges)

    def has_edge(self, u: int, v: int) -> bool:
        """Whether uv is an edge.  An id that is not an int, a bool
        included, names no edge, as an id out of range names none."""
        if u == v or not (type(u) is type(v) is int):
            return False
        return (min(u, v), max(u, v)) in self.edge_set

    def labels_of(self, vs: Iterable[int]) -> list[Hashable]:
        """The labels of the ids vs, in their order; an id that is not an
        int in 0..n-1 is a GraphError."""
        labels, n = self.labels, self.n
        # One pass: a bad id falls through to _no_vertex, which raises.
        return [labels[v] for v in vs if type(v) is int and 0 <= v < n or _no_vertex(v, n)]

    def __repr__(self) -> str:  # keep reprs short for test failures
        return f"Graph(n={self.n}, m={self.num_edges})"


def _no_vertex(v: object, n: int) -> bool:
    """Raise the GraphError of an id v that names no vertex of an n-vertex graph."""
    raise GraphError(f"vertex {v!r} is not an int in 0..{n - 1}")


def build_graph(
    n: int,
    edge_list: Iterable[tuple[int, int]],
    *,
    labels: Sequence[Hashable] | None = None,
) -> Graph:
    """Build a graph on n vertices from a list of (u, v) pairs, checked as
    the ``Graph`` constructor checks them."""
    return Graph(n, edge_list, () if labels is None else labels)


def _derived(n: int, edges: tuple[Edge, ...], labels: tuple) -> Graph:
    # A graph derived from a valid one: its fields need none of the
    # constructor's checks, so none runs.
    graph = object.__new__(Graph)
    _setattr(graph, "n", n)
    _setattr(graph, "edges", edges)
    _setattr(graph, "labels", labels)
    return graph


def induced_subgraph(graph: Graph, vertices: Iterable[int]) -> Graph:
    """Subgraph induced by a vertex set, with ids remapped to 0..k-1.

    The returned graph's ``labels`` record the original labels of the
    selected vertices (in increasing original-id order), which is the
    id-remap table.
    """
    chosen = set(vertices)
    for v in chosen:
        if type(v) is not int or not 0 <= v < graph.n:
            _no_vertex(v, graph.n)
    selected = sorted(chosen)
    index = {v: i for i, v in enumerate(selected)}
    # The remap is monotone, so the edges of a valid graph stay canonical
    # and sorted.
    return _derived(
        len(selected),
        tuple((index[u], index[v]) for u, v in graph.edges if u in index and v in index),
        tuple([graph.labels[v] for v in selected]),
    )


def delete_edge(graph: Graph, e: tuple[int, int]) -> Graph:
    """Same vertex set, one edge removed.  The edge must exist."""
    try:
        u, v = e
    except (TypeError, ValueError):
        raise GraphError(f"edge {e!r} is not a (u, v) pair") from None
    e = as_edge(u, v)
    if e not in graph.edge_set:
        raise GraphError(f"edge ({e[0]},{e[1]}) not in graph")
    return _derived(graph.n, tuple(x for x in graph.edges if x != e), graph.labels)


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
    built.  Input that is not a str raises GraphError.
    """
    if not isinstance(text, str):
        raise GraphError(f"edge-list input is {type(text).__name__}, not a str")
    lines = [ln for ln in map(str.strip, text.splitlines()) if ln and ln[0] != "#"]
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
    that is not a ``Matching`` of this graph raises MatchingError.  If a
    partition is given, its SD vertices are filled gray and KE vertices
    light blue; one without them raises GraphError.
    """
    sd: frozenset[int] = frozenset()
    ke: frozenset[int] = frozenset()
    if partition is not None:
        try:
            sd = frozenset(partition.sd_vertices)
            ke = frozenset(partition.ke_vertices)
        except AttributeError:
            raise GraphError(f"partition {partition!r} has no SD and KE vertex sets") from None
        for v in sd | ke:
            if type(v) is not int or not 0 <= v < graph.n:
                raise GraphError(
                    f"partition references unknown vertex {v!r}, not an int in 0..{graph.n - 1}")
    matched: set[Edge] = set()
    if matching is not None:
        from .matching import _require_matching  # matching imports this module

        _require_matching(matching)
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
