import pytest
from hypothesis import given, strategies as st

from sdke import (
    Graph,
    GraphError,
    build_graph,
    connected_components,
    delete_edge,
    export_dot,
    induced_subgraph,
    parse_edge_list,
    serialize_edge_list,
)
from fixtures import (
    POSY12_M,
    cycle_graph,
    disjoint_union,
    label_matching,
    ladder8,
    path_graph,
    planted_split,
    posy12,
)


def test_build_k2():
    g = build_graph(2, [(0, 1)])
    assert g.n == 2
    assert g.edges == ((0, 1),)
    assert g.adjacency == ((1,), (0,))


def test_build_ladder8_from_labels():
    g = ladder8()
    assert g.n == 8
    assert g.num_edges == 10
    assert g.labels == (1, 2, 3, 4, 5, 6, 7, 8)


def test_build_rejects_loop():
    with pytest.raises(GraphError, match="loop"):
        build_graph(3, [(0, 0)])


def test_build_rejects_out_of_range():
    with pytest.raises(GraphError, match="outside"):
        build_graph(2, [(0, 2)])


@pytest.mark.parametrize("edge", [(0.0, 1), ("a", 1), (0, 1.0), (False, True), (None, 1)])
def test_build_rejects_non_int_endpoints(edge):
    # A float endpoint used to pass the range check and fail later in
    # .adjacency; a string failed in the comparison with a TypeError.
    with pytest.raises(GraphError, match="not an int"):
        build_graph(2, [edge])


def test_build_rejects_duplicate_edge():
    with pytest.raises(GraphError, match="duplicate"):
        build_graph(3, [(0, 1), (1, 0)])


def test_build_rejects_a_wrong_label_count():
    with pytest.raises(GraphError, match="expected 3 labels, got 2"):
        build_graph(3, [(0, 1)], labels=["a", "b"])


@pytest.mark.parametrize("args,kwargs,match", [
    ((3, [(0, 5)]), {}, "outside"),
    ((2, [(0, 1)]), {"labels": ["a"]}, "expected 2 labels, got 1"),
    ((3, [(0, 0)]), {}, "loop"),
    ((3, [(0, 1), (1, 0)]), {}, "duplicate"),
    ((2, [(0.0, 1)]), {}, "not an int"),
    ((2.0, []), {}, "not an int"),
    ((-1, []), {}, "nonnegative"),
    ((2, [(0, 1, 2)]), {}, r"not an iterable of \(u, v\) pairs"),
    ((2, None), {}, r"not an iterable of \(u, v\) pairs"),
])
def test_graph_constructor_checks_as_build_graph_does(args, kwargs, match):
    # Graph(3, [(0, 5)]) and a label short used to build.
    for build in (Graph, build_graph):
        with pytest.raises(GraphError, match=match):
            build(*args, **kwargs)


def test_graph_constructor_stores_edges_canonically():
    # A reversed edge used to be kept as given, so has_edge(0, 1) was False
    # and sd_ke_partition refused its own matching.  Edges given canonical
    # and sorted are kept as given.
    from sdke import sd_ke_partition

    g = Graph(2, [(1, 0)])
    assert g.edges == ((0, 1),) and g.has_edge(0, 1) and g == build_graph(2, [(1, 0)])
    assert sd_ke_partition(g).ke_vertices == {0, 1}
    edges = ((0, 1), (1, 2))
    assert Graph(3, edges).edges is edges
    assert Graph(3, [(1, 2), (0, 1)]).edges == edges


def test_adjacency_is_sorted_without_a_sort():
    # Every graph holds sorted canonical edges, so adjacency, which
    # appends neighbours in edge order, lists each vertex's neighbours in
    # increasing order, however the graph was made.
    import pickle
    import random

    from sdke import sd_ke_partition

    def sorted_neighbours(g):
        neigh = [set() for _ in range(g.n)]
        for u, v in g.edges:
            neigh[u].add(v)
            neigh[v].add(u)
        return tuple(tuple(sorted(ns)) for ns in neigh)

    rng = random.Random(5)
    graphs = [posy12(), ladder8(), build_graph(0, [])]
    for n in (2, 7, 20, 41):
        edges = [(u, v) for u in range(n) for v in range(u + 1, n) if rng.random() < 0.3]
        rng.shuffle(edges)
        graphs += [Graph(n, [(v, u) if rng.random() < 0.5 else (u, v) for u, v in edges]),
                   Graph(n, [(v, u) for u, v in reversed(sorted(edges))])]
    for g in list(graphs):
        graphs += [induced_subgraph(g, range(0, g.n, 2)), pickle.loads(pickle.dumps(g))]
        if g.edges:
            graphs.append(delete_edge(g, g.edges[len(g.edges) // 2]))
    for g in (posy12(), planted_split(40, 4, rng)[0]):
        part = sd_ke_partition(g)
        assert part.sd_part.edges and part.ke_part.edges
        graphs += [part.sd_part, part.ke_part]
    for g in graphs:
        assert g.adjacency == sorted_neighbours(g), g


def test_derived_graphs_skip_the_constructor_checks(monkeypatch):
    # Parsing checks each edge once; induced_subgraph and delete_edge
    # derive from a valid graph, and check nothing again.
    text, h = serialize_edge_list(posy12()), delete_edge(posy12(), (8, 10))
    calls = []
    init = Graph.__init__
    monkeypatch.setattr(Graph, "__init__", lambda g, *a, **k: calls.append(1) or init(g, *a, **k))
    g = parse_edge_list(text)
    assert induced_subgraph(g, {8, 9, 10}).edges == ((0, 1), (0, 2))
    assert delete_edge(g, (8, 10)) == h
    assert len(calls) == 1


def test_induced_identity():
    g = cycle_graph(4)
    h = induced_subgraph(g, range(4))
    assert h.n == g.n and h.edges == g.edges


def test_induced_empty():
    assert induced_subgraph(cycle_graph(4), []).n == 0


def test_induced_posy12_pendant_pair_is_k2():
    h = induced_subgraph(posy12(), {10, 11})
    assert h.n == 2 and h.edges == ((0, 1),)
    assert h.labels == (10, 11)


def test_induced_rejects_out_of_range():
    with pytest.raises(GraphError):
        induced_subgraph(cycle_graph(4), {0, 9})


def test_induced_edge_count_matches_brute_force():
    g = posy12()
    for s in ({0, 1, 2}, {0, 2, 4, 6, 8}, set(range(7))):
        h = induced_subgraph(g, s)
        expect = sum(1 for u in s for v in s if u < v and g.has_edge(u, v))
        assert h.num_edges == expect
        # The same graph as build_graph gives, which checks and sorts the edges.
        ids = sorted(s)
        edges = [(i, j) for j, v in enumerate(ids) for i, u in enumerate(ids[:j])
                 if g.has_edge(u, v)]
        assert h == build_graph(len(ids), edges, labels=g.labels_of(ids))


def test_delete_edge():
    g = delete_edge(build_graph(2, [(0, 1)]), (0, 1))
    assert g.n == 2 and g.num_edges == 0
    p = delete_edge(cycle_graph(4), (0, 1))
    assert p.num_edges == 3
    with pytest.raises(GraphError):
        delete_edge(p, (0, 1))


def test_delete_edge_posy12_cut():
    g = delete_edge(posy12(), (8, 10))
    assert g.num_edges == posy12().num_edges - 1
    assert not g.has_edge(8, 10)


def test_parse_k2():
    g = parse_edge_list("2 1\n0 1\n")
    assert g.n == 2 and g.edges == ((0, 1),)


def test_parse_comments_and_blanks():
    g = parse_edge_list("# a comment\n\n3 2\n0 1\n# another\n1 2\n")
    assert g.n == 3 and g.num_edges == 2


def test_serialize_c4_canonical():
    assert serialize_edge_list(cycle_graph(4)) == "4 4\n0 1\n0 3\n1 2\n2 3\n"


@pytest.mark.parametrize("text,match", [
    ("2 1\n0 2\n", "outside"),
    ("2 2\n0 1\n", "declares"),
    ("2 1\nx y\n", "malformed"),
    ("2 1\n0 1 1\n", "malformed edge line '0 1 1'"),
    ("not a header", "header"),
    ("", "header"),
])
def test_parse_errors(text, match):
    with pytest.raises(GraphError, match=match):
        parse_edge_list(text)


def test_parse_rejects_header_beyond_input_length():
    # n may exceed the text's length by at most 65,536; above that the
    # parser raises before it builds anything of size n.
    with pytest.raises(GraphError, match="header declares 1000000000 vertices"):
        parse_edge_list("1000000000 0\n")
    text = "65544 0\n"
    assert parse_edge_list(text).n == len(text) + 65536
    with pytest.raises(GraphError, match="header declares 65545 vertices"):
        parse_edge_list("65545 0\n")
    assert parse_edge_list("# " + "x" * 100 + "\n65645 0\n").n == 65645


@given(st.integers(2, 9).flatmap(lambda n: st.tuples(
    st.just(n),
    st.sets(st.tuples(st.integers(0, 8), st.integers(0, 8))
            .map(lambda e: (min(e), max(e)))
            .filter(lambda e: e[0] != e[1] and e[1] < n)))))
def test_parse_serialize_roundtrip(case):
    n, edges = case
    g = build_graph(n, sorted(edges))
    assert parse_edge_list(serialize_edge_list(g)) == g


def test_connected_components():
    g = disjoint_union(cycle_graph(3), path_graph(2))
    comps = connected_components(g)
    assert sorted(sorted(c) for c in comps) == [[0, 1, 2], [3, 4]]


def test_export_dot_plain():
    text = export_dot(build_graph(2, [(0, 1)]))
    assert "0 -- 1;" in text and text.startswith("graph G {")


def test_export_dot_escapes_labels():
    text = export_dot(build_graph(2, [(0, 1)], labels=['a"b', "c\\d"]))
    assert '0 [label="a\\"b"];' in text
    assert '1 [label="c\\\\d"];' in text
    assert 'label="7"' in export_dot(build_graph(8, [(0, 7)]))


def test_export_dot_matching_styled():
    g = build_graph(2, [(0, 1)])
    from sdke import maximum_matching
    text = export_dot(g, matching=maximum_matching(g))
    assert "0 -- 1 [style=bold, color=red];" in text


def test_export_dot_validates_the_matching():
    # A matching of another order, or one that pairs a non-edge, is
    # refused by the matching's own validation.
    from sdke import MatchingError, matching_from_edges

    c4 = cycle_graph(4)
    with pytest.raises(MatchingError, match="matching over 3 vertices used with graph of order 4"):
        export_dot(c4, matching=matching_from_edges(3, [(0, 1)]))
    with pytest.raises(MatchingError, match=r"matched pair \(0,2\) is not an edge"):
        export_dot(c4, matching=matching_from_edges(4, [(0, 2)]))


def test_export_dot_refuses_a_partition_of_a_larger_graph():
    # C4's partition puts all four vertices in KE; a K2 has two of them.
    from sdke import sd_ke_partition

    with pytest.raises(GraphError, match="partition references unknown vertex [23]"):
        export_dot(build_graph(2, [(0, 1)]), partition=sd_ke_partition(cycle_graph(4)))


def test_export_dot_partition_colors():
    from sdke import sd_ke_partition
    g = posy12()
    part = sd_ke_partition(g, label_matching(g, POSY12_M))
    text = export_dot(g, partition=part)
    assert 'fillcolor=lightblue' in text  # KE vertices 10, 11
    assert text.count('fillcolor=gray85') == 10
