"""The eight result records: construction, equality, hashing, mutability
and reprs, as the library's callers and the CLI rely on them."""

from __future__ import annotations

import copy
import pickle
import weakref

import pytest

from sdke import (
    AlternatingWalk,
    CheckResult,
    FactorizationReport,
    Graph,
    Matching,
    MatchingError,
    SachsSubgraph,
    SdKePartition,
    TheoremReport,
    build_graph,
    factorization_report,
    sd_ke_partition,
)
from fixtures import posy12

FROZEN = (Graph, Matching, AlternatingWalk, SachsSubgraph)
MUTABLE = (SdKePartition, FactorizationReport, CheckResult, TheoremReport)

FIELDS = {
    Graph: ("n", "edges", "labels"),
    Matching: ("pairing",),
    AlternatingWalk: ("vertices", "kind"),
    SachsSubgraph: ("n", "k2_edges", "cycles"),
    SdKePartition: ("sd_vertices", "ke_vertices", "sd_part", "ke_part", "cut",
                    "matching", "witnesses", "failed_searches"),
    FactorizationReport: ("partition", "det_g", "det_sd", "det_ke", "det_product_ok",
                          "perm_g", "perm_sd", "perm_ke", "perm_product_ok"),
    CheckResult: ("name", "passed", "counterexample"),
    TheoremReport: ("factorization", "checks"),
}
# One field per record, and a value for it other than _values gives.
OTHER = {
    Graph: ("labels", ("x", "y", "z")),
    Matching: ("pairing", (0, 1, 3, 2)),
    AlternatingWalk: ("kind", "nn"),
    SachsSubgraph: ("cycles", ((0, 1, 2),)),
    SdKePartition: ("failed_searches", frozenset({0})),
    FactorizationReport: ("perm_product_ok", None),
    CheckResult: ("counterexample", None),
    TheoremReport: ("checks", []),
}


def _values(cls):
    # One value per field, every default overridden.
    if cls is Graph:
        return (3, ((0, 1), (1, 2)), ("a", "b", "c"))
    if cls is Matching:
        return ((1, 0, 3, 2),)
    if cls is AlternatingWalk:
        return ((0, 1, 2, 3, 0), "mm")
    if cls is SachsSubgraph:
        return (4, ((0, 1), (2, 3)), ())
    if cls is SdKePartition:
        p = sd_ke_partition(posy12())
        return tuple(getattr(p, f) for f in FIELDS[SdKePartition])
    if cls is FactorizationReport:
        return (sd_ke_partition(posy12()), -1, 1, -1, True, 5, 1, 5, True)
    if cls is CheckResult:
        return ("mu_additivity", False, {"mu": 3})
    return (factorization_report(build_graph(2, [(0, 1)])), [CheckResult("x", True)])


ALL = FROZEN + MUTABLE


@pytest.mark.parametrize("cls", ALL, ids=lambda c: c.__name__)
def test_positional_and_keyword_construction(cls):
    values = _values(cls)
    by_position = cls(*values)
    by_keyword = cls(**dict(zip(FIELDS[cls], values)))
    assert cls.__match_args__ == FIELDS[cls]
    for record in (by_position, by_keyword):
        # Each field holds the very object passed: tuples are not copied.
        assert all(getattr(record, f) is v for f, v in zip(FIELDS[cls], values))
    assert by_position == by_keyword
    with pytest.raises(TypeError):
        cls(*values, None)
    with pytest.raises(TypeError):
        cls(*values[:-1], **{FIELDS[cls][-1]: values[-1], "extra": 1})


def test_defaults():
    assert Graph(3, ()).labels == (0, 1, 2)
    assert Graph(0, ()).labels == ()
    assert Graph(2, (), ("x", "y")).labels == ("x", "y")
    p = sd_ke_partition(posy12())
    parts = [SdKePartition(*(getattr(p, f) for f in FIELDS[SdKePartition][:6])) for _ in range(2)]
    assert parts[0].witnesses == {} and parts[0].failed_searches == frozenset()
    assert parts[0].witnesses is not parts[1].witnesses
    r = FactorizationReport(p, -1, 1, -1, True)
    assert (r.perm_g, r.perm_sd, r.perm_ke, r.perm_product_ok) == (None,) * 4
    assert CheckResult("x", True).counterexample is None
    reports = [TheoremReport(r) for _ in range(2)]
    assert reports[0].checks == [] and reports[0].checks is not reports[1].checks
    reports[0].checks.append(CheckResult("x", True))
    assert reports[1].checks == []


@pytest.mark.parametrize("cls", ALL, ids=lambda c: c.__name__)
def test_value_equality(cls):
    values = _values(cls)
    a, b = cls(*values), cls(*copy.deepcopy(values))
    assert a == b and not a != b
    assert a != values and a != object()
    field, other = OTHER[cls]
    assert a != cls(**{**dict(zip(FIELDS[cls], values)), field: other})


def test_equality_needs_the_same_class():
    # Equal field values do not make records of two classes equal.  A plain
    # subclass keeps its record's fields, hashing and immutability.
    class Twin(Graph):
        __slots__ = ()

    g, t = Graph(2, ((0, 1),)), Twin(2, ((0, 1),))
    assert g != t and t != g and t == Twin(2, ((0, 1),)) and t != Twin(3, ())
    assert hash(t) == hash(g) and t.__match_args__ == FIELDS[Graph]
    with pytest.raises(AttributeError):
        t.n = 3
    assert SachsSubgraph(2, ((0, 1),), ()) != Graph(2, ((0, 1),), ())


@pytest.mark.parametrize("cls", FROZEN, ids=lambda c: c.__name__)
def test_immutable_records_hash_by_value_and_refuse_assignment(cls):
    values = _values(cls)
    a, b = cls(*values), cls(*copy.deepcopy(values))
    assert a is not b and hash(a) == hash(b) and len({a, b}) == 1
    for f in FIELDS[cls]:
        with pytest.raises(AttributeError):
            setattr(a, f, getattr(b, f))
        with pytest.raises(AttributeError):
            delattr(a, f)
    with pytest.raises(AttributeError):
        a.extra = 1
    assert a == b


@pytest.mark.parametrize("cls", MUTABLE, ids=lambda c: c.__name__)
def test_mutable_records_are_unhashable_and_assignable(cls):
    values = _values(cls)
    a = cls(*values)
    with pytest.raises(TypeError):
        hash(a)
    field, other = OTHER[cls]
    setattr(a, field, other)
    assert getattr(a, field) is other and a != cls(*values)


def test_factorization_report_is_filled_in_after_construction():
    r = FactorizationReport(sd_ke_partition(posy12()), -1, 1, -1, True)
    r.perm_g, r.perm_sd, r.perm_ke, r.perm_product_ok = 5, 1, 5, True
    assert r == FactorizationReport(*_values(FactorizationReport))


def test_matching_accepts_weak_references_and_checks_the_involution():
    m = Matching((1, 0))
    ref = weakref.ref(m)
    assert ref() is m
    del m
    assert ref() is None
    with pytest.raises(MatchingError):
        Matching((1, 2, 0))
    with pytest.raises(MatchingError):
        Matching([0, 3])


def test_graph_caches_do_not_enter_equality_or_hashing():
    g, h = Graph(3, ((0, 1), (1, 2))), Graph(3, ((0, 1), (1, 2)))
    assert g.adjacency is g.adjacency == ((1,), (0, 2), (1,))
    assert g.edge_set is g.edge_set == frozenset({(0, 1), (1, 2)})
    assert g == h and hash(g) == hash(h)
    assert "adjacency" not in vars(h)


def test_reprs():
    g = build_graph(4, [(0, 1), (1, 2), (2, 3), (0, 3)], labels="abcd")
    assert repr(g) == "Graph(n=4, m=4)"
    assert repr(Graph(0, ())) == "Graph(n=0, m=0)"
    assert repr(Matching((1, 0, 3, 2))) == "Matching([(0, 1), (2, 3)])"
    assert repr(Matching(())) == "Matching([])"
    assert repr(AlternatingWalk((0, 1, 2, 3, 0), "mm")) == "AlternatingWalk(0,1,2,3,0; mm)"
    assert repr(AlternatingWalk((), "nn")) == "AlternatingWalk(; nn)"
    # The other records list their fields, as dataclasses did.
    assert repr(CheckResult("x", False, {"vertex": 3})) == (
        "CheckResult(name='x', passed=False, counterexample={'vertex': 3})"
    )
    assert repr(SachsSubgraph(4, ((0, 1), (2, 3)), ())) == (
        "SachsSubgraph(n=4, k2_edges=((0, 1), (2, 3)), cycles=())"
    )
    part = sd_ke_partition(build_graph(2, [(0, 1)]))
    assert repr(part) == (
        "SdKePartition(sd_vertices=frozenset(), ke_vertices=frozenset({0, 1}), "
        "sd_part=Graph(n=0, m=0), ke_part=Graph(n=2, m=1), cut=frozenset(), "
        "matching=Matching([(0, 1)]), witnesses={}, failed_searches=frozenset({1}))"
    )
    assert repr(TheoremReport(factorization_report(build_graph(2, [(0, 1)])))) == (
        f"TheoremReport(factorization=FactorizationReport(partition={part!r}, "
        "det_g=-1, det_sd=1, det_ke=-1, det_product_ok=True, perm_g=1, perm_sd=1, "
        "perm_ke=1, perm_product_ok=True), checks=[])"
    )


@pytest.mark.parametrize("cls", ALL, ids=lambda c: c.__name__)
def test_copy_and_pickle_round_trip(cls):
    a = cls(*_values(cls))
    for b in (copy.copy(a), copy.deepcopy(a), pickle.loads(pickle.dumps(a))):
        assert type(b) is cls and b == a


def test_records_built_from_lists_hold_tuples():
    m = Matching([1, 0])
    assert m.pairing == (1, 0) and m == Matching((1, 0)) and hash(m) == hash(Matching((1, 0)))
    w = AlternatingWalk(vertices=[0, 1, 0], kind="mm")
    assert w.vertices == (0, 1, 0) and w == AlternatingWalk((0, 1, 0), "mm")
    assert len({w, AlternatingWalk((0, 1, 0), "mm")}) == 1
    g = Graph(2, [(0, 1)], ["a", "b"])
    assert (g.edges, g.labels) == (((0, 1),), ("a", "b"))
    assert g == Graph(2, ((0, 1),), ("a", "b")) and hash(g) == hash(build_graph(2, [(0, 1)], labels="ab"))
    part = sd_ke_partition(build_graph(2, [(0, 1)]), Matching([1, 0]))
    assert type(part.matching.pairing) is tuple
