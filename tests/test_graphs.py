import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from powergraph.graphs import (
    Graph,
    GraphFormatError,
    TwinQuotient,
    build_power_graph,
    build_power_graph_from_table,
    complete_graph,
    family_degree_multiset,
    path_graph,
    star_graph,
    twin_classes,
    verify_decomposition,
)
from powergraph.groups import CayleyTable, GroupElement


def test_degrees_at_2_3(family):
    params, graph, classes = family(2, 3)
    assert graph.degree(classes.e) == 23
    assert graph.degree(classes.u) == 17
    assert all(graph.degree(v) == 11 for v in classes.h1)
    assert all(graph.degree(v) == 1 for v in classes.h2)
    assert all(graph.degree(v) == 3 for v in classes.h3)


def test_edge_count_at_2_3(family):
    _, graph, _ = family(2, 3)
    # clique on <r> plus pendants plus the K4 blades, glued at e and u
    assert graph.edge_count() == 66 + 6 + 2 * 6 + 3 == 87


@pytest.mark.parametrize("k,p", [(2, 3), (2, 5), (3, 3), (2, 7), (3, 5), (4, 3)])
def test_degree_multiset(family, k, p):
    params, graph, _ = family(k, p)
    counts = {}
    for d in graph.degrees():
        counts[int(d)] = counts.get(int(d), 0) + 1
    assert counts == family_degree_multiset(params)


def test_partition_sizes(family):
    params, graph, classes = family(2, 3)
    assert (len(classes.h0), len(classes.h1), len(classes.h2), len(classes.h3)) == (2, 10, 6, 6)
    assert graph.labels[classes.u] == GroupElement(0, 6)
    params5, _, classes5 = family(2, 5)
    # |H2| = 2^(k-1) p
    assert len(classes5.h2) == 10


def test_twin_classes_family(family):
    _, graph, classes = family(2, 3)
    found = twin_classes(graph)
    by_size = {}
    for cls in found:
        by_size.setdefault((cls.size, cls.closed), []).append(cls)
    assert len(by_size[(6, False)]) == 1  # involutions: open twins, all N = {e}
    assert by_size[(6, False)][0].vertices == classes.h2
    assert len(by_size[(10, True)]) == 1  # rotation clique minus {e, u}
    assert by_size[(10, True)][0].vertices == classes.h1
    assert len(by_size[(2, True)]) == 3  # the order-4 pairs
    singletons = [cls for cls in found if cls.size == 1]
    assert {min(cls.vertices) for cls in singletons} == {classes.e, classes.u}


def test_twin_classes_are_maximal(family):
    _, graph, _ = family(2, 3)
    classes = twin_classes(graph)
    assert sum(cls.size for cls in classes) == graph.n
    seen = set()
    for cls in classes:
        assert not (cls.vertices & seen)
        seen |= cls.vertices
    # no vertex outside a multi-class is a twin of a member
    for cls in classes:
        if cls.size < 2:
            continue
        member = min(cls.vertices)
        for other in range(graph.n):
            if other in cls.vertices:
                continue
            open_eq = graph.neighbors(member) == graph.neighbors(other)
            closed_eq = sorted(graph.neighbors(member) + [member]) == sorted(
                graph.neighbors(other) + [other]
            )
            assert not (open_eq or closed_eq)


def test_decomposition_verifies(family):
    for k, p in [(2, 3), (2, 5), (3, 3)]:
        params, graph, classes = family(k, p)
        assert verify_decomposition(graph, classes, params).ok


def test_decomposition_reports_violations(family):
    params, graph, classes = family(2, 3)
    broken = build_power_graph(params)
    some_edge = broken.edges()[0]
    broken.adj[some_edge[0], some_edge[1]] = False
    broken.adj[some_edge[1], some_edge[0]] = False
    report = verify_decomposition(broken, classes, params)
    assert not report.ok
    assert report.missing_edges == [some_edge]


def test_blade_is_k4(family):
    params, graph, _ = family(2, 3)
    idx = {str(lbl): i for i, lbl in enumerate(graph.labels)}
    blade = [idx["s^0 r^0"], idx["s^0 r^6"], idx["s^1 r^1"], idx["s^1 r^7"]]
    for a_pos, a in enumerate(blade):
        for b in blade[a_pos + 1 :]:
            assert graph.has_edge(a, b)


def test_rotation_clique(family):
    _, graph, classes = family(2, 3)
    rot = sorted(classes.rotation_indices)
    for a_pos, a in enumerate(rot):
        for b in rot[a_pos + 1 :]:
            assert graph.has_edge(a, b)


def test_adjacency_symmetric_no_loops(family):
    _, graph, _ = family(2, 3)
    assert np.array_equal(graph.adj, graph.adj.T)
    assert not graph.adj.diagonal().any()


def test_vertex_order_is_canonical(family):
    # identity, rotations by exponent, involutions by exponent, order-4 by exponent
    _, graph, _ = family(2, 3)
    labels = [str(lbl) for lbl in graph.labels]
    assert labels[:3] == ["s^0 r^0", "s^0 r^1", "s^0 r^2"]
    assert labels[12:15] == ["s^1 r^0", "s^1 r^2", "s^1 r^4"]
    assert labels[18:21] == ["s^1 r^1", "s^1 r^3", "s^1 r^5"]


def test_cayley_table_construction_agrees(family):
    params, graph, _ = family(2, 3)
    table = CayleyTable(params)
    other = build_power_graph_from_table(table)
    assert np.array_equal(graph.adj, other.adj)


def test_edge_list_round_trip():
    g = path_graph(3)
    text = g.to_edge_list()
    assert text == "0 1\n1 2\n"
    again = Graph.from_edge_list(text)
    assert np.array_equal(again.adj, g.adj)


def test_json_round_trip(family):
    _, graph, _ = family(2, 3)
    payload = json.loads(json.dumps(graph.to_json_dict()))
    again = Graph.from_json_dict(payload)
    assert np.array_equal(again.adj, graph.adj)


def test_edge_list_parse_errors():
    with pytest.raises(GraphFormatError, match="line 1"):
        Graph.from_edge_list("0 x\n")
    with pytest.raises(GraphFormatError, match="line 2"):
        Graph.from_edge_list("0 1\n1\n")
    with pytest.raises(GraphFormatError, match="self-loop"):
        Graph.from_edge_list("2 2\n")


def test_small_constructors():
    assert complete_graph(4).edge_count() == 6
    assert star_graph(5).degree(0) == 5
    assert path_graph(4).degrees().tolist() == [1, 2, 2, 1]


@given(st.integers(0, 2**31 - 1), st.integers(2, 10))
@settings(max_examples=40, deadline=None)
def test_twin_classes_partition_random_graphs(seed, n):
    rng = np.random.default_rng(seed)
    g = Graph(n)
    for i in range(n):
        for j in range(i + 1, n):
            if rng.random() < 0.5:
                g.add_edge(i, j)
    classes = twin_classes(g)
    # a partition of V into pure open/closed classes
    assert sum(cls.size for cls in classes) == n
    for cls in classes:
        members = sorted(cls.vertices)
        for a_pos, a in enumerate(members):
            for b in members[a_pos + 1 :]:
                if cls.closed:
                    assert g.has_edge(a, b)
                    na = set(g.neighbors(a)) | {a}
                    nb = set(g.neighbors(b)) | {b}
                else:
                    assert not g.has_edge(a, b)
                    na = set(g.neighbors(a))
                    nb = set(g.neighbors(b))
                assert na == nb


@given(st.integers(0, 2**31 - 1), st.integers(2, 10))
@settings(max_examples=40, deadline=None)
def test_twin_quotient_is_the_graph_on_classes(seed, n):
    rng = np.random.default_rng(seed)
    g = Graph(n)
    for i in range(n):
        for j in range(i + 1, n):
            if rng.random() < 0.5:
                g.add_edge(i, j)
    quotient = TwinQuotient(g)
    assert quotient.members == [sorted(cls.vertices) for cls in twin_classes(g)]
    assert quotient.sizes == [len(m) for m in quotient.members]
    for a in range(n):
        for b in range(n):
            ca, cb = quotient.class_of[a], quotient.class_of[b]
            assert a in quotient.members[ca]
            if a != b:
                assert quotient.adj[ca][cb] == g.has_edge(a, b)
