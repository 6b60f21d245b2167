from collections import Counter

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import (
    CayleyTable,
    RewritingProducts,
    alternating_threshold_graph,
    blown_up_graphs,
    build_power_graph_from_table,
    class_level_cotree,
    classify_partition,
    complete_graph,
    cotree_adjacency,
    cycle_graph,
    edge_count,
    element_pairs,
    family_vertex_order,
    from_edges,
    has_induced_p4,
    path_graph,
    predicted_quotient_from_labels,
    random_cographs,
    random_graphs,
    star_graph,
    twins_by_row_bytes,
    verify_decomposition,
)
from powergraph.graphs import (
    CLASS_TYPES,
    Graph,
    build_power_graph,
    family_degree_multiset,
    predicted_quotient,
    twin_classes,
)
from powergraph import graphs, report
from powergraph.detour import detour_matrix
from powergraph.groups import GroupParams
from powergraph.matrices import rd_alpha
from powergraph.metric import metric_dimension, mmd_graph, resolve_check, twin_witness
from powergraph.sequences import dds
from powergraph.spectra import twin_eigenvalues


def test_degrees_at_2_3(family):
    params, graph, classes = family(2, 3)
    degrees = graph.degrees()
    assert degrees[classes.e] == 23
    assert degrees[classes.u] == 17
    assert all(degrees[v] == 11 for v in classes.h1)
    assert all(degrees[v] == 1 for v in classes.h2)
    assert all(degrees[v] == 3 for v in classes.h3)


def test_edge_count_at_2_3(family):
    _, graph, _ = family(2, 3)
    # clique on <r> plus pendants plus the K4 blades, glued at e and u
    assert edge_count(graph) == 66 + 6 + 2 * 6 + 3 == 87


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
    assert graph.labels[classes.u] == "s^0 r^6"
    params5, _, classes5 = family(2, 5)
    # |H2| = 2^(k-1) p
    assert len(classes5.h2) == 10


@pytest.mark.parametrize("k", range(2, 8))
@pytest.mark.parametrize("p", [3, 5, 7])
def test_predicted_type_groups_are_the_label_classes(family, k, p):
    # every family order up to (7, 7), n = 1792
    params, graph, classes = family(k, p)
    predicted, types = predicted_quotient(graph.elements, params)
    named = classes.named()
    for t, name in enumerate(CLASS_TYPES):
        members = [v for a in np.flatnonzero(types == t) for v in predicted.members[a]]
        assert sorted(members) == sorted(named[name]), name
    # each h3 class is one blade {s r^i, s r^(i + N/2)}
    half = params.rotation_order // 2
    for a in np.flatnonzero(types == CLASS_TYPES.index("h3")):
        v, w = predicted.members[a]
        assert graph.elements[1][w] - graph.elements[1][v] == half


@pytest.mark.parametrize("k", range(2, 8))
@pytest.mark.parametrize("p", [3, 5, 7])
def test_predicted_quotient_equals_the_label_pass(family, k, p):
    params, graph, _ = family(k, p)
    predicted, types = predicted_quotient(graph.elements, params)
    expected, expected_types = predicted_quotient_from_labels(family_vertex_order(params), params)
    assert predicted.members == expected.members and predicted.closed == expected.closed
    assert np.array_equal(predicted.adj, expected.adj)
    assert np.array_equal(types, expected_types)


def test_family_graph_carries_its_elements_as_arrays(family):
    params, graph, _ = family(3, 5)
    eps, i = graph.elements
    assert eps.dtype == i.dtype == np.int64 and not eps.flags.writeable
    assert graph.labels == [f"s^{e} r^{j}" for e, j in zip(eps.tolist(), i.tolist())]
    assert element_pairs(graph) == family_vertex_order(params)
    assert Graph(graph.adj).elements is None and Graph(graph.adj).labels[:2] == ["0", "1"]


def test_a_default_report_formats_no_label(monkeypatch):
    def refuse(self):
        raise AssertionError("a label was formatted")

    monkeypatch.setattr(Graph, "labels", property(refuse))
    payload = report.build_report(5, 5, (0.0, 0.25, 0.5, 1.0))
    assert payload["passed"]
    with pytest.raises(AssertionError, match="formatted"):
        build_power_graph(GroupParams(2, 3)).labels


def _twins_agree(adj, labels=None):
    assert graphs._twins(adj, labels) == twins_by_row_bytes(adj, labels)


def test_twins_equal_the_row_bytes_routine_on_random_graphs():
    rng = np.random.default_rng(11)
    for g in random_graphs(seed=12, count=300, max_n=40):
        _twins_agree(g.adj)
        # few distinct labels, so that labels split some classes and not others
        _twins_agree(g.adj, rng.integers(0, 3, size=g.n))


@pytest.mark.parametrize("n", [0, 1])
def test_twins_of_the_smallest_graphs(n):
    adj = np.zeros((n, n), dtype=bool)
    _twins_agree(adj)
    _twins_agree(adj, np.arange(n))
    assert graphs._twins(adj) == [([0], False)] * n


def test_twins_read_the_adjacency_off_the_diagonal():
    # the orbits call passes a class adjacency whose diagonal is set
    rng = np.random.default_rng(5)
    for g in random_graphs(seed=13, count=100, max_n=20):
        adj = g.adj.copy()
        np.fill_diagonal(adj, rng.random(g.n) < 0.5)
        assert graphs._twins(adj) == twins_by_row_bytes(g.adj)


@pytest.mark.parametrize("k", range(2, 8))
@pytest.mark.parametrize("p", [3, 5, 7])
def test_twins_equal_the_row_bytes_routine_on_the_family(family, k, p):
    _, graph, _ = family(k, p)
    _twins_agree(graph.adj)


def test_twin_classes_family(family):
    _, graph, classes = family(2, 3)
    found = twin_classes(graph)
    by_size = {}
    for members, closed in found:
        by_size.setdefault((len(members), closed), []).append(members)
    assert len(by_size[(6, False)]) == 1  # involutions: open twins, all N = {e}
    assert by_size[(6, False)][0] == sorted(classes.h2)
    assert len(by_size[(10, True)]) == 1  # rotation clique minus {e, u}
    assert by_size[(10, True)][0] == sorted(classes.h1)
    assert len(by_size[(2, True)]) == 3  # the order-4 pairs
    singletons = [members for members, _ in found if len(members) == 1]
    assert {members[0] for members in singletons} == {classes.e, classes.u}


def test_twin_classes_are_maximal(family):
    _, graph, _ = family(2, 3)
    classes = [set(members) for members, _ in twin_classes(graph)]
    assert sum(len(cls) for cls in classes) == graph.n
    seen = set()
    for cls in classes:
        assert not (cls & seen)
        seen |= cls
    # no vertex outside a multi-class is a twin of a member
    for cls in classes:
        if len(cls) < 2:
            continue
        member = min(cls)
        for other in range(graph.n):
            if other in cls:
                continue
            open_eq = np.array_equal(graph.adj[member], graph.adj[other])
            closed = graph.adj[[member, other]].copy()
            closed[0, member] = closed[1, other] = True
            closed_eq = np.array_equal(closed[0], closed[1])
            assert not (open_eq or closed_eq)


def test_decomposition_verifies(family):
    for k, p in [(2, 3), (2, 5), (3, 3)]:
        params, graph, classes = family(k, p)
        assert verify_decomposition(graph, classes, params) == ([], [])


def test_decomposition_reports_violations(family):
    params, graph, classes = family(2, 3)
    some_edge = graph.edges()[0]
    broken = from_edges(graph.n, graph.edges()[1:], elements=graph.elements)
    missing, extra = verify_decomposition(broken, classes, params)
    assert missing == [some_edge]
    assert extra == []


def test_decomposition_reports_an_extra_edge(family):
    params, graph, classes = family(2, 3)
    h2 = min(classes.h2)
    extra_edge = (classes.u, h2) if classes.u < h2 else (h2, classes.u)
    broken = from_edges(graph.n, graph.edges() + [extra_edge], elements=graph.elements)
    assert verify_decomposition(broken, classes, params) == ([], [extra_edge])


def test_blade_is_k4(family):
    params, graph, _ = family(2, 3)
    idx = {str(lbl): i for i, lbl in enumerate(graph.labels)}
    blade = [idx["s^0 r^0"], idx["s^0 r^6"], idx["s^1 r^1"], idx["s^1 r^7"]]
    for a_pos, a in enumerate(blade):
        for b in blade[a_pos + 1 :]:
            assert graph.adj[a, b]


def test_rotation_clique(family):
    _, graph, classes = family(2, 3)
    rot = sorted(classes.h0 | classes.h1)
    for a_pos, a in enumerate(rot):
        for b in rot[a_pos + 1 :]:
            assert graph.adj[a, b]


def test_adjacency_symmetric_no_loops(family):
    _, graph, _ = family(2, 3)
    assert np.array_equal(graph.adj, graph.adj.T)
    assert not graph.adj.diagonal().any()


@pytest.mark.parametrize("kp", [(2, 3), (3, 5), (5, 5), (7, 7)])
def test_power_graph_is_symmetric_by_construction(family, kp):
    # the builder skips the transposed comparison that Graph(adj) makes
    _, graph, _ = family(*kp)
    assert np.array_equal(graph.adj, graph.adj.T)
    assert not graph.adj.diagonal().any() and not graph.adj.flags.writeable


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


@pytest.mark.parametrize("k,p", [(2, 3), (2, 5), (3, 3), (4, 5), (4, 7), (5, 5)])
def test_build_matches_the_word_rewriting_reference(family, k, p):
    params, graph, _ = family(k, p)
    other = build_power_graph_from_table(RewritingProducts(params))
    assert np.array_equal(graph.adj, other.adj)
    assert graph.labels == other.labels


def test_graph_computes_distances_and_quotient_once(monkeypatch):
    params = GroupParams(2, 3)
    graph = build_power_graph(params)
    calls = Counter()
    for name in ("distance_matrix", "twin_classes"):
        original = getattr(graphs, name)

        def counted(*args, _name=name, _original=original):
            calls[_name] += 1
            return _original(*args)

        monkeypatch.setattr(graphs, name, counted)
    metric_dimension(graph)
    mmd_graph(graph)
    dds(graph)
    rd_alpha(graph, 0.5)
    twin_eigenvalues(graph, "reciprocal", (0.5,))
    detour_matrix(graph)
    assert graph.quotient is graph.quotient and graph.quotient.dist is graph.quotient.dist
    assert calls == {"distance_matrix": 1, "twin_classes": 1}


def test_graph_arrays_are_read_only(family):
    _, graph, _ = family(2, 3)
    with pytest.raises(ValueError, match="read-only"):
        graph.adj[0, 1] = False
    with pytest.raises(ValueError, match="read-only"):
        graph.quotient.dist[0, 1] = 5
    with pytest.raises(ValueError, match="read-only"):
        graph.quotient.adj[0, 0] = True
    assert graph.adj[0, 1]


def test_constructor_copies_the_adjacency():
    adj = np.zeros((2, 2), dtype=bool)
    graph = Graph(adj)
    adj[0, 1] = adj[1, 0] = True
    assert edge_count(graph) == 0


@pytest.mark.parametrize(
    "adj, message",
    [
        (np.zeros((2, 3)), "square"),
        (np.zeros(4), "square"),
        ([[0, 1], [0, 0]], "symmetric"),
        ([[1, 0], [0, 0]], "self-loop"),
    ],
)
def test_constructor_rejects_bad_adjacency(adj, message):
    with pytest.raises(ValueError, match=message):
        Graph(adj)


def test_small_constructors():
    assert edge_count(complete_graph(4)) == 6
    assert star_graph(5).degrees()[0] == 5
    assert path_graph(4).degrees().tolist() == [1, 2, 2, 1]


@given(st.integers(0, 2**31 - 1), st.integers(2, 10))
@settings(max_examples=40, deadline=None)
def test_twin_classes_partition_random_graphs(seed, n):
    rng = np.random.default_rng(seed)
    pairs = [(i, j) for i in range(n) for j in range(i + 1, n)]
    g = from_edges(n, [pair for pair in pairs if rng.random() < 0.5])
    classes = twin_classes(g)
    # a partition of V into pure open/closed classes
    assert sum(len(members) for members, _ in classes) == n
    for members, closed in classes:
        assert members == sorted(members)
        for a_pos, a in enumerate(members):
            for b in members[a_pos + 1 :]:
                assert g.adj[a, b] == closed
                na = set(np.nonzero(g.adj[a])[0]) | ({a} if closed else set())
                nb = set(np.nonzero(g.adj[b])[0]) | ({b} if closed else set())
                assert na == nb


@given(st.integers(0, 2**31 - 1), st.integers(2, 10))
@settings(max_examples=40, deadline=None)
def test_twin_quotient_is_the_graph_on_classes(seed, n):
    rng = np.random.default_rng(seed)
    pairs = [(i, j) for i in range(n) for j in range(i + 1, n)]
    g = from_edges(n, [pair for pair in pairs if rng.random() < 0.5])
    quotient = g.quotient
    assert quotient.members == [members for members, _ in twin_classes(g)]
    assert quotient.sizes == [len(m) for m in quotient.members]
    for a in range(n):
        for b in range(n):
            ca, cb = quotient.class_of[a], quotient.class_of[b]
            assert a in quotient.members[ca]
            if a != b:
                assert quotient.adj[ca, cb] == g.adj[a, b]


def test_cotree_exists_exactly_for_cographs_and_expands_to_the_graph():
    corpora = [
        *random_graphs(seed=3, count=200, max_n=10),
        *random_cographs(seed=4, count=40, min_n=1, max_n=10, split=0.7),
        *(alternating_threshold_graph(n) for n in range(1, 11)),
        path_graph(4),
        cycle_graph(5),
    ]
    cographs = 0
    for g in corpora:
        cotree = g.quotient.cotree
        assert (cotree is None) == has_induced_p4(g), g.edges()
        if cotree is not None:
            assert len(cotree) == max(len(g.quotient.sizes) - 1, 0)
            assert np.array_equal(cotree_adjacency(g.quotient), g.adj), g.edges()
            cographs += 1
    assert 200 <= cographs < len(corpora)


def test_orbit_cotree_and_the_class_level_cotree_agree():
    # built on the orbits or by twin rounds over every class: None for the same graphs, both expand
    corpora = [
        *random_graphs(seed=3, count=200, max_n=10),
        *random_cographs(seed=4, count=40, min_n=1, max_n=10, split=0.7),
        *blown_up_graphs(8, 100),
    ]
    for g in corpora:
        rounds = class_level_cotree(g.quotient)
        assert (g.quotient.cotree is None) == (rounds is None), g.edges()
        if rounds is not None:
            assert np.array_equal(cotree_adjacency(g.quotient, rounds), g.adj), g.edges()


def test_orbit_of_numbers_the_orbits():
    for g in [*random_graphs(seed=3, count=50, max_n=10), *blown_up_graphs(8, 50)]:
        quotient = g.quotient
        expected = [next(i for i, orbit in enumerate(quotient.orbits) if a in orbit) for a in range(len(quotient.sizes))]
        assert quotient.orbit_of.tolist() == expected and not quotient.orbit_of.flags.writeable


@pytest.mark.parametrize("kp", [(2, 3), (3, 5), (5, 5)])
def test_family_cotree_is_four_rounds_of_twin_reduction(family, kp):
    # join(e, union(h2, join(u, union(h1, blades)))), the blades under a balanced union
    _, graph, classes = family(*kp)
    quotient = graph.quotient
    assert np.array_equal(cotree_adjacency(quotient), graph.adj)
    e, u = (quotient.class_of[v] for v in (classes.e, classes.u))
    h1, h2 = (quotient.class_of[min(members)] for members in (classes.h1, classes.h2))
    k = len(quotient.sizes)
    root = k + len(quotient.cotree) - 1
    spine = quotient.cotree[-4:]
    assert [join for join, _, _ in spine] == [False, True, False, True]
    assert spine[-1][1:] == (e, root - 1) and spine[-2][1:] == (root - 2, h2)
    assert spine[-3][1:] == (root - 3, u)
    depth = {root: 0}
    for node in range(root, k - 1, -1):
        _, left, right = quotient.cotree[node - k]
        depth[left] = depth[right] = depth[node] + 1
    assert depth[h1] <= 4 + (k - 3).bit_length()


@pytest.mark.parametrize("k", range(2, 8))
@pytest.mark.parametrize("p", [3, 5, 7])
def test_every_family_order_is_a_cograph_resolved_by_its_twin_witness(family, k, p):
    # the detour search needs a cotree and the metric dimension a resolving twin witness;
    # any other graph is refused
    graph = family(k, p)[1]
    assert graph.quotient.cotree is not None
    assert resolve_check(graph, twin_witness(graph))
