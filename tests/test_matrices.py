import itertools

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from oracles import (
    bfs_distance_matrix,
    blown_up_graphs,
    complete_graph,
    cycle_graph,
    matrix_to_csv,
    path_graph,
    random_graphs,
)
from powergraph.detour import DetourBudgetError, detour_matrix
from powergraph.graphs import Graph
from powergraph.matrices import (
    AlphaRangeError,
    DisconnectedGraphError,
    a_alpha,
    adjacency,
    degree_diag,
    distance_matrix,
    rd_alpha,
    reciprocal_distance,
    reciprocal_transmission,
)
from powergraph.graphs import predicted_quotient
from powergraph.sequences import family_detour_matrix


def test_k2_basics():
    g = complete_graph(2)
    assert np.array_equal(adjacency(g), [[0, 1], [1, 0]])
    assert np.array_equal(degree_diag(g), np.eye(2))
    assert np.array_equal(reciprocal_distance(g), [[0, 1], [1, 0]])
    assert np.array_equal(reciprocal_transmission(g), np.eye(2))


def test_single_vertex():
    g = Graph(np.zeros((1, 1)))
    assert np.array_equal(adjacency(g), [[0.0]])


def test_handshake_at_2_3(family):
    _, graph, _ = family(2, 3)
    assert degree_diag(graph).trace() == 174 == 2 * graph.edge_count()


def test_a_alpha_endpoints(family):
    _, graph, _ = family(2, 3)
    assert np.array_equal(a_alpha(graph, 0.0), adjacency(graph))
    assert np.array_equal(a_alpha(graph, 1.0), degree_diag(graph))
    q = degree_diag(graph) + adjacency(graph)  # signless Laplacian
    assert np.allclose(a_alpha(graph, 0.5), q / 2.0)


@given(st.floats(0, 1), st.floats(0, 1))
def test_a_alpha_laplacian_identity(alpha, beta):
    # with the PSD sign L = D - A the interpolation identity reads (alpha - beta) L
    g = path_graph(5)
    lhs = a_alpha(g, alpha) - a_alpha(g, beta)
    laplacian = degree_diag(g) - adjacency(g)
    assert np.allclose(lhs, (alpha - beta) * laplacian, atol=1e-12)


def test_alpha_range_errors(family):
    _, graph, _ = family(2, 3)
    with pytest.raises(AlphaRangeError):
        a_alpha(graph, -0.1)
    with pytest.raises(AlphaRangeError):
        rd_alpha(graph, 1.5)


def test_laplacian_row_sums(family):
    _, graph, _ = family(2, 3)
    # D - A has zero row sums exactly when D holds the adjacency row sums
    assert np.allclose((degree_diag(graph) - adjacency(graph)).sum(axis=1), 0.0)


def test_laplacian_kernel_dimension(family):
    # connected graph: eigenvalue 0 with multiplicity exactly 1
    _, graph, _ = family(2, 3)
    values = np.linalg.eigvalsh(degree_diag(graph) - adjacency(graph))
    assert int(np.sum(np.abs(values) < 1e-9)) == 1
    assert values.min() > -1e-9


def test_matrices_exactly_symmetric(family):
    _, graph, _ = family(2, 3)
    for m in (
        adjacency(graph),
        a_alpha(graph, 0.3),
        distance_matrix(graph),
        reciprocal_distance(graph),
        rd_alpha(graph, 0.7),
        detour_matrix(graph),
    ):
        assert np.array_equal(m, m.T)


def test_distances_at_2_3(family):
    _, graph, classes = family(2, 3)
    dist = distance_matrix(graph)
    off = ~np.eye(graph.n, dtype=bool)
    assert set(np.unique(dist[off])) == {1, 2}
    assert all(dist[classes.e, v] == 1 for v in range(graph.n) if v != classes.e)
    h2 = sorted(classes.h2)
    assert dist[h2[0], h2[1]] == 2


def test_triangle_inequality_exhaustive(family):
    _, graph, _ = family(2, 3)
    dist = distance_matrix(graph)
    for a, b, c in itertools.product(range(graph.n), repeat=3):
        assert dist[a, c] <= dist[a, b] + dist[b, c]


def test_disconnected_rejected():
    g = Graph.from_edges(3, [(0, 1)])
    with pytest.raises(DisconnectedGraphError):
        distance_matrix(g)


def test_distance_matrix_matches_the_bfs_oracle_on_random_graphs():
    disconnected = 0
    for graph in random_graphs(seed=6, count=300):
        try:
            expected = bfs_distance_matrix(graph)
        except DisconnectedGraphError:
            disconnected += 1
            with pytest.raises(DisconnectedGraphError, match="graph is disconnected"):
                distance_matrix(graph)
            continue
        dist = distance_matrix(graph)
        assert dist.dtype == np.int64
        assert np.array_equal(dist, expected)
    assert 50 < disconnected < 250  # the corpus has both kinds


@pytest.mark.parametrize("k,p", [(2, 3), (3, 3), (2, 5), (4, 5), (5, 5)])
def test_distance_matrix_matches_the_bfs_oracle_on_the_family(family, k, p):
    _, graph, _ = family(k, p)
    dist = distance_matrix(graph)
    assert dist.dtype == np.int64
    assert np.array_equal(dist, bfs_distance_matrix(graph))


def lifted_distances(graph: Graph) -> np.ndarray:
    """The twin quotient's k x k class distances as the n x n vertex matrix."""
    return graph.quotient.lift(graph.quotient.dist)


def test_graph_dist_matches_the_bfs_oracle_on_the_random_corpora():
    graphs = [*random_graphs(seed=6, count=300), *blown_up_graphs(seed=5, count=100)]
    disconnected = 0
    for graph in graphs:
        try:
            expected = bfs_distance_matrix(graph)
        except DisconnectedGraphError:
            disconnected += 1
            with pytest.raises(DisconnectedGraphError, match="graph is disconnected"):
                graph.quotient.dist
            continue
        assert graph.quotient.dist.dtype == np.int64
        assert np.array_equal(lifted_distances(graph), expected)
    assert 50 < disconnected < 250  # the corpus has both kinds


@pytest.mark.parametrize("n", [2, 3])
def test_graph_dist_rejects_an_edgeless_graph(n):
    # one open twin class and nothing else: the quotient is a single vertex
    graph = Graph(np.zeros((n, n), dtype=bool))
    assert graph.quotient.sizes == [n]
    with pytest.raises(DisconnectedGraphError, match="graph is disconnected"):
        graph.quotient.dist


@pytest.mark.parametrize("k,p", [(2, 3), (3, 5), (5, 5), (6, 5), (7, 7)])
def test_graph_dist_equals_the_dense_distances_on_the_family(family, k, p):
    _, graph, _ = family(k, p)
    assert np.array_equal(lifted_distances(graph), distance_matrix(graph))


@pytest.mark.parametrize("make", [path_graph, cycle_graph])
def test_distance_matrix_on_long_diameters(make):
    graph = make(50)
    dist = distance_matrix(graph)
    assert dist.max() == (49 if make is path_graph else 25)
    assert np.array_equal(dist, bfs_distance_matrix(graph))


def test_reciprocal_transmissions_at_2_3(family):
    _, graph, classes = family(2, 3)
    rt = np.diag(reciprocal_transmission(graph))
    assert rt[classes.e] == 23
    assert rt[classes.u] == 20
    assert all(rt[v] == 17 for v in classes.h1)
    assert all(rt[v] == 12 for v in classes.h2)
    assert all(rt[v] == 13 for v in classes.h3)


def test_rd_alpha_endpoints_and_midpoint(family):
    _, graph, classes = family(2, 3)
    rd = reciprocal_distance(graph)
    rt = reciprocal_transmission(graph)
    assert np.array_equal(rd_alpha(graph, 0.0), rd)
    assert np.array_equal(rd_alpha(graph, 1.0), rt)
    assert np.allclose(rd_alpha(graph, 0.5), (rt + rd) / 2.0)
    pendant = min(classes.h2)
    assert rd_alpha(graph, 0.5)[pendant, pendant] == 6.0


def test_rt_is_row_sum(family):
    _, graph, _ = family(2, 3)
    rd = reciprocal_distance(graph)
    assert np.array_equal(np.diag(reciprocal_transmission(graph)), rd.sum(axis=1))


# detour ------------------------------------------------------------------


def lifted_detour(graph: Graph) -> np.ndarray:
    """The detour search's k x k class matrix as the n x n vertex matrix."""
    return graph.quotient.lift(detour_matrix(graph))


def test_detour_path3():
    d = lifted_detour(path_graph(3))
    assert d[0, 2] == 2
    assert d[0, 1] == 1


def test_detour_k4():
    d = lifted_detour(complete_graph(4))
    off = ~np.eye(4, dtype=bool)
    assert set(np.unique(d[off])) == {3}


def test_detour_tree_equals_distance():
    g = path_graph(6)
    assert np.array_equal(lifted_detour(g), distance_matrix(g))


def test_detour_family_values(family):
    params, graph, classes = family(2, 3)
    d = lifted_detour(graph)
    h1 = min(classes.h1)
    h2 = sorted(classes.h2)
    assert d[classes.e, h2[0]] == 1
    assert d[classes.e, classes.u] == 11
    assert d[classes.e, h1] == 13
    assert d[h2[0], h2[1]] == 2
    predicted, types = predicted_quotient(graph.labels, classes)
    assert np.array_equal(d, predicted.lift(family_detour_matrix(types, params)))


def test_detour_dominates_distance(family):
    _, graph, _ = family(2, 3)
    d = lifted_detour(graph)
    dist = distance_matrix(graph)
    assert (d >= dist).all()
    assert (d <= graph.n - 1).all()


def test_detour_c4_crossing_pairs():
    d = lifted_detour(Graph.from_edge_list("0 1\n1 2\n2 3\n3 0\n"))
    assert d[0, 1] == 3  # go the long way around
    assert d[0, 2] == 2


def test_matrix_exports():
    g = complete_graph(2)
    assert matrix_to_csv(adjacency(g)) == "0.0,1.0\n1.0,0.0\n"


@pytest.mark.parametrize(
    "graph",
    [Graph.from_edges(4, [(0, 1), (2, 3)]), Graph.from_edges(2, [])],
    ids=["two-disjoint-edges", "two-isolated-vertices"],
)
def test_detour_rejects_a_disconnected_graph(graph):
    with pytest.raises(ValueError, match="disconnected"):
        detour_matrix(graph)


def test_detour_budget_error():
    # twinless circulant: the quotient search degenerates to plain DFS
    n = 40
    g = Graph.from_edges(n, [(i, (i + step) % n) for i in range(n) for step in (1, 3, 7)])
    with pytest.raises(DetourBudgetError):
        detour_matrix(g, time_budget_s=0.05)


def test_detour_budget_error_on_a_twin_heavy_graph(family):
    _, graph, _ = family(5, 5)
    with pytest.raises(DetourBudgetError):
        detour_matrix(graph, time_budget_s=0.01)
