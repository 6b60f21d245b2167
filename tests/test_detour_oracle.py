"""Cross-check the twin-class detour search against a naive per-vertex DFS."""

import numpy as np
import pytest

from oracles import complete_graph, cycle_graph, is_connected, star_graph
from powergraph.graphs import Graph
from powergraph.detour import detour_matrix
from powergraph.sequences import family_detour_matrix
from powergraph.metric import strong_metric_dimension


def naive_detour(graph: Graph) -> np.ndarray:
    """Longest simple paths by exhaustive DFS; exponential, for tiny oracles only."""
    n = graph.n
    best = np.zeros((n, n), dtype=np.int64)
    adj = [graph.neighbors(v) for v in range(n)]

    def dfs(start: int, v: int, visited: int, length: int) -> None:
        for w in adj[v]:
            if not (visited >> w) & 1:
                if length + 1 > best[start][w]:
                    best[start][w] = length + 1
                dfs(start, w, visited | (1 << w), length + 1)

    for s in range(n):
        dfs(s, s, 1 << s, 0)
    return best


def random_connected_graph(rng: np.random.Generator, n: int) -> Graph:
    while True:
        prob = rng.uniform(0.25, 0.8)
        pairs = [(i, j) for i in range(n) for j in range(i + 1, n)]
        g = Graph.from_edges(n, [pair for pair in pairs if rng.random() < prob])
        if is_connected(g):
            return g


def test_detour_matches_naive_on_random_graphs():
    rng = np.random.default_rng(99)
    for _ in range(30):
        n = int(rng.integers(2, 9))
        g = random_connected_graph(rng, n)
        assert np.array_equal(detour_matrix(g), naive_detour(g)), g.edges()


def test_detour_matches_naive_on_twin_heavy_graphs():
    # unions of cliques through a hub: many closed twins, several classes
    rng = np.random.default_rng(7)
    for _ in range(10):
        sizes = [int(rng.integers(1, 4)) for _ in range(3)]
        edges = []
        offset = 1
        for size in sizes:
            block = list(range(offset, offset + size))
            for a_pos, a in enumerate(block):
                edges.append((0, a))
                edges.extend((a, b) for b in block[a_pos + 1 :])
            offset += size
        g = Graph.from_edges(1 + sum(sizes), edges)
        assert np.array_equal(detour_matrix(g), naive_detour(g))


def test_detour_matches_naive_on_open_twin_graphs():
    # complete bipartite graphs and stars of stars: open classes, pairs inside one class
    graphs = []
    for a in range(1, 4):
        for b in range(a, 5):
            edges = [(i, j) for i in range(a) for j in range(a, a + b)]
            graphs.append(Graph.from_edges(a + b, edges))
    for leaves in ([1, 2], [2, 2], [3, 1, 2], [2, 3, 3]):
        edges = []
        nxt = 1 + len(leaves)
        for centre, count in enumerate(leaves, start=1):
            edges.append((0, centre))
            edges.extend((centre, leaf) for leaf in range(nxt, nxt + count))
            nxt += count
        graphs.append(Graph.from_edges(nxt, edges))
    for g in graphs:
        assert np.array_equal(detour_matrix(g), naive_detour(g)), g.edges()


def test_detour_matches_the_family_closed_form_at_n56(family):
    params, graph, classes = family(2, 7)
    predicted = family_detour_matrix(graph, classes, params)
    assert np.array_equal(detour_matrix(graph), predicted)


def test_detour_small_named_graphs():
    for g in [
        complete_graph(2),
        complete_graph(5),
        cycle_graph(5),
        cycle_graph(6),
        star_graph(4),
    ]:
        assert np.array_equal(detour_matrix(g), naive_detour(g))


@pytest.mark.parametrize("n", [4, 5, 6, 7, 8])
def test_strong_metric_dimension_cycles(n):
    # classical value: ceil(n / 2)
    assert strong_metric_dimension(cycle_graph(n)) == (n + 1) // 2
