"""Cross-check the twin-class detour search against a naive per-vertex DFS."""

import numpy as np
import pytest

from powergraph.graphs import Graph, complete_graph, cycle_graph, star_graph
from powergraph.detour import detour_matrix
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
        g = Graph(n)
        prob = rng.uniform(0.25, 0.8)
        for i in range(n):
            for j in range(i + 1, n):
                if rng.random() < prob:
                    g.add_edge(i, j)
        if g.is_connected():
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
        g = Graph(1 + sum(sizes))
        offset = 1
        for size in sizes:
            block = list(range(offset, offset + size))
            for a_pos, a in enumerate(block):
                g.add_edge(0, a)
                for b in block[a_pos + 1 :]:
                    g.add_edge(a, b)
            offset += size
        assert np.array_equal(detour_matrix(g), naive_detour(g))


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
