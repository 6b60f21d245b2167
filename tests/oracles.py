"""Slow reference implementations that the fast library routines are checked against."""

import numpy as np

from powergraph.graphs import Graph
from powergraph.groups import CayleyTable
from powergraph.matrices import DisconnectedGraphError


def bfs_distance_matrix(graph: Graph) -> np.ndarray:
    """Shortest-path distances (int64) by a breadth-first search from each vertex in turn."""
    n = graph.n
    dist = np.full((n, n), -1, dtype=np.int64)
    for s in range(n):
        dist[s, s] = 0
        frontier = [s]
        d = 0
        while frontier:
            d += 1
            nxt = []
            for v in frontier:
                for w in np.nonzero(graph.adj[v])[0]:
                    if dist[s, w] < 0:
                        dist[s, w] = d
                        nxt.append(int(w))
            frontier = nxt
    if (dist < 0).any():
        raise DisconnectedGraphError("graph is disconnected; distances are undefined")
    return dist


def mmd_graph_loop(graph: Graph) -> Graph:
    """Strong resolving graph, one vertex u at a time: u is maximally distant
    from v when no neighbor of u is farther from v than u itself."""
    dist = graph.dist
    n = graph.n
    md = np.zeros((n, n), dtype=bool)
    for u in range(n):
        nbrs = np.nonzero(graph.adj[u])[0]
        if nbrs.size == 0:
            md[u, :] = True
        else:
            # max_x in N(u) of d(v, x), as a vector over v
            farthest = dist[:, nbrs].max(axis=1)
            md[u] = farthest <= dist[u]
    adj = md & md.T
    np.fill_diagonal(adj, False)
    return Graph(adj, labels=graph.labels)


class RewritingProducts:
    """The products of `CayleyTable`'s word rewriting, each computed on demand.

    Stands in for a full table where building all (order)^2 products would take
    minutes; `build_power_graph_from_table` needs only `params` and `mul`.
    """

    mul = CayleyTable._reduce_word

    def __init__(self, params):
        self.params = params


def random_graphs(seed: int, count: int, max_n: int = 30):
    """Seeded corpus of `count` graphs on 0 .. max_n vertices.

    Edge densities run from sparse (often disconnected) to dense; about a
    quarter of the graphs are two separate parts; the vertices past a random
    base are twins (closed or open) of earlier ones.
    """
    rng = np.random.default_rng(seed)
    for _ in range(count):
        n = int(rng.integers(0, max_n + 1))
        base = int(rng.integers(min(n, 1), n + 1))
        prob = float(rng.choice([rng.uniform(0.02, 0.2), rng.uniform(0.2, 0.6), rng.uniform(0.6, 0.98)]))
        adj = np.triu(rng.random((n, n)) < prob, 1)
        adj = adj | adj.T
        if base > 1 and rng.random() < 0.25:
            cut = int(rng.integers(1, base))
            adj[:cut, cut:] = adj[cut:, :cut] = False
        for v in range(base, n):
            twin = int(rng.integers(0, v))
            adj[v, :] = adj[:, v] = False
            adj[v, :v] = adj[:v, v] = adj[twin, :v]
            adj[v, twin] = adj[twin, v] = rng.random() < 0.5
        yield Graph(adj)
