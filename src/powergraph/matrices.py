"""Matrix representations of a graph: adjacency family, distance and reciprocal-distance family.

All matrices are dense float64 (int64 for distances) numpy arrays and exactly
symmetric by construction.  Each one is n x n, so a float64 matrix costs
8 n^2 bytes: 0.8 MB at n = 320, 100 MB at n = 3584.
"""

from __future__ import annotations

import io

import numpy as np

from .graphs import Graph


class AlphaRangeError(ValueError):
    """alpha outside the closed interval [0, 1]."""


class DisconnectedGraphError(ValueError):
    """Distance-based matrices require a connected graph."""


def _check_alpha(alpha: float) -> float:
    if not 0.0 <= alpha <= 1.0:
        raise AlphaRangeError(f"alpha must lie in [0, 1], got {alpha}")
    return float(alpha)


def adjacency(graph: Graph) -> np.ndarray:
    return graph.adj.astype(np.float64)


def degree_diag(graph: Graph) -> np.ndarray:
    return np.diag(graph.degrees().astype(np.float64))


def a_alpha(graph: Graph, alpha: float) -> np.ndarray:
    """alpha * D + (1 - alpha) * A; interpolates A (alpha=0) to D (alpha=1)."""
    alpha = _check_alpha(alpha)
    return alpha * degree_diag(graph) + (1.0 - alpha) * adjacency(graph)


def laplacian(graph: Graph) -> np.ndarray:
    """D - A (positive-semidefinite sign, so a_alpha - a_beta = (beta - alpha) L)."""
    return degree_diag(graph) - adjacency(graph)


def signless_laplacian(graph: Graph) -> np.ndarray:
    return degree_diag(graph) + adjacency(graph)


def distance_matrix(graph: Graph) -> np.ndarray:
    """BFS-exact shortest-path distances (int64); errors on disconnected input."""
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


def reciprocal_distance(graph: Graph, dist: np.ndarray | None = None) -> np.ndarray:
    """Entrywise 1/d(u, v) off the diagonal, 0 on it."""
    if dist is None:
        dist = distance_matrix(graph)
    rd = np.zeros(dist.shape, dtype=np.float64)
    off = dist > 0
    rd[off] = 1.0 / dist[off]
    return rd


def reciprocal_transmission(graph: Graph, dist: np.ndarray | None = None) -> np.ndarray:
    """Diagonal matrix of the reciprocal-distance row sums."""
    return np.diag(reciprocal_distance(graph, dist).sum(axis=1))


def rd_alpha(graph: Graph, alpha: float, dist: np.ndarray | None = None) -> np.ndarray:
    """alpha * RT + (1 - alpha) * RD."""
    alpha = _check_alpha(alpha)
    rd = reciprocal_distance(graph, dist)
    rt = np.diag(rd.sum(axis=1))
    return alpha * rt + (1.0 - alpha) * rd


def matrix_to_csv(matrix: np.ndarray) -> str:
    buf = io.StringIO()
    for row in matrix:
        buf.write(",".join(repr(float(x)) for x in row))
        buf.write("\n")
    return buf.getvalue()


def matrix_to_json_dict(matrix: np.ndarray) -> dict:
    return {"n": int(matrix.shape[0]), "rows": [[float(x) for x in row] for row in matrix]}
