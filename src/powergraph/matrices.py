"""Matrix representations of a graph: adjacency family, distance and reciprocal-distance family.

All matrices are dense float64 (int64 for distances) numpy arrays and exactly
symmetric by construction; an n x n float64 matrix costs 8 n^2 bytes.  The
pipeline runs `distance_matrix` once per graph, on its k-vertex twin quotient
(`graphs.TwinQuotient.dist`, k about n/8 on the family), and takes its spectra
from the quotient's orbits (`spectra.solve_quotient`, one stacked solve of the
m x m orbit quotients of an alpha sweep, m = 5 on the family).  `a_alpha`, `rd_alpha`, `reciprocal_distance` and
`reciprocal_transmission` are the dense n-vertex references the tests solve
with `spectra.sym_eigenvalues` and compare it against.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

import numpy as np

if TYPE_CHECKING:
    from .graphs import Graph


class AlphaRangeError(ValueError):
    """alpha outside the closed interval [0, 1]."""


class DisconnectedGraphError(ValueError):
    """Distance-based matrices require a connected graph."""


def check_alpha(alpha: float) -> float:
    if not 0.0 <= alpha <= 1.0:
        raise AlphaRangeError(f"alpha must lie in [0, 1], got {alpha}")
    return float(alpha)


def adjacency(graph: Graph) -> np.ndarray:
    return graph.adj.astype(np.float64)


def degree_diag(graph: Graph) -> np.ndarray:
    return np.diag(graph.degrees().astype(np.float64))


def a_alpha(graph: Graph, alpha: float) -> np.ndarray:
    """alpha * D + (1 - alpha) * A; interpolates A (alpha=0) to D (alpha=1)."""
    alpha = check_alpha(alpha)
    return alpha * degree_diag(graph) + (1.0 - alpha) * adjacency(graph)


def distance_matrix(graph: Graph) -> np.ndarray:
    """Shortest-path distances (int64) by one breadth-first search from every vertex at once.

    Row s of `frontier` holds the vertices at distance d - 1 from s, so the
    vertices first reached at distance d are `(frontier @ adj > 0) & ~seen`:
    one n x n product per distance level.  The operands are 0/1 float32, so a
    product entry is a count of at most n ones, exact below 2^24 vertices.
    Raises DisconnectedGraphError when some pair is never reached.
    """
    n = graph.n
    adj = graph.adj.astype(np.float32)
    dist = np.zeros((n, n), dtype=np.int64)
    seen = np.eye(n, dtype=bool)
    frontier = seen
    d = 0
    while True:
        d += 1
        frontier = (frontier.astype(np.float32) @ adj > 0) & ~seen
        if not frontier.any():
            break
        dist[frontier] = d
        seen |= frontier
    if not seen.all():
        raise DisconnectedGraphError("graph is disconnected; distances are undefined")
    return dist


def reciprocal_distance(graph: Graph) -> np.ndarray:
    """Entrywise 1/d(u, v) off the diagonal, 0 on it, from the dense n-vertex distances."""
    dist = distance_matrix(graph)
    rd = np.zeros(dist.shape, dtype=np.float64)
    off = dist > 0
    rd[off] = 1.0 / dist[off]
    return rd


def reciprocal_transmission(graph: Graph) -> np.ndarray:
    """Diagonal matrix of the reciprocal-distance row sums."""
    return np.diag(reciprocal_distance(graph).sum(axis=1))


def rd_alpha(graph: Graph, alpha: float) -> np.ndarray:
    """alpha * RT + (1 - alpha) * RD."""
    alpha = check_alpha(alpha)
    rd = reciprocal_distance(graph)
    rt = np.diag(rd.sum(axis=1))
    return alpha * rt + (1.0 - alpha) * rd
