"""Matrix representations of a graph: adjacency family, distance and reciprocal-distance family.

All matrices are dense float64 (int64 for distances) numpy arrays and exactly
symmetric by construction; an n x n float64 matrix costs 8 n^2 bytes.  Every
power graph has a universal vertex (the identity lies in every cyclic
subgroup), so its diameter is at most 2 and `distance_matrix` is a closed
expression of the adjacency; a graph without one is refused.  The pipeline
runs it once per graph, on its k-vertex twin quotient
(`graphs.TwinQuotient.dist`, k about n/8 on the family), and takes its spectra
from the quotient's orbits (`spectra.solve_quotient`, one stacked solve of the
m x m orbit quotients of an alpha sweep, m = 5 on the family).  `a_alpha`,
`rd_alpha`, `reciprocal_distance` and `reciprocal_transmission` are the dense
n-vertex references the tests solve with `spectra.sym_eigenvalues`.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

import numpy as np

if TYPE_CHECKING:
    from .graphs import Graph


class AlphaRangeError(ValueError):
    """alpha outside the closed interval [0, 1]."""


class NoUniversalVertexError(ValueError):
    """Distances are computed only for graphs with a vertex adjacent to every other."""


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


def distance_matrix(adj: np.ndarray) -> np.ndarray:
    """Shortest-path distances (int64) of a graph with a universal vertex: 1 on an edge, else 2.

    `adj` is the graph's bool adjacency, symmetric with a zero diagonal.  A
    vertex adjacent to every other is a common neighbour of any two
    non-adjacent vertices, so the diameter is at most 2.  Raises
    NoUniversalVertexError when no vertex is adjacent to every other.
    """
    if len(adj) and not (adj | np.eye(len(adj), dtype=bool)).all(axis=1).any():
        raise NoUniversalVertexError("no vertex is adjacent to every other; distances need one")
    dist = np.where(adj, 1, 2)
    np.fill_diagonal(dist, 0)
    return dist


def reciprocal_distance(graph: Graph) -> np.ndarray:
    """Entrywise 1/d(u, v) off the diagonal, 0 on it, from the dense n-vertex distances."""
    dist = distance_matrix(graph.adj)
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
