"""Metric dimension certified by the twin witness; strong metric dimension at diameter two.

Every power graph has a universal vertex, so its diameter is at most 2
(`matrices.distance_matrix`), and the strong resolving graph G_SR and its
vertex cover number, the strong metric dimension (Oellermann and
Peters-Fransen, Discrete Appl. Math. 155, 2007), are closed expressions of
the twin quotient: `mmd_graph` reads the class distances, `min_vertex_cover`
the cotree.
"""

from __future__ import annotations

import numpy as np

from .graphs import Graph
from .groups import GroupParams


class MetricSearchError(RuntimeError):
    """Exact search refused: no certificate, or no cotree."""


def resolve_check(graph: Graph, subset) -> bool:
    """True when the distance vectors to `subset` distinguish every vertex pair.

    Decided on twin classes.  Each subset vertex alone is at 0 from itself.
    A vertex outside the subset, of class a, is at `dist[a, b]` from every
    subset vertex of class b, so the outside vertices are told apart exactly
    when their classes' rows on the classes the subset hits are distinct (two
    outside vertices of one class share a row).  Rows are compared by their
    bytes in a hash set.
    """
    cols = sorted(subset)
    if not cols:
        return graph.n <= 1
    quotient = graph.quotient
    rows = np.delete(quotient.class_of, cols)
    hit = sorted(set(quotient.class_of[cols].tolist()))
    vectors = quotient.dist[np.ix_(rows, hit)]
    return len({row.tobytes() for row in vectors}) == len(rows)


def twin_witness(graph: Graph) -> tuple[int, ...]:
    """All-but-one vertex from every twin class (the largest index is dropped).

    A resolving set keeps all but one twin, so its size, the sum of (size - 1)
    over the twin classes, is a lower bound; twins are interchangeable, so when
    this set resolves the graph the metric dimension is certified.
    """
    return tuple(sorted(v for members in graph.quotient.members for v in members[:-1]))


def metric_dimension(graph: Graph) -> tuple[int, ...]:
    """A metric basis certified by the twin witness; the metric dimension is its length.

    The twin witness always has the size of the twin lower bound, so when it
    resolves the graph the dimension is exact; every family graph is such a graph.  Any
    other graph is refused with MetricSearchError rather than answered
    heuristically.
    """
    if graph.n <= 1:
        return ()
    witness = twin_witness(graph)
    if not (witness and resolve_check(graph, witness)):
        raise MetricSearchError(f"twin witness does not resolve the graph (n={graph.n})")
    return witness


def mmd_graph(graph: Graph) -> np.ndarray:
    """Strong resolving graph G_SR as a k x k class matrix: the mutually maximally distant pairs.

    u is maximally distant from v when no neighbour of u is farther from v
    than u itself.  At diameter two a pair at distance 2 always is.  An
    adjacent pair u, v is mutually so exactly when N(u) lies in N[v] and N(v)
    in N[u], that is N[u] = N[v]: closed twins, one class.  So two distinct
    classes are joined exactly when they are not adjacent (at class distance
    2), and a class of size > 1, whose members are twins, is a clique of G_SR.
    """
    quotient = graph.quotient
    gsr = quotient.dist == 2
    np.fill_diagonal(gsr, np.array(quotient.sizes) > 1)
    return gsr


def min_vertex_cover(graph: Graph) -> tuple[int, tuple[int, ...]]:
    """The strong metric dimension and a minimum vertex cover of G_SR (`mmd_graph`).

    An independent set of G_SR holds at most one member of a class, and
    members of two classes only when those are adjacent: one vertex per class
    of a clique of the quotient graph Q.  So sdim = n - omega(Q), and the cover
    is every vertex but the first member of each class of a largest clique,
    found in one pass over the cotree (`TwinQuotient.cotree`): a leaf is its
    class, a join unites its sides' cliques, a union keeps the larger (the
    left one on a tie).  A non-cograph is refused with MetricSearchError.
    """
    quotient = graph.quotient
    quotient.dist  # G_SR is read at diameter two; `dist` refuses any other graph
    if quotient.cotree is None:
        raise MetricSearchError("graph is not a cograph; the strong cover needs its cotree")
    cliques = [[a] for a in range(len(quotient.sizes))]
    for join, left, right in quotient.cotree:
        sides = cliques[left], cliques[right]
        cliques.append(sides[0] + sides[1] if join else max(sides, key=len))
    kept = [quotient.members[a][0] for a in cliques[-1]] if cliques else []
    cover = np.delete(np.arange(graph.n), kept)
    return len(cover), tuple(cover.tolist())


def family_metric_dimension(params: GroupParams) -> int:
    """Predicted psi = 7 N/4 - 4 = 7 * 2^(k-2) p - 4; N = 2^k p is the rotation order."""
    return 7 * (params.rotation_order // 4) - 4


def family_strong_metric_dimension(params: GroupParams) -> int:
    """Predicted strong metric dimension sdim = 2N - 3 = 2^(k+1) p - 3, the group order less 3."""
    return params.order - 3
