"""Metric dimension via the twin bound, strong resolving graph, and exact vertex cover."""

from __future__ import annotations

import itertools
from dataclasses import dataclass

import numpy as np

from .graphs import Graph, TwinQuotient
from .matrices import distance_matrix


class MetricSearchError(RuntimeError):
    """Exact search refused: instance too large and no certificate available."""


def resolve_check(graph: Graph, subset, dist: np.ndarray | None = None) -> bool:
    """True when the distance vectors to `subset` distinguish every vertex pair."""
    if dist is None:
        dist = distance_matrix(graph)
    cols = sorted(subset)
    if not cols:
        return graph.n <= 1
    vectors = dist[:, cols]
    return len(np.unique(vectors, axis=0)) == graph.n


def twin_lower_bound(graph: Graph, quotient: TwinQuotient | None = None) -> int:
    """Sum of (size - 1) over twin classes; a resolving set keeps all but one twin."""
    if quotient is None:
        quotient = TwinQuotient(graph)
    return sum(size - 1 for size in quotient.sizes)


def twin_witness(graph: Graph, quotient: TwinQuotient | None = None) -> tuple[int, ...]:
    """All-but-one vertex from every twin class (the largest index is dropped).

    Twins are interchangeable, so when this set resolves the graph its size
    equals the twin lower bound and the metric dimension is certified.
    """
    if quotient is None:
        quotient = TwinQuotient(graph)
    keep: list[int] = []
    for members in quotient.members:
        keep.extend(members[:-1])
    return tuple(sorted(keep))


@dataclass(frozen=True)
class ResolvingReport:
    lower_bound: int
    witness: tuple[int, ...]
    resolved: bool
    psi: int | None


def metric_dimension(
    graph: Graph,
    exhaustive_cap: int = 12,
    dist: np.ndarray | None = None,
    quotient: TwinQuotient | None = None,
) -> ResolvingReport:
    """Exact metric dimension with a certificate.

    First tries the twin witness: if it resolves, bound and witness size agree
    and the dimension is exact.  Otherwise small graphs fall back to an
    exhaustive search by subset size (pruned by the twin constraint); larger
    graphs without a certificate are refused rather than answered heuristically.
    """
    if graph.n <= 1:
        return ResolvingReport(0, (), True, 0)
    if dist is None:
        dist = distance_matrix(graph)
    if quotient is None:
        quotient = TwinQuotient(graph)
    bound = twin_lower_bound(graph, quotient)
    witness = twin_witness(graph, quotient)
    if witness and resolve_check(graph, witness, dist):
        return ResolvingReport(bound, witness, True, bound)
    if graph.n > exhaustive_cap:
        raise MetricSearchError(
            f"twin witness does not resolve and n={graph.n} exceeds the "
            f"exhaustive cap {exhaustive_cap}"
        )
    classes = [members for members in quotient.members if len(members) > 1]
    for size in range(max(bound, 1), graph.n + 1):
        for combo in itertools.combinations(range(graph.n), size):
            chosen = set(combo)
            if any(len(chosen.intersection(members)) < len(members) - 1 for members in classes):
                continue
            if resolve_check(graph, combo, dist):
                return ResolvingReport(bound, combo, True, size)
    return ResolvingReport(bound, tuple(range(graph.n)), True, graph.n)


def mmd_graph(graph: Graph, dist: np.ndarray | None = None) -> Graph:
    """Strong resolving graph: edges are the mutually maximally distant pairs.

    u is maximally distant from v when no neighbor of u is farther from v
    than u itself.
    """
    if dist is None:
        dist = distance_matrix(graph)
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
    out = Graph(n, labels=graph.labels)
    out.adj = md & md.T
    np.fill_diagonal(out.adj, False)
    return out


def max_independent_set(graph: Graph, cap: int = 64) -> tuple[int, ...]:
    """Exact maximum independent set by branch and bound on bitsets.

    Runs the classic clique search on the complement with a greedy-coloring
    bound; vertex order is fixed so the witness is reproducible.
    """
    n = graph.n
    if n > cap:
        raise MetricSearchError(f"independent-set search capped at {cap} vertices, got {n}")
    if n == 0:
        return ()
    full = (1 << n) - 1
    comp = []
    for i in range(n):
        row = 0
        for j in range(n):
            if i != j and not graph.adj[i, j]:
                row |= 1 << j
        comp.append(row)

    best: list[int] = []

    def color_sort(candidates: int) -> tuple[list[int], list[int]]:
        order: list[int] = []
        bounds: list[int] = []
        color = 0
        remaining = candidates
        while remaining:
            color += 1
            available = remaining
            while available:
                v = (available & -available).bit_length() - 1
                order.append(v)
                bounds.append(color)
                remaining &= ~(1 << v)
                available &= ~(1 << v)
                available &= ~comp[v]
        return order, bounds

    def expand(chosen: list[int], candidates: int) -> None:
        nonlocal best
        if not candidates:
            if len(chosen) > len(best):
                best = chosen.copy()
            return
        order, bounds = color_sort(candidates)
        pool = candidates
        for idx in range(len(order) - 1, -1, -1):
            if len(chosen) + bounds[idx] <= len(best):
                return
            v = order[idx]
            chosen.append(v)
            expand(chosen, pool & comp[v])
            chosen.pop()
            pool &= ~(1 << v)

    expand([], full)
    return tuple(sorted(best))


def min_vertex_cover(graph: Graph, cap: int = 64) -> tuple[int, tuple[int, ...]]:
    """Exact vertex cover number with a witness (complement of a maximum independent set)."""
    independent = set(max_independent_set(graph, cap))
    cover = tuple(v for v in range(graph.n) if v not in independent)
    return len(cover), cover


def strong_metric_dimension(graph: Graph, cap: int = 64) -> int:
    """Vertex cover number of the strong resolving graph."""
    size, _ = min_vertex_cover(mmd_graph(graph), cap)
    return size
