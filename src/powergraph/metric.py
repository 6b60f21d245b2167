"""Metric dimension certified by the twin witness, the strong resolving graph, and exact vertex cover."""

from __future__ import annotations

import numpy as np

from .graphs import Graph, TwinQuotient

# largest (collapsed) graph the independent-set branch and bound runs on
SEARCH_CAP = 64


class MetricSearchError(RuntimeError):
    """Exact search refused: no certificate, or an instance past the search cap."""


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
    keep: list[int] = []
    for members in graph.quotient.members:
        keep.extend(members[:-1])
    return tuple(sorted(keep))


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
    """Strong resolving graph as a k x k class matrix: the mutually maximally distant class pairs.

    u is maximally distant from v when no neighbor of u is farther from v
    than u itself.  Twin classes are modules, so on the quotient with class
    distances D this holds unless a class c adjacent to u's class a has
    D[c, b] > D[a, b], b being v's class.  A neighbour in b lies at D[b, b]
    from v; one in a lies at D[a, b] and is never farther, so a's own entry of
    the quotient adjacency is dropped.  With F_t = (D >= t), one k x k product
    `adj @ F_t` per level t = D[a, b] + 1 decides every class pair.  It reads
    like the quotient's `adj`; every twin class of size > 1 is a clique of it.
    """
    quotient = graph.quotient
    dist = quotient.dist
    k = len(quotient.sizes)
    nbrs = quotient.adj.astype(np.float32)
    np.fill_diagonal(nbrs, 0.0)
    farther = np.zeros((k, k), dtype=bool)
    for t in range(1, int(dist.max(initial=0)) + 1):
        level = dist == t - 1
        farther[level] = (nbrs @ (dist >= t).astype(np.float32) > 0)[level]
    md = ~farther
    return md & md.T


def max_independent_set(graph: Graph) -> tuple[int, ...]:
    """Exact maximum independent set by branch and bound on bitsets.

    Runs the classic clique search on the complement with a greedy-coloring
    bound; vertex order is fixed so the witness is reproducible.
    """
    n = graph.n
    if n > SEARCH_CAP:
        raise MetricSearchError(f"independent-set search capped at {SEARCH_CAP} vertices, got {n}")
    if n == 0:
        return ()
    full = (1 << n) - 1
    comp = []
    for i, row in enumerate(graph.adj.tolist()):
        bits = 0
        for j, adjacent in enumerate(row):
            if i != j and not adjacent:
                bits |= 1 << j
        comp.append(bits)

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


def min_vertex_cover(graph: Graph) -> tuple[int, tuple[int, ...]]:
    """Exact vertex cover number with a witness (complement of a maximum independent set).

    A closed twin class is a clique with one shared neighbourhood, so an
    independent set holds at most one of its members and any one will do.  The
    search runs on the subgraph that keeps the first member of each closed
    class; `SEARCH_CAP` bounds that subgraph, not the graph.
    """
    quotient = graph.quotient
    keep = sorted(
        v
        for members, closed in zip(quotient.members, quotient.closed)
        for v in (members[:1] if closed else members)
    )
    collapsed = Graph(graph.adj[np.ix_(keep, keep)])
    independent = {keep[v] for v in max_independent_set(collapsed)}
    cover = tuple(v for v in range(graph.n) if v not in independent)
    return len(cover), cover


def strong_cover(quotient: TwinQuotient, gsr: np.ndarray) -> tuple[int, tuple[int, ...]]:
    """Minimum vertex cover of the strong resolving graph given by its class matrix `gsr`.

    Twins are mutually maximally distant, so each twin class is a clique and
    a module of that graph: an independent set holds at most one member of a
    class, and any one will do.  So the independent classes are those of the
    k-vertex class graph, diagonal cleared, and the cover is every vertex but
    the first member of each: n minus its independence number.
    """
    _, class_cover = min_vertex_cover(Graph(gsr & ~np.eye(len(gsr), dtype=bool)))
    independent = set(range(len(gsr))) - set(class_cover)
    kept = [quotient.members[a][0] for a in independent]
    cover = np.delete(np.arange(len(quotient.class_of)), kept)
    return len(cover), tuple(cover.tolist())
