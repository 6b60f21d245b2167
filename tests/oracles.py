"""Slow reference implementations the library routines are checked against, and small named graphs."""

import io
import itertools
import random
from functools import lru_cache

import numpy as np

from powergraph.graphs import Graph, family_vertex_order
from powergraph.groups import IDENTITY, GroupElement, GroupParams, ParameterError, multiply
from powergraph.matrices import DisconnectedGraphError
from powergraph.spectra import _class_entries, sym_eigenvalues


# small graphs ------------------------------------------------------------


def path_graph(n: int) -> Graph:
    return Graph.from_edges(n, [(i, i + 1) for i in range(n - 1)])


def cycle_graph(n: int) -> Graph:
    closing = [(n - 1, 0)] if n > 2 else []
    return Graph.from_edges(n, [(i, i + 1) for i in range(n - 1)] + closing)


def complete_graph(n: int) -> Graph:
    return Graph(~np.eye(n, dtype=bool))


def star_graph(leaves: int) -> Graph:
    return Graph.from_edges(leaves + 1, [(0, i) for i in range(1, leaves + 1)])


def is_connected(graph: Graph) -> bool:
    """Whether a search from vertex 0 reaches every vertex (true for no vertices)."""
    seen = {0} if graph.n else set()
    stack = list(seen)
    while stack:
        for w in np.nonzero(graph.adj[stack.pop()])[0].tolist():
            if w not in seen:
                seen.add(w)
                stack.append(w)
    return len(seen) == graph.n


# group and power graph -----------------------------------------------------


def elements(params: GroupParams) -> list[GroupElement]:
    """All 2^(k+1) p elements: rotations first, then the reflections."""
    n = params.rotation_order
    return [GroupElement(eps, i) for eps in (0, 1) for i in range(n)]


class CayleyTable:
    """Independent multiplication oracle built by stepwise word rewriting.

    Products are computed on token lists over {s, r} by repeatedly applying
    the rewriting rules r s -> s r^m, s s -> (empty), r^(2^k p) -> (empty),
    never through the closed-form multiply().  The constructor checks the
    Latin-square property; `verify` adds identity, inverses, associativity
    and agreement with multiply().
    """

    def __init__(self, params: GroupParams, max_order: int = 120):
        if params.order > max_order:
            raise ParameterError(
                f"group order {params.order} exceeds the Cayley oracle cap {max_order}"
            )
        self.params = params
        self.elements = elements(params)
        self.index = {g: idx for idx, g in enumerate(self.elements)}
        n = len(self.elements)
        self.table = [
            [self.index[self._reduce_word(a, b)] for b in self.elements]
            for a in self.elements
        ]
        for row in self.table:
            if len(set(row)) != n:
                raise AssertionError("Cayley table row is not a permutation")
        for col in range(n):
            if len({self.table[r][col] for r in range(n)}) != n:
                raise AssertionError("Cayley table column is not a permutation")

    def _reduce_word(self, a: GroupElement, b: GroupElement) -> GroupElement:
        n = self.params.rotation_order
        m = self.params.multiplier
        word = ["s"] * a.eps + ["r"] * a.i + ["s"] * b.eps + ["r"] * b.i
        changed = True
        while changed:
            changed = False
            # push every s to the front one swap at a time: r s -> s r^m
            for pos in range(len(word) - 1):
                if word[pos] == "r" and word[pos + 1] == "s":
                    word[pos : pos + 2] = ["s"] + ["r"] * m
                    changed = True
                    break
            if changed:
                continue
            # collapse s^2 and r^(2^k p)
            s_count = sum(1 for c in word if c == "s")
            r_count = len(word) - s_count
            if s_count >= 2 or r_count >= n:
                word = ["s"] * (s_count % 2) + ["r"] * (r_count % n)
                changed = True
        s_count = sum(1 for c in word if c == "s")
        return GroupElement(s_count, len(word) - s_count)

    def mul(self, a: GroupElement, b: GroupElement) -> GroupElement:
        return self.elements[self.table[self.index[a]][self.index[b]]]

    def verify(
        self, assoc_samples: int = 10_000, seed: int = 0, exhaustive_limit: int = 48
    ) -> None:
        """Check group axioms and agreement with the closed-form product.

        Associativity is checked on all n^3 triples for n <= exhaustive_limit
        and on `assoc_samples` seeded random triples above that.
        """
        n = len(self.elements)
        e_idx = self.index[IDENTITY]
        for g in range(n):
            if self.table[e_idx][g] != g or self.table[g][e_idx] != g:
                raise AssertionError("identity fails in Cayley table")
        for g in range(n):
            if e_idx not in self.table[g]:
                raise AssertionError("missing inverse in Cayley table")
        if n <= exhaustive_limit:
            triples = itertools.product(range(n), repeat=3)
        else:
            rng = random.Random(seed)
            triples = (
                (rng.randrange(n), rng.randrange(n), rng.randrange(n))
                for _ in range(assoc_samples)
            )
        for x, y, z in triples:
            if self.table[self.table[x][y]][z] != self.table[x][self.table[y][z]]:
                raise AssertionError("associativity fails in Cayley table")
        for a in self.elements:
            for b in self.elements:
                if self.mul(a, b) != multiply(a, b, self.params):
                    raise AssertionError(
                        f"Cayley oracle disagrees with multiply on {a} * {b}"
                    )


def build_power_graph_from_table(table) -> Graph:
    """The family power graph built from a Cayley-table oracle's products instead of `multiply`."""
    verts = family_vertex_order(table.params)
    index = {g: idx for idx, g in enumerate(verts)}
    adj = np.zeros((len(verts), len(verts)), dtype=bool)
    for g in verts:
        members, current = [index[IDENTITY]], g
        while current != IDENTITY:
            members.append(index[current])
            current = table.mul(current, g)
        adj[np.ix_(members, members)] = True
    np.fill_diagonal(adj, False)
    return Graph(adj, labels=verts)


def verify_decomposition(
    graph: Graph, classes, params: GroupParams
) -> tuple[list[tuple[int, int]], list[tuple[int, int]]]:
    """(missing edges, extra edges) against clique(<r>) + pendant edges + K4 blades.

    The reference for the report's class-level structure check: it builds
    the expected n x n adjacency from the labels.  The three pieces share the
    vertices e and u, so the union is taken over edge sets.  The blades pair
    s r^(2j+1) with s r^(2j+1 + 2^(k-1)p).
    """
    half = params.rotation_order // 2
    expected = np.zeros((graph.n, graph.n), dtype=bool)
    position = {(label.eps, label.i): idx for idx, label in enumerate(graph.labels)}
    rot = sorted(classes.h0 | classes.h1)
    expected[np.ix_(rot, rot)] = True
    pendant = sorted(classes.h2)
    expected[classes.e, pendant] = expected[pendant, classes.e] = True
    blades = np.array(
        [
            [classes.e, classes.u, position[(1, exp)], position[(1, exp + half)]]
            for exp in range(1, half, 2)
        ],
        dtype=np.int64,
    ).reshape(-1, 4)
    expected[blades[:, :, None], blades[:, None, :]] = True
    np.fill_diagonal(expected, False)
    missing = np.triu(expected & ~graph.adj)
    extra = np.triu(graph.adj & ~expected)
    missing_edges = sorted(zip(*(idx.tolist() for idx in np.nonzero(missing))))
    extra_edges = sorted(zip(*(idx.tolist() for idx in np.nonzero(extra))))
    return missing_edges, extra_edges


# distances and the strong resolving graph ---------------------------------


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
    dist = bfs_distance_matrix(graph)
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


def resolve_check_unique(graph: Graph, subset) -> bool:
    """Whether the distance vectors to `subset` are pairwise distinct, by sorting the rows."""
    cols = sorted(subset)
    if not cols:
        return graph.n <= 1
    return len(np.unique(bfs_distance_matrix(graph)[:, cols], axis=0)) == graph.n


def dds_rows_bincount(graph: Graph) -> tuple[tuple[int, ...], ...]:
    """Distance degree sequence rows: the count of each distance in every row of the BFS distances."""
    return tuple(tuple(np.bincount(row).tolist()) for row in bfs_distance_matrix(graph))


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


# detour ------------------------------------------------------------------


def naive_detour(graph: Graph) -> np.ndarray:
    """Longest simple paths over every vertex set; exponential in n, for tiny oracles only.

    `starts[mask][v]` is the set (a bitmask) of vertices s with a simple path
    from s to v through exactly the vertices of `mask`.  Masks only grow, so
    in increasing order each one is complete before it is extended.
    Unreachable pairs read 0.
    """
    n = graph.n
    nbr = [sum(1 << int(w) for w in np.nonzero(graph.adj[v])[0]) for v in range(n)]
    starts = [[0] * n for _ in range(1 << n)]
    for v in range(n):
        starts[1 << v][v] = 1 << v
    reached = [[0] * n for _ in range(n)]  # reached[length][v]: starts of a path that long to v
    for mask in range(1, 1 << n):
        length = mask.bit_count() - 1
        for v, sources in enumerate(starts[mask]):
            if sources:
                reached[length][v] |= sources
                free = nbr[v] & ~mask
                while free:
                    low = free & -free
                    free ^= low
                    starts[mask | low][low.bit_length() - 1] |= sources
    best = np.zeros((n, n), dtype=np.int64)
    for length in range(1, n):
        for v, sources in enumerate(reached[length]):
            while sources:
                low = sources & -sources
                sources ^= low
                best[low.bit_length() - 1, v] = length
    return best


def family_detour_matrix_loop(graph: Graph, classes, params: GroupParams) -> np.ndarray:
    """The predicted family detour matrix, one vertex pair at a time from the class-pair rules."""
    n = params.rotation_order
    half = n // 2
    kind = {v: name for name, members in classes.named().items() for v in members}
    pair_values = {
        frozenset(("e", "u")): n - 1,
        frozenset(("e", "h1")): n + 1,
        frozenset(("e", "h2")): 1,
        frozenset(("e", "h3")): n + 1,
        frozenset(("u", "h1")): n + 1,
        frozenset(("u", "h2")): n,
        frozenset(("u", "h3")): n + 1,
        frozenset(("h1",)): n + 1,
        frozenset(("h1", "h2")): n + 2,
        frozenset(("h1", "h3")): n + 3,
        frozenset(("h2",)): 2,
        frozenset(("h2", "h3")): n + 2,
    }
    out = np.zeros((graph.n, graph.n), dtype=np.int64)
    labels = graph.labels
    for i in range(graph.n):
        for j in range(i + 1, graph.n):
            ki, kj = kind[i], kind[j]
            if ki == "h3" and kj == "h3":
                partner = (labels[i].i + half) % n == labels[j].i
                value = n + 1 if partner else n + 3
            else:
                value = pair_values[frozenset((ki, kj))]
            out[i, j] = out[j, i] = value
    return out


def detour_matrix_unreduced(graph: Graph) -> np.ndarray:
    """Longest simple paths by a twin-class search with one memoised search per target class.

    States are (current class, remaining count per class), with no use of the
    quotient's own automorphisms; disconnected pairs are marked -1.
    """
    quotient = graph.quotient
    adj, sizes = quotient.adj, quotient.sizes
    k = len(sizes)
    value = np.zeros((k, k), dtype=np.int64)
    for target in range(k):

        @lru_cache(maxsize=None)
        def best(cls: int, remaining: tuple[int, ...]) -> int:
            top = 1 if adj[cls][target] else -1
            for nxt in range(k):
                if remaining[nxt] and adj[cls][nxt]:
                    rest = best(nxt, remaining[:nxt] + (remaining[nxt] - 1,) + remaining[nxt + 1 :])
                    if rest >= 0 and rest + 1 > top:
                        top = rest + 1
            return top

        for source in range(k):
            counts = list(sizes)
            counts[source] -= 1
            counts[target] -= 1
            if counts[source] >= 0:
                value[source, target] = best(source, tuple(counts))
    out = value[np.ix_(quotient.class_of, quotient.class_of)]
    np.fill_diagonal(out, 0)
    return out


def blown_up_graphs(seed: int, count: int, max_n: int = 9):
    """Seeded corpus of `count` connected graphs on at most `max_n` vertices with quotient symmetry.

    A random base graph on 2 .. 5 vertices gains twins of some of its
    vertices; then each base vertex becomes a clique or an independent set of
    1 .. 3 vertices, joined completely to the blocks of its base neighbours.
    Half the time every block has one shared size (2 or 3) and kind, so base
    twins become interchangeable twin classes.
    """
    rng = np.random.default_rng(seed)
    made = 0
    while made < count:
        base = int(rng.integers(2, 6))
        adj = np.triu(rng.random((base, base)) < rng.uniform(0.2, 0.8), 1)
        adj = adj | adj.T
        for _ in range(int(rng.integers(1, 4))):
            twin, v = int(rng.integers(0, len(adj))), len(adj)
            adj = np.pad(adj, ((0, 1), (0, 1)))
            adj[v, :v] = adj[:v, v] = adj[twin, :v]
            adj[v, twin] = adj[twin, v] = rng.random() < 0.5
        m = len(adj)
        if rng.random() < 0.5:
            sizes = [int(rng.integers(2, 4))] * m
            cliques = [bool(rng.random() < 0.5)] * m
        else:
            sizes = rng.integers(1, 4, size=m).tolist()
            cliques = (rng.random(m) < 0.5).tolist()
        if sum(sizes) > max_n:
            continue
        block = np.repeat(np.arange(m), sizes)
        big = adj[np.ix_(block, block)] | (
            (block[:, None] == block[None, :]) & np.array(cliques)[block][:, None]
        )
        np.fill_diagonal(big, False)
        graph = Graph(big)
        if is_connected(graph):
            made += 1
            yield graph


# spectra and renderings -----------------------------------------------------


def dense_quotient_roots(graph: Graph, kind: str, alpha: float) -> np.ndarray:
    """The k eigenvalues of the graph's symmetrised k x k twin quotient, descending.

    sqrt(s_a s_b) between[a, b] off the diagonal and diagonal[a] + (s_a - 1)
    within[a] on it, solved whole: what `spectra.solve_quotient` reduces once
    more on the quotient's orbits.
    """
    diagonal, within, between = _class_entries(graph, kind, alpha)
    sizes = np.array(graph.quotient.sizes, dtype=np.float64)
    root = np.sqrt(sizes)
    matrix = between * np.outer(root, root)
    np.fill_diagonal(matrix, diagonal + (sizes - 1.0) * within)
    return sym_eigenvalues(matrix)


def cluster_values_loop(values: np.ndarray, tol: float) -> list[tuple[float, int]]:
    """`spectra.cluster_values` one value at a time: a new cluster after each gap > tol."""
    values = np.sort(np.asarray(values, dtype=np.float64))[::-1]
    clusters: list[tuple[float, int]] = []
    start = 0
    for stop in range(1, len(values) + 1):
        if stop == len(values) or values[stop - 1] - values[stop] > tol:
            chunk = values[start:stop]
            clusters.append((float(chunk.mean()), len(chunk)))
            start = stop
    return clusters


def matrix_to_csv(matrix: np.ndarray) -> str:
    """One CSV line per row, each entry as `repr(float(x))`."""
    buf = io.StringIO()
    for row in matrix:
        buf.write(",".join(repr(float(x)) for x in row))
        buf.write("\n")
    return buf.getvalue()
