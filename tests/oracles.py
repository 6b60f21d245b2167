"""Slow reference implementations the library routines are checked against, and small named graphs."""

import io
import itertools
import random
from dataclasses import dataclass
from functools import cached_property, lru_cache
from typing import NamedTuple

import numpy as np

from powergraph.graphs import _TYPE_ADJACENCY, CLASS_TYPES, Graph, TwinQuotient, _twins
from powergraph.groups import IDENTITY, GroupElement, GroupParams, ParameterError, multiply
from powergraph.matrices import DisconnectedGraphError, check_alpha
from powergraph.metric import mmd_graph, resolve_check, strong_cover, twin_lower_bound
from powergraph.spectra import (
    _class_entries,
    a_alpha_families,
    a_alpha_quotient_matrix,
    rd_alpha_families,
    rd_alpha_quotient_matrix,
    sym_eigenvalues,
)


# small graphs ------------------------------------------------------------


def labelled(adj, labels: list | None) -> Graph:
    """`Graph(adj)` whose vertex labels are `labels` (one per vertex), when given."""
    graph = Graph(adj)
    if labels is not None:
        if len(labels) != graph.n:
            raise ValueError("label count does not match vertex count")
        graph.labels = list(labels)
    return graph


def edge_count(graph: Graph) -> int:
    """The number of edges, read off the adjacency."""
    return int(graph.adj.sum()) // 2


def from_edges(n: int, edges, labels: list | None = None) -> Graph:
    """The graph on vertices 0 .. n-1 with the given (i, j) edges."""
    adj = np.zeros((n, n), dtype=bool)
    for i, j in edges:
        adj[i, j] = adj[j, i] = True
    return labelled(adj, labels)


def path_graph(n: int) -> Graph:
    return from_edges(n, [(i, i + 1) for i in range(n - 1)])


def cycle_graph(n: int) -> Graph:
    closing = [(n - 1, 0)] if n > 2 else []
    return from_edges(n, [(i, i + 1) for i in range(n - 1)] + closing)


def complete_graph(n: int) -> Graph:
    return Graph(~np.eye(n, dtype=bool))


def star_graph(leaves: int) -> Graph:
    return from_edges(leaves + 1, [(0, i) for i in range(1, leaves + 1)])


def alternating_threshold_graph(n: int) -> Graph:
    """Vertex v joins every earlier vertex when v is odd and none when v is even.

    Each round of twin reduction merges one pair only, so the n - 2 inner
    nodes of its cotree lie on one root path.
    """
    adj = np.zeros((n, n), dtype=bool)
    for v in range(1, n, 2):
        adj[v, :v] = adj[:v, v] = True
    return Graph(adj)


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


def cyclic_subgroup(a: GroupElement, params: GroupParams) -> frozenset[GroupElement]:
    """All powers {a^t : t >= 0}, one `multiply` at a time; its size is the order of a."""
    seen = {IDENTITY}
    current = a
    while current != IDENTITY:
        seen.add(current)
        current = multiply(current, a, params)
    return frozenset(seen)


def family_vertex_order(params: GroupParams) -> list[GroupElement]:
    """The family vertex order as `GroupElement`s: rotations, then s r^even, then s r^odd."""
    n = params.rotation_order
    rotations = [GroupElement(0, i) for i in range(n)]
    involutions = [GroupElement(1, i) for i in range(0, n, 2)]
    order4 = [GroupElement(1, i) for i in range(1, n, 2)]
    return rotations + involutions + order4


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
    return labelled(adj, verts)


@dataclass(frozen=True)
class PartitionClasses:
    """Index sets of the four vertex classes, plus the special vertices e and u."""

    h0: frozenset[int]
    h1: frozenset[int]
    h2: frozenset[int]
    h3: frozenset[int]
    e: int
    u: int

    def named(self) -> dict[str, frozenset[int]]:
        """Vertex sets by class name: e, u, h1, h2, h3."""
        singles = {"e": frozenset((self.e,)), "u": frozenset((self.u,))}
        return {**singles, "h1": self.h1, "h2": self.h2, "h3": self.h3}


def classify_partition(graph: Graph, params: GroupParams) -> PartitionClasses:
    """Split the vertices by label into {e, u} / other rotations / involutions / order-4 elements."""
    n = params.rotation_order
    half = n // 2
    h0, h1, h2, h3 = set(), set(), set(), set()
    e_idx = u_idx = -1
    for idx, label in enumerate(graph.labels):
        assert isinstance(label, GroupElement), "graph is not labeled by group elements"
        if label.eps == 0:
            if label.i == 0:
                h0.add(idx)
                e_idx = idx
            elif label.i == half:
                h0.add(idx)
                u_idx = idx
            else:
                h1.add(idx)
        else:
            (h2 if label.i % 2 == 0 else h3).add(idx)
    sizes = (len(h0), len(h1), len(h2), len(h3))
    assert sizes == (2, n - 2, half, half) and e_idx >= 0 and u_idx >= 0, sizes
    return PartitionClasses(
        frozenset(h0), frozenset(h1), frozenset(h2), frozenset(h3), e_idx, u_idx
    )


def predicted_quotient_from_labels(
    labels: list[GroupElement], params: GroupParams
) -> tuple[TwinQuotient, np.ndarray]:
    """`graphs.predicted_quotient` by one pass over the `GroupElement` labels, keyed in a dict."""
    half = params.rotation_order // 2
    classes: dict[tuple[int, int], list[int]] = {}  # (type, blade) -> members
    for v, g in enumerate(labels):
        if g.eps == 0:
            key = (0 if g.i == 0 else 1 if g.i == half else 2, 0)
        else:
            key = (3, 0) if g.i % 2 == 0 else (4, g.i % half)
        classes.setdefault(key, []).append(v)
    typed = sorted((members, t) for (t, _), members in classes.items())
    types = np.array([t for _, t in typed])
    pairs = [(members, CLASS_TYPES[t] in ("h1", "h3")) for members, t in typed]
    return TwinQuotient(pairs, _TYPE_ADJACENCY[np.ix_(types, types)]), types


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


# twin classes -------------------------------------------------------------


def twins_by_row_bytes(adj: np.ndarray, labels: list | None = None) -> list[tuple[list[int], bool]]:
    """`graphs._twins` keyed by each whole adjacency row's bytes, one vertex at a time.

    Every row is copied, its diagonal entry set to False for the open key and
    to True for the closed one, and grouped with its label in a dict.
    """
    labels = [None] * len(adj) if labels is None else list(labels)
    open_groups: dict[tuple, list[int]] = {}
    closed_groups: dict[tuple, list[int]] = {}
    for v, label in enumerate(labels):
        row = adj[v].copy()
        for own, groups in ((False, open_groups), (True, closed_groups)):
            row[v] = own
            groups.setdefault((label, row.tobytes()), []).append(v)
    classes = [(members, False) for members in open_groups.values() if len(members) > 1]
    classes += [(members, True) for members in closed_groups.values() if len(members) > 1]
    placed = {v for members, _ in classes for v in members}
    classes += [([v], False) for v in range(len(labels)) if v not in placed]
    classes.sort(key=lambda c: c[0][0])
    return classes


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
    return labelled(adj, graph.labels)


def strong_metric_dimension(graph: Graph) -> int:
    """Vertex cover number of the strong resolving graph, by the library's class-level cover."""
    return strong_cover(graph.quotient, mmd_graph(graph))[0]


def exhaustive_metric_dimension(graph: Graph) -> int:
    """The metric dimension by trying every vertex subset, smallest first; exponential in n.

    Only subsets that keep all but one vertex of every twin class are tried:
    two left-out twins are never resolved.
    """
    classes = [members for members in graph.quotient.members if len(members) > 1]
    for size in range(max(twin_lower_bound(graph), 1), graph.n + 1):
        for combo in itertools.combinations(range(graph.n), size):
            chosen = set(combo)
            if any(len(chosen.intersection(members)) < len(members) - 1 for members in classes):
                continue
            if resolve_check(graph, combo):
                return size
    return graph.n


def resolve_check_unique(graph: Graph, subset) -> bool:
    """Whether the distance vectors to `subset` are pairwise distinct, by sorting the rows."""
    cols = sorted(subset)
    if not cols:
        return graph.n <= 1
    return len(np.unique(bfs_distance_matrix(graph)[:, cols], axis=0)) == graph.n


def dds_rows_bincount(graph: Graph) -> tuple[tuple[int, ...], ...]:
    """Distance degree sequence rows: the count of each distance in every row of the BFS distances."""
    return tuple(tuple(np.bincount(row).tolist()) for row in bfs_distance_matrix(graph))


def vertex_rows(table) -> tuple[tuple[int, ...], ...]:
    """A degree-sequence table's row of each vertex, `class_rows[class_of[v]]`."""
    return tuple(table.class_rows[a] for a in table.class_of)


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


# cographs ----------------------------------------------------------------


def has_induced_p4(graph: Graph) -> bool:
    """Whether some 4 vertices induce a path, the one obstruction to a cograph; O(n^4)."""
    for quad in itertools.combinations(range(graph.n), 4):
        degrees = sorted(graph.adj[np.ix_(quad, quad)].sum(axis=1).tolist())
        if degrees == [1, 1, 2, 2]:  # 3 edges with this degree sequence: a P4
            return True
    return False


def cotree_adjacency(quotient, cotree=None) -> np.ndarray:
    """The n x n adjacency that `cotree` (default `quotient.cotree`) describes, expanded node by node."""
    n = len(quotient.class_of)
    adj = np.zeros((n, n), dtype=bool)
    under = [list(members) for members in quotient.members]
    for a, members in enumerate(under):
        adj[np.ix_(members, members)] = quotient.adj[a, a]
    for join, left, right in quotient.cotree if cotree is None else cotree:
        adj[np.ix_(under[left], under[right])] = adj[np.ix_(under[right], under[left])] = join
        under.append(under[left] + under[right])
    np.fill_diagonal(adj, False)
    return adj


def class_level_cotree(quotient) -> tuple[tuple[bool, int, int], ...] | None:
    """`TwinQuotient.cotree` by repeated twin reduction of the whole class graph, one `_twins` pass a round.

    In each round a class of open twins becomes a union and a class of
    closed twins a join, as a balanced binary tree over its members; the
    reduced graph is the quotient on one representative each.  A round that
    merges nothing before one node is left means the graph is not a cograph.
    """
    k = len(quotient.sizes)
    nodes = list(range(k))
    adj = quotient.adj & ~np.eye(k, dtype=bool)
    inner: list[tuple[bool, int, int]] = []
    while len(nodes) > 1:
        classes = _twins(adj)
        if len(classes) == len(nodes):
            return None
        merged = []
        for members, closed in classes:
            level = [nodes[m] for m in members]
            while len(level) > 1:
                paired = []
                for left, right in zip(level[::2], level[1::2]):
                    inner.append((closed, left, right))
                    paired.append(k + len(inner) - 1)
                level = paired + level[2 * len(paired) :]
            merged.append(level[0])
        reps = [members[0] for members, _ in classes]
        adj = adj[np.ix_(reps, reps)]
        nodes = merged
    return tuple(inner)


def with_cotree(quotient, cotree) -> TwinQuotient:
    """A copy of `quotient` whose `cotree` is the given one."""
    copy = TwinQuotient(list(zip(quotient.members, quotient.closed)), quotient.adj)
    copy.__dict__["cotree"] = cotree
    return copy


# detour ------------------------------------------------------------------


def by_target_orbits(quotient, column) -> np.ndarray:
    """The class matrix from one search per orbit of target classes and group of sources.

    `column(target, sources)` is a search's column (`_orbit_column`, or
    `detour._cotree_longest` once per source).  For each orbit the target is
    its first class, and one source is searched in each orbit of the
    automorphisms that fix the target (the orbits with the target taken out,
    the target a group of its own; 0 for a singleton target's own group).
    The other columns of the orbit are the target's under the transposition
    of the two classes, filled one by one from swap lists.
    """
    k = len(quotient.sizes)
    orbits = quotient.orbits
    value = np.zeros((k, k), dtype=np.int64)
    for orbit in orbits:
        target = orbit[0]
        groups = [[target]] + [o for o in ([c for c in orb if c != target] for orb in orbits) if o]
        if quotient.sizes[target] > 1:
            lengths = column(target, [members[0] for members in groups])
        else:
            lengths = [0] + column(target, [members[0] for members in groups[1:]])
        for members, length in zip(groups, lengths):
            value[members, target] = length
        for other in orbit[1:]:
            swap = list(range(k))
            swap[target], swap[other] = other, target
            value[:, other] = value[swap, target]
    return value


def orbit_search(quotient) -> np.ndarray:
    """The class matrix of any graph by the orbit state search; -1 marks a pair with no path.

    The cotree search's oracle, exponential in the number of orbits; it has
    no time budget.

    A path is determined up to automorphism by its sequence of twin classes, so
    this search runs over (current class, remaining count per class) states
    instead of individual vertices.  The longest way on from a state depends on
    the target class alone, so the states of one target's search are memoised
    once and shared by every source.  The groups are the orbits with the target
    taken out, and the target a group of its own; every permutation of a group
    fixes the target and maps a state to one with the same longest way on.  A
    state is memoised as (group of the current class, the current class's own
    remaining count, one slot per group): a singleton group's slot is its
    remaining count, a larger group's slot is the histogram of how many of its
    classes other than the current one have 0, 1, ..., s vertices left (all
    classes of an orbit have the same size s).  Two (class, remaining count per
    class) states have the same histogram state exactly when permutations inside
    the groups map one onto the other, so this is the canonical state under
    those automorphisms (the current class first in its group, the other counts
    sorted), kept without sorting anything.

    Interchangeable classes agree on every other class, and two classes of one
    orbit are all adjacent or all not, so adjacency is a function of the groups.
    A step onto a larger group takes one class with a given count, once per
    distinct count present; leaving a class returns its count to its group's
    histogram.  Each such step reaches exactly the states the per-class steps
    reach up to automorphism.  Nothing is pruned on a dominance argument, so the
    result stays exact.  The states are walked with an explicit stack, not
    recursion, so no path is too long for the search.
    """
    return by_target_orbits(quotient, _orbit_column(quotient))


def _orbit_column(quotient):
    """`column(target, sources)` of the orbit state search, one memo per call and target."""
    adj, sizes, orbits = quotient.adj, quotient.sizes, quotient.orbits

    def column(target: int, sources: list[int]) -> list[int]:
        # the orbits of the automorphisms that fix the target, the target first
        groups = [[target]] + [o for o in ([c for c in orb if c != target] for orb in orbits) if o]
        group_of = {c: g for g, members in enumerate(groups) for c in members}
        reps = [members[0] for members in groups]
        single = [len(members) == 1 for members in groups]
        size = [sizes[r] for r in reps]
        base = [0] * len(groups)  # where each group's slot starts in the flat state
        start: list[int] = []
        for g, members in enumerate(groups):
            base[g] = len(start)
            start += [size[g]] if single[g] else [0] * size[g] + [len(members)]
        ends = [bool(adj[r, target]) for r in reps]
        # a step inside the current class keeps a larger group's state as it is
        loops = [bool(adj[r, r]) and not single[g] for g, r in enumerate(reps)]
        # every other step, as (group entered, slot taken from, count the entered class
        # keeps or None for a singleton, whose slot is that count); members[-1] is a
        # class other than r in r's own larger group, and r itself in a singleton
        moves: list[list[tuple[int, int, int | None]]] = []
        for r in reps:
            out = []
            for h, members in enumerate(groups):
                if not adj[r, members[-1]]:
                    continue
                if single[h]:
                    out.append((h, base[h], None))
                else:
                    out += [(h, base[h] + count, count - 1) for count in range(1, size[h] + 1)]
            moves.append(out)

        memo: dict[tuple, int] = {}

        def frame(key: tuple[int, int, tuple[int, ...]]) -> list:
            """[key, successors still to read, longest path to the target so far or -1].

            In a key (g, own, state) the current class is in group `g` with `own`
            unvisited intermediate vertices; `state` holds a slot per group, a
            singleton's remaining count or a larger group's histogram of counts.
            """
            g, own, state = key
            nexts = [(g, own - 1, state)] if own and loops[g] else []
            left = list(state)
            if not single[g]:
                left[base[g] + own] += 1  # the class the path leaves rejoins its group
            for h, slot, keeps in moves[g]:
                if state[slot]:  # one step per distinct count left in a larger group
                    counts = left.copy()
                    counts[slot] -= 1
                    nexts.append((h, counts[slot] if keeps is None else keeps, tuple(counts)))
            return [key, nexts, 1 if ends[g] else -1]

        # endpoints leave their classes
        start[0] -= 1
        lengths = []
        for g in map(group_of.__getitem__, sources):
            counts = start.copy()
            at = base[g] if single[g] else base[g] + size[g]
            counts[at] -= 1
            own = counts[at] if single[g] else size[g] - 1
            # a frame waits while a successor not memoised yet is searched, then takes its
            # length; a step visits one more vertex, so no state is ever on the stack twice
            root = (g, own, tuple(counts))
            stack = [frame(root)]
            while stack:
                top = stack[-1]
                while top[1]:
                    rest = memo.get(nxt := top[1].pop())
                    if rest is None:
                        stack.append(frame(nxt))
                        break
                    if rest >= 0 and rest + 1 > top[2]:
                        top[2] = rest + 1
                else:
                    key, _, length = stack.pop()
                    memo[key] = length
                    if stack and length >= 0 and length + 1 > stack[-1][2]:
                        stack[-1][2] = length + 1
            lengths.append(memo[root])
        return lengths

    return column


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


def random_cographs(seed: int, count: int, min_n: int, max_n: int, split: float = 1.0):
    """Seeded corpus of `count` connected cographs on min_n .. max_n vertices, from random cotrees.

    The root joins 2 .. 4 parts of random sizes.  A part of two or more
    vertices is, with probability `split`, the union (under a join) or the
    join (under a union) of 2 .. 4 parts of its own, and otherwise one twin
    class: a clique under a join, independent vertices under a union.  The
    vertex ids are shuffled at the end.
    """
    rng = np.random.default_rng(seed)
    for _ in range(count):
        n = int(rng.integers(min_n, max_n + 1))
        adj = np.zeros((n, n), dtype=bool)
        parts = [(0, n, True)]
        while parts:
            lo, hi, join = parts.pop()
            adj[lo:hi, lo:hi] = join  # between the parts; each part redraws its own block
            cuts = rng.choice(np.arange(lo + 1, hi), size=min(int(rng.integers(1, 4)), hi - lo - 1), replace=False)
            bounds = [lo, *sorted(cuts.tolist()), hi]
            parts += [(a, b, not join) for a, b in zip(bounds, bounds[1:]) if b - a > 1 and rng.random() < split]
        np.fill_diagonal(adj, False)
        order = rng.permutation(n)
        yield Graph(adj[np.ix_(order, order)])


# spectra and renderings -----------------------------------------------------


def dense_quotient_roots(graph: Graph, kind: str, alpha: float) -> np.ndarray:
    """The k eigenvalues of the graph's symmetrised k x k twin quotient, descending.

    sqrt(s_a s_b) (1 - alpha) between[a, b] off the diagonal and alpha
    diagonal[a] + (s_a - 1) (1 - alpha) within[a] on it, solved whole: what
    `spectra.solve_quotient` reduces once more on the quotient's orbits.
    """
    diagonal, within, between = _class_entries(graph, kind)
    alpha = check_alpha(alpha)
    sizes = np.array(graph.quotient.sizes, dtype=np.float64)
    root = np.sqrt(sizes)
    matrix = (1.0 - alpha) * between * np.outer(root, root)
    np.fill_diagonal(matrix, alpha * diagonal + (sizes - 1.0) * (1.0 - alpha) * within)
    return sym_eigenvalues(matrix)


def cluster_values_loop(values: np.ndarray, tol: float) -> list[tuple[float, int]]:
    """`cluster_values` one value at a time: a new cluster after each gap > tol."""
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


def graph_json_dict(graph: Graph) -> dict:
    """A graph's JSON payload built whole: n, the labels as strings and the sorted edge list."""
    return {
        "n": graph.n,
        "labels": [str(label) for label in graph.labels],
        "edges": [[i, j] for i, j in graph.edges()],
    }


def build_payload(graph: Graph, params: GroupParams) -> dict:
    """The CLI's `graph.json` payload of a family graph built whole, partition from the labels."""
    classes = classify_partition(graph, params)
    partition = {name: sorted(members) for name, members in classes.named().items()}
    partition.update(e=classes.e, u=classes.u)
    elements = [[label.eps, label.i] for label in graph.labels]
    return {**graph_json_dict(graph), "elements": elements, "partition": partition}


def metric_payload(inst) -> dict:
    """The CLI's `metric.json` payload built whole, with the MMD graph lifted to n x n."""
    psi_report = inst.resolving
    cover_size, cover = inst.cover
    return {
        "psi": {
            "bound": psi_report.lower_bound,
            "witness": list(psi_report.witness),
            "certified": psi_report.resolved,
            "value": psi_report.psi,
        },
        "sdim": {"value": cover_size, "cover_witness": list(cover)},
        "gsr_edges": [[i, j] for i, j in Graph(inst.graph.quotient.lift(inst.gsr)).edges()],
    }


# per-alpha spectra: the oracle of the spectrum sweeps ------------------------


class SpectralLine(NamedTuple):
    value: float
    multiplicity: int
    source: str


@dataclass(frozen=True)
class Spectrum:
    """Multiset of eigenvalues with multiplicities and provenance tags, at one alpha."""

    lines: tuple[SpectralLine, ...]

    def values(self) -> np.ndarray:
        """Expanded value list, sorted descending; built once and read-only."""
        return self._values

    @cached_property
    def _values(self) -> np.ndarray:
        # a stable ascending sort of the negated values: equal values, 0.0 and -0.0
        # among them, keep their line order, as a stable descending sort keeps it
        expanded = np.repeat(
            np.array([line.value for line in self.lines], dtype=np.float64),
            [line.multiplicity for line in self.lines],
        )
        values = -np.sort(-expanded, kind="stable")
        values.flags.writeable = False
        return values

    def merged(self, tol: float) -> list[tuple[float, int]]:
        """(value, multiplicity) clusters after merging values closer than tol."""
        return cluster_values(self.values(), tol)

    @classmethod
    def from_lines(cls, lines: list[tuple[float, int, str]]) -> "Spectrum":
        kept = tuple(SpectralLine(float(v), int(m), s) for v, m, s in lines if m > 0)
        return cls(tuple(sorted(kept, key=lambda ln: -ln.value)))


def cluster_values(values: np.ndarray, tol: float) -> list[tuple[float, int]]:
    """Group a descending value list into clusters separated by gaps > tol: (mean, size) each.

    A one-value run is its own mean and a longer run takes `sum() / size` of
    its slice, the pairwise sum and division that `ndarray.mean` makes.
    """
    values = np.sort(np.asarray(values, dtype=np.float64))[::-1]
    if not values.size:
        return []
    bounds = [0, *(np.flatnonzero(values[:-1] - values[1:] > tol) + 1).tolist(), values.size]
    clusters = []
    for start, stop in zip(bounds, bounds[1:]):
        size = stop - start
        mean = values[start:stop].sum() / size if size > 1 else values[start]
        clusters.append((float(mean), size))
    return clusters


def multisets_agree(a: list[tuple[float, int]], b: list[tuple[float, int]], value_tol: float) -> bool:
    if len(a) != len(b):
        return False
    return all(abs(va - vb) <= value_tol and ma == mb for (va, ma), (vb, mb) in zip(a, b))


def quotient_spectrum_oracle(graph: Graph, kind: str, alpha: float) -> Spectrum:
    """The graph's A_alpha or RD_alpha spectrum at one alpha, lines as `Spectrum.from_lines` sorts them.

    Twin lines per class, merged by (value, tag) in a dict; a line per orbit
    of c >= 2 classes; the roots of the m x m orbit quotient, one matrix solved
    alone.  Each entry is the one `spectra.solve_quotient` computes.
    """
    a = np.array([[check_alpha(alpha)]])
    b = 1.0 - a
    diagonal, within, between = _class_entries(graph, kind)
    quotient = graph.quotient
    twins = [c for c, size in enumerate(quotient.sizes) if size > 1]
    merged: dict[tuple[float, str], int] = {}
    values = (a * diagonal[twins] - (1.0 - a) * within[twins])[0].tolist()
    for c, value in zip(twins, values):
        key = (value, "twin-closed" if quotient.closed[c] else "twin-open")
        merged[key] = merged.get(key, 0) + quotient.sizes[c] - 1
    lines = [(v, m, s) for (v, s), m in merged.items()]
    reps = [orbit[0] for orbit in quotient.orbits]
    mates = [orbit[-1] for orbit in quotient.orbits]
    copies = np.array([len(orbit) for orbit in quotient.orbits], dtype=np.float64)
    sizes = np.array(quotient.sizes, dtype=np.float64)[reps]
    own = a * diagonal[reps] + (sizes - 1.0) * (b * within[reps])
    mate = sizes * (b * between[reps, mates])
    weight = np.sqrt(copies * sizes)
    matrices = b[:, :, None] * between[np.ix_(reps, reps)] * np.outer(weight, weight)
    diag = np.arange(len(reps))
    matrices[:, diag, diag] = own + (copies - 1.0) * mate
    lines += [(v, len(o) - 1, "orbit") for v, o in zip((own - mate)[0].tolist(), quotient.orbits)]
    lines += [(v, 1, "quotient-root") for v in sym_eigenvalues(matrices[0]).tolist()]
    return Spectrum.from_lines(lines)


CLOSED_FORMS = {
    "adjacency": (a_alpha_families, a_alpha_quotient_matrix),
    "reciprocal": (rd_alpha_families, rd_alpha_quotient_matrix),
}


def closed_form_oracle(params: GroupParams, kind: str, alpha: float) -> Spectrum:
    """The family's predicted spectrum at one alpha: its families in floats and one 5 x 5 solve."""
    families, quotient_matrix = CLOSED_FORMS[kind]
    roots = sym_eigenvalues(quotient_matrix(params, (alpha,))[0]).tolist()
    lines = families(params, float(alpha)) + [(v, 1, "quotient-root") for v in roots]
    return Spectrum.from_lines(lines)


def twin_verdict_oracle(closed: Spectrum, numeric: Spectrum, tol: float) -> bool:
    """Each twin line of `numeric` meets as many closed values within max(tol, 1e-9) as it counts."""
    twins = [line for line in numeric.lines if line.source.startswith("twin")]
    gaps = np.abs(closed.values() - np.array([line.value for line in twins])[:, None])
    hits = np.count_nonzero(gaps <= max(tol, 1e-9), axis=1)
    return bool(np.all(hits >= [line.multiplicity for line in twins]))


def multiplicity_verdict_oracle(closed: np.ndarray, numeric: np.ndarray, tol: float) -> bool:
    """Both value lists cluster alike at the numeric list's cluster tolerance, means within it + tol."""
    radius = float(np.abs(numeric).max()) if numeric.size else 0.0
    ctol = 1e-6 * max(1.0, radius)
    return multisets_agree(cluster_values(closed, ctol), cluster_values(numeric, ctol), ctol + tol)
