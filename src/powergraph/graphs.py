"""Power-graph construction, vertex-class partition, twins and the structure check.

Vertex order for the family graph is fixed so that matrices and spectra are
bit-for-bit reproducible: the identity first, then r^1 .. r^(2^k p - 1) by
exponent, then the involutions s r^(even) by exponent, then the order-4
elements s r^(odd) by exponent.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .groups import GroupElement, GroupParams, cyclic_subgroup, elements


class GraphFormatError(ValueError):
    """Malformed graph serialization."""


class ClassificationError(ValueError):
    """Graph is not labeled by elements of the expected group."""


class Graph:
    """Simple undirected graph with opaque or group-element vertex labels."""

    def __init__(self, n: int, labels: list | None = None):
        self.n = n
        self.labels = list(labels) if labels is not None else [str(i) for i in range(n)]
        if len(self.labels) != n:
            raise ValueError("label count does not match vertex count")
        self.adj = np.zeros((n, n), dtype=bool)

    def add_edge(self, i: int, j: int) -> None:
        if i == j:
            raise ValueError("self-loops are not allowed")
        self.adj[i, j] = True
        self.adj[j, i] = True

    def has_edge(self, i: int, j: int) -> bool:
        return bool(self.adj[i, j])

    def degree(self, i: int) -> int:
        return int(self.adj[i].sum())

    def degrees(self) -> np.ndarray:
        return self.adj.sum(axis=1).astype(np.int64)

    def edges(self) -> list[tuple[int, int]]:
        """Sorted edge list with i < j."""
        ii, jj = np.nonzero(np.triu(self.adj))
        return sorted(zip(ii.tolist(), jj.tolist()))

    def edge_count(self) -> int:
        return int(np.triu(self.adj).sum())

    def neighbors(self, i: int) -> list[int]:
        return np.nonzero(self.adj[i])[0].tolist()

    def is_connected(self) -> bool:
        if self.n == 0:
            return True
        seen = np.zeros(self.n, dtype=bool)
        stack = [0]
        seen[0] = True
        while stack:
            v = stack.pop()
            for w in np.nonzero(self.adj[v] & ~seen)[0]:
                seen[w] = True
                stack.append(int(w))
        return bool(seen.all())

    # serialization ----------------------------------------------------

    def to_edge_list(self) -> str:
        """Canonical text form: one "i j" line per edge, 0-based, i < j, sorted."""
        return "".join(f"{i} {j}\n" for i, j in self.edges())

    def to_json_dict(self) -> dict:
        return {
            "n": self.n,
            "labels": [str(label) for label in self.labels],
            "edges": [[i, j] for i, j in self.edges()],
        }

    @classmethod
    def from_edge_list(cls, text: str) -> "Graph":
        pairs = []
        max_vertex = -1
        for lineno, raw in enumerate(text.splitlines(), start=1):
            line = raw.strip()
            if not line or line.startswith("#"):
                continue
            parts = line.split()
            if len(parts) != 2:
                raise GraphFormatError(f"line {lineno}: expected two vertex ids, got {raw!r}")
            try:
                i, j = int(parts[0]), int(parts[1])
            except ValueError:
                raise GraphFormatError(f"line {lineno}: non-integer vertex id in {raw!r}") from None
            if i < 0 or j < 0:
                raise GraphFormatError(f"line {lineno}: negative vertex id in {raw!r}")
            if i == j:
                raise GraphFormatError(f"line {lineno}: self-loop {i}")
            pairs.append((i, j))
            max_vertex = max(max_vertex, i, j)
        g = cls(max_vertex + 1)
        for i, j in pairs:
            g.add_edge(i, j)
        return g

    @classmethod
    def from_json_dict(cls, data: dict) -> "Graph":
        try:
            n = int(data["n"])
            edges = data["edges"]
        except (KeyError, TypeError, ValueError) as exc:
            raise GraphFormatError(f"bad graph JSON: {exc}") from None
        g = cls(n, labels=data.get("labels"))
        for pair in edges:
            if len(pair) != 2:
                raise GraphFormatError(f"bad edge entry {pair!r}")
            g.add_edge(int(pair[0]), int(pair[1]))
        return g


# small constructors used by the oracle corpora ------------------------


def path_graph(n: int) -> Graph:
    g = Graph(n)
    for i in range(n - 1):
        g.add_edge(i, i + 1)
    return g


def cycle_graph(n: int) -> Graph:
    g = path_graph(n)
    if n > 2:
        g.add_edge(n - 1, 0)
    return g


def complete_graph(n: int) -> Graph:
    g = Graph(n)
    for i in range(n):
        for j in range(i + 1, n):
            g.add_edge(i, j)
    return g


def star_graph(leaves: int) -> Graph:
    g = Graph(leaves + 1)
    for i in range(1, leaves + 1):
        g.add_edge(0, i)
    return g


# power graph of the family --------------------------------------------


def family_vertex_order(params: GroupParams) -> list[GroupElement]:
    n = params.rotation_order
    rotations = [GroupElement(0, i) for i in range(n)]
    involutions = [GroupElement(1, i) for i in range(0, n, 2)]
    order4 = [GroupElement(1, i) for i in range(1, n, 2)]
    return rotations + involutions + order4


def build_power_graph(params: GroupParams) -> Graph:
    """Power graph of the group: vertices adjacent when they share a cyclic subgroup.

    Two distinct elements are joined whenever some cyclic subgroup contains
    both, i.e. each cyclic subgroup induces a clique.  On this family that
    puts a clique on <r>, a pendant edge e - s r^(2t) for every involution,
    and a K4 on {e, u, x, x^3} for every order-4 element x, which is exactly
    the structure all the closed-form results below describe.  (The narrower
    mutual-power rule would leave <r> incomplete: at (k, p) = (2, 3), r^2 and
    r^3 are powers of r but not of each other.)
    """
    verts = family_vertex_order(params)
    return _union_of_cliques(verts, (cyclic_subgroup(g, params) for g in verts))


def build_power_graph_from_table(table) -> Graph:
    """Same construction driven by a CayleyTable oracle instead of multiply()."""
    identity = GroupElement(0, 0)

    def generated(g: GroupElement) -> set[GroupElement]:
        members, current = {identity}, g
        while current != identity:
            members.add(current)
            current = table.mul(current, g)
        return members

    verts = family_vertex_order(table.params)
    return _union_of_cliques(verts, map(generated, verts))


def _union_of_cliques(verts: list[GroupElement], groups) -> Graph:
    """Graph on `verts` with a clique on each set of elements in `groups`."""
    index = {g: idx for idx, g in enumerate(verts)}
    graph = Graph(len(verts), labels=verts)
    for group in groups:
        idxs = [index[h] for h in group]
        graph.adj[np.ix_(idxs, idxs)] = True
    np.fill_diagonal(graph.adj, False)
    return graph


@dataclass(frozen=True)
class PartitionClasses:
    """Index sets of the four vertex classes, plus the special vertices e and u."""

    h0: frozenset[int]
    h1: frozenset[int]
    h2: frozenset[int]
    h3: frozenset[int]
    e: int
    u: int

    @property
    def rotation_indices(self) -> frozenset[int]:
        return self.h0 | self.h1

    def named(self) -> dict[str, frozenset[int]]:
        """Vertex sets by class name: e, u, h1, h2, h3."""
        singles = {"e": frozenset((self.e,)), "u": frozenset((self.u,))}
        return {**singles, "h1": self.h1, "h2": self.h2, "h3": self.h3}


def classify_partition(graph: Graph, params: GroupParams) -> PartitionClasses:
    """Split vertices into {e,u} / other rotations / involutions / order-4 elements."""
    n = params.rotation_order
    half = n // 2
    h0, h1, h2, h3 = set(), set(), set(), set()
    e_idx = u_idx = -1
    for idx, label in enumerate(graph.labels):
        if not isinstance(label, GroupElement):
            raise ClassificationError("graph is not labeled by group elements")
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
    expected = (2, n - 2, half, half)
    if sizes != expected or e_idx < 0 or u_idx < 0:
        raise ClassificationError(f"partition sizes {sizes} do not match expected {expected}")
    return PartitionClasses(
        frozenset(h0), frozenset(h1), frozenset(h2), frozenset(h3), e_idx, u_idx
    )


@dataclass(frozen=True)
class TwinClass:
    """Maximal set of mutually twin vertices; closed twins are pairwise adjacent."""

    vertices: frozenset[int]
    closed: bool

    @property
    def size(self) -> int:
        return len(self.vertices)


def twin_classes(graph: Graph) -> list[TwinClass]:
    """Partition V into maximal twin classes (singletons included).

    Vertices are twins when N(u) = N(v) (open, necessarily non-adjacent) or
    N[u] = N[v] (closed, necessarily adjacent).  A class cannot mix the two
    kinds, so grouping by the open and closed neighborhood fingerprints
    separately yields the partition.
    """
    open_groups: dict[bytes, list[int]] = {}
    closed_groups: dict[bytes, list[int]] = {}
    for v in range(graph.n):
        row = graph.adj[v].copy()
        open_groups.setdefault(row.tobytes(), []).append(v)
        row[v] = True
        closed_groups.setdefault(row.tobytes(), []).append(v)
    classes: list[TwinClass] = []
    placed = set()
    for members in open_groups.values():
        if len(members) > 1:
            classes.append(TwinClass(frozenset(members), closed=False))
            placed.update(members)
    for members in closed_groups.values():
        if len(members) > 1:
            classes.append(TwinClass(frozenset(members), closed=True))
            placed.update(members)
    for v in range(graph.n):
        if v not in placed:
            classes.append(TwinClass(frozenset([v]), closed=False))
    classes.sort(key=lambda c: min(c.vertices))
    return classes


class TwinQuotient:
    """Twin-class quotient of a graph: members, sizes, closedness and class adjacency.

    Classes keep the order of `twin_classes` (by smallest member).  Twin
    classes are modules, so for a != b `adj[a][b]` is the adjacency between
    any member of a and any member of b; `adj[a][a]` says whether two members
    of a are adjacent (a closed class of size > 1).
    """

    def __init__(self, graph: Graph):
        classes = twin_classes(graph)
        self.members = [sorted(c.vertices) for c in classes]
        self.sizes = [len(m) for m in self.members]
        self.closed = [c.closed for c in classes]
        self.class_of = [0] * graph.n
        for idx, mem in enumerate(self.members):
            for v in mem:
                self.class_of[v] = idx
        reps = [m[0] for m in self.members]
        adj = graph.adj[np.ix_(reps, reps)]
        np.fill_diagonal(adj, [c and s > 1 for c, s in zip(self.closed, self.sizes)])
        self.adj: list[list[bool]] = adj.tolist()


@dataclass
class DecompositionReport:
    """Outcome of checking the three-piece edge-union structure."""

    ok: bool
    missing_edges: list[tuple[int, int]] = field(default_factory=list)
    extra_edges: list[tuple[int, int]] = field(default_factory=list)

    def __bool__(self) -> bool:
        return self.ok


def verify_decomposition(
    graph: Graph, classes: PartitionClasses, params: GroupParams
) -> DecompositionReport:
    """Check that the edge set is exactly clique(<r>) + pendant edges + K4 blades.

    The three pieces share the vertices e and u, so the union is taken over
    edge sets.  The blades pair s r^(2j+1) with s r^(2j+1 + 2^(k-1)p).
    """
    n = params.rotation_order
    half = n // 2
    expected = np.zeros((graph.n, graph.n), dtype=bool)
    position = {}
    for idx, label in enumerate(graph.labels):
        if not isinstance(label, GroupElement):
            raise ClassificationError("graph is not labeled by group elements")
        position[(label.eps, label.i)] = idx
    rot = sorted(classes.rotation_indices)
    for a_pos, a in enumerate(rot):
        for b in rot[a_pos + 1 :]:
            expected[a, b] = expected[b, a] = True
    for h2 in classes.h2:
        expected[classes.e, h2] = expected[h2, classes.e] = True
    for j in range(half // 2):
        exp = 2 * j + 1
        blade = [classes.e, classes.u, position[(1, exp)], position[(1, exp + half)]]
        for a_pos, a in enumerate(blade):
            for b in blade[a_pos + 1 :]:
                expected[a, b] = expected[b, a] = True
    missing = np.triu(expected & ~graph.adj)
    extra = np.triu(graph.adj & ~expected)
    missing_edges = sorted(zip(*(idx.tolist() for idx in np.nonzero(missing))))
    extra_edges = sorted(zip(*(idx.tolist() for idx in np.nonzero(extra))))
    return DecompositionReport(
        ok=not missing_edges and not extra_edges,
        missing_edges=missing_edges,
        extra_edges=extra_edges,
    )


def family_degree_multiset(params: GroupParams) -> dict[int, int]:
    """Predicted degree -> count table for the family power graph."""
    n = params.rotation_order
    half = n // 2
    counts: dict[int, int] = {}
    for value, mult in (
        (2 * n - 1, 1),          # identity is universal
        (3 * half - 1, 1),       # u: the rotation clique plus every order-4 element
        (n - 1, n - 2),          # other rotations: the clique only
        (1, half),               # involutions: pendant on e
        (3, half),               # order-4 elements: e, u and the partner
    ):
        counts[value] = counts.get(value, 0) + mult
    return counts
