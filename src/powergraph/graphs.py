"""Power-graph construction, vertex-class partition, twin quotients and the predicted quotient.

Vertex order for the family graph is fixed so that matrices and spectra are
bit-for-bit reproducible: the identity first, then r^1 .. r^(2^k p - 1) by
exponent, then the involutions s r^(even) by exponent, then the order-4
elements s r^(odd) by exponent.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .groups import MAX_VERTICES, GroupElement, GroupParams, cyclic_subgroup
from .matrices import DisconnectedGraphError, distance_matrix


class GraphFormatError(ValueError):
    """Malformed graph serialization."""


class ClassificationError(ValueError):
    """Graph is not labeled by elements of the expected group."""


class Graph:
    """Simple undirected graph with opaque or group-element vertex labels.

    A graph is a value: it is built once from a finished adjacency matrix,
    which it copies and keeps read-only.  Its twin quotient, which holds the
    class distances, is computed on first use and then shared by every analysis.
    """

    def __init__(self, adj, labels: list | None = None):
        adj = np.array(adj, dtype=bool)
        if adj.ndim != 2 or adj.shape[0] != adj.shape[1]:
            raise ValueError(f"adjacency must be a square matrix, got shape {adj.shape}")
        if not np.array_equal(adj, adj.T):
            raise ValueError("adjacency must be symmetric")
        if adj.diagonal().any():
            raise ValueError("self-loops are not allowed")
        adj.setflags(write=False)
        self.adj = adj
        self.n = adj.shape[0]
        self.labels = list(labels) if labels is not None else [str(i) for i in range(self.n)]
        if len(self.labels) != self.n:
            raise ValueError("label count does not match vertex count")

    @classmethod
    def from_edges(cls, n: int, edges, labels: list | None = None) -> "Graph":
        """Graph on vertices 0 .. n-1 with the given (i, j) edges.

        Raises GraphFormatError for n above MAX_VERTICES (before anything is
        allocated), a vertex id outside [0, n) or a self-loop, and TypeError
        for an id that is not an integer.
        """
        if n > MAX_VERTICES:
            raise GraphFormatError(f"{n} vertices exceed the limit of {MAX_VERTICES}")
        adj = np.zeros((n, n), dtype=bool)
        for i, j in edges:
            i, j = operator.index(i), operator.index(j)
            if not (0 <= i < n and 0 <= j < n):
                raise GraphFormatError(f"edge ({i}, {j}) has a vertex id outside [0, {n})")
            if i == j:
                raise GraphFormatError(f"self-loop {i}")
            adj[i, j] = adj[j, i] = True
        return cls(adj, labels)

    @cached_property
    def quotient(self) -> "TwinQuotient":
        classes = twin_classes(self)
        reps = [members[0] for members, _ in classes]
        return TwinQuotient(classes, self.adj[np.ix_(reps, reps)])

    def degrees(self) -> np.ndarray:
        return self.adj.sum(axis=1).astype(np.int64)

    def edges(self) -> list[tuple[int, int]]:
        """Sorted edge list with i < j."""
        ii, jj = np.nonzero(np.triu(self.adj))
        return sorted(zip(ii.tolist(), jj.tolist()))

    def edge_count(self) -> int:
        return int(self.adj.sum()) // 2

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
        """Parse one "i j" pair per line; the vertex count is the largest id plus one."""
        pairs = []
        for lineno, raw in enumerate(text.splitlines(), start=1):
            line = raw.strip()
            if not line or line.startswith("#"):
                continue
            parts = line.split()
            if len(parts) != 2:
                raise GraphFormatError(f"line {lineno}: expected two vertex ids, got {raw!r}")
            try:
                pairs.append((int(parts[0]), int(parts[1])))
            except ValueError:
                raise GraphFormatError(f"line {lineno}: non-integer vertex id in {raw!r}") from None
        return cls.from_edges(max((max(pair) for pair in pairs), default=-1) + 1, pairs)

    @classmethod
    def from_json_dict(cls, data: dict) -> "Graph":
        try:
            return cls.from_edges(operator.index(data["n"]), data["edges"], data.get("labels"))
        except (KeyError, TypeError, ValueError) as exc:
            raise GraphFormatError(f"bad graph JSON: {exc}") from None


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
    # every power of a rotation is a rotation, so <r> holds the cyclic subgroup
    # of every rotation; each reflection adds its own (order 2 or 4) subgroup,
    # which an order-4 element shares with its inverse x^3
    reflections = verts[params.rotation_order :]
    groups = {cyclic_subgroup(g, params) for g in reflections}
    groups.add(cyclic_subgroup(GroupElement(0, 1), params))
    return _union_of_cliques(verts, groups)


def _union_of_cliques(verts: list[GroupElement], groups) -> Graph:
    """Graph on `verts` with a clique on each set of elements in `groups`."""
    index = {g: idx for idx, g in enumerate(verts)}
    adj = np.zeros((len(verts), len(verts)), dtype=bool)
    for group in groups:
        idxs = [index[h] for h in group]
        adj[np.ix_(idxs, idxs)] = True
    np.fill_diagonal(adj, False)
    return Graph(adj, labels=verts)


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


def twin_classes(graph: Graph) -> list[tuple[list[int], bool]]:
    """Partition V into maximal twin classes (singletons included).

    Vertices are twins when N(u) = N(v) (open, necessarily non-adjacent) or
    N[u] = N[v] (closed, necessarily adjacent).  A class cannot mix the two
    kinds, so grouping by the open and closed neighborhood fingerprints
    separately yields the partition.  Returns (sorted members, closed) pairs
    ordered by smallest member; a singleton counts as open.
    """
    return _twins(graph.adj, [None] * graph.n)


def _twins(adj: np.ndarray, labels: list) -> list[tuple[list[int], bool]]:
    """`twin_classes` of the graph whose adjacency is `adj` off the diagonal, among equal labels."""
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


class TwinQuotient:
    """Twin-class quotient of a graph: members, sizes, closedness, class adjacency and distances.

    Classes are ordered by smallest member, as in `twin_classes`.  Twin
    classes are modules, so for a != b `adj[a, b]` is the adjacency between
    any member of a and any member of b; `adj[a, a]` says whether two members
    of a are adjacent (a closed class of size > 1).  `dist` and the detour
    and strong resolving class matrices read the same way; `lift` turns one
    into the n x n vertex matrix, `degrees` gives the vertex degrees it implies.
    `orbits` groups the classes that the quotient's own automorphisms permute.
    """

    def __init__(self, classes: list[tuple[list[int], bool]], adj: np.ndarray):
        """(members, closed) pairs as `twin_classes` gives them; `adj`'s diagonal is set here."""
        self.members = [members for members, _ in classes]
        self.sizes = [len(m) for m in self.members]
        self.closed = [closed for _, closed in classes]
        self.class_of = np.zeros(sum(self.sizes), dtype=np.int64)
        for idx, mem in enumerate(self.members):
            self.class_of[mem] = idx
        adj = np.array(adj, dtype=bool)
        np.fill_diagonal(adj, [c and s > 1 for c, s in zip(self.closed, self.sizes)])
        adj.setflags(write=False)
        self.adj = adj

    @cached_property
    def dist(self) -> np.ndarray:
        """k x k class distances (int64, read-only); DisconnectedGraphError when disconnected.

        Off the diagonal these are the quotient graph's distances.  The diagonal
        is the distance between two members of a class: 0 for a singleton, 1 for
        a closed class, 2 for an open one (its members share a neighbour).
        """
        if len(self.sizes) == 1 and self.sizes[0] > 1 and not self.closed[0]:  # edgeless
            raise DisconnectedGraphError("graph is disconnected; distances are undefined")
        within = self.adj.diagonal()
        dist = distance_matrix(Graph(self.adj & ~np.diag(within)))
        np.fill_diagonal(dist, 2 * (np.array(self.sizes) > 1) - within)
        dist.setflags(write=False)
        return dist

    @cached_property
    def orbits(self) -> tuple[tuple[int, ...], ...]:
        """Orbits of interchangeable classes, each sorted, ordered by first member.

        Call two classes a != b interchangeable when their size, closedness
        and `adj` diagonal are equal and they agree on every class other than
        a and b, i.e. when they are twins in the quotient graph among classes
        with those three labels equal.  Mapping the members of a onto those of
        b and back then preserves every edge, so the transposition (a b) of
        classes is a graph automorphism.  It keeps the class sizes and
        closedness too, so it is an automorphism of the weighted quotient and
        maps `dist`, and every class matrix built from the quotient (A_alpha,
        RD_alpha, detour), onto itself.  Like twinship, interchangeability is
        an equivalence relation; its classes are the orbits, and the
        transpositions inside an orbit generate every permutation of it.
        """
        labels = list(zip(self.sizes, self.closed, self.adj.diagonal()))
        return tuple(tuple(members) for members, _ in _twins(self.adj, labels))

    def lift(self, matrix: np.ndarray) -> np.ndarray:
        """The n x n matrix whose (u, v) entry is `matrix` at their classes; diagonal cleared."""
        out = matrix[np.ix_(self.class_of, self.class_of)]
        np.fill_diagonal(out, 0)
        return out

    def degrees(self, matrix: np.ndarray) -> np.ndarray:
        """Per-class vertex degrees in the graph a k x k 0/1 class matrix describes."""
        matrix = matrix.astype(np.int64)
        return matrix @ self.sizes - matrix.diagonal()

    def edge_count(self, matrix: np.ndarray) -> int:
        """Edge count of the graph a k x k 0/1 class matrix describes."""
        return int(self.degrees(matrix) @ self.sizes) // 2


# class types of the family, in the order of `PartitionClasses.named`
CLASS_TYPES = ("e", "u", "h1", "h2", "h3")
# adjacency of two distinct classes by type, in CLASS_TYPES order (two blades are not adjacent)
_TYPE_ADJACENCY = np.array(
    [[0, 1, 1, 1, 1], [1, 0, 1, 0, 1], [1, 1, 1, 0, 0], [1, 0, 0, 0, 0], [1, 1, 0, 0, 0]], dtype=bool
)


def predicted_quotient(labels: list, classes: PartitionClasses) -> tuple[TwinQuotient, np.ndarray]:
    """The twin quotient the closed forms assume, read from the labels, and each class's type.

    {e} and {u} are singletons, h1 is one closed class, h2 one open class and
    each blade {s r^i, s r^(i + N/2)} a closed pair; the class adjacency is
    clique(<r>) + pendant edges at e + K4 blades on {e, u}.  `types[a]`
    indexes `CLASS_TYPES`.
    """
    blades: dict[int, list[int]] = {}
    for v in sorted(classes.h3):
        blades.setdefault(labels[v].i % len(classes.h2), []).append(v)  # |h2| = N/2
    named = classes.named()
    typed = [(sorted(named[name]), t) for t, name in enumerate(CLASS_TYPES[:4])]
    typed = sorted(typed + [(blade, 4) for blade in blades.values()])  # by smallest member
    types = np.array([t for _, t in typed])
    pairs = [(members, CLASS_TYPES[t] in ("h1", "h3")) for members, t in typed]  # closed classes
    return TwinQuotient(pairs, _TYPE_ADJACENCY[np.ix_(types, types)]), types


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
