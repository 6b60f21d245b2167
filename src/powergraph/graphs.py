"""Power-graph construction, twin quotients and the family's predicted quotient.

Vertex order for the family graph is fixed so that matrices and spectra are
bit-for-bit reproducible: the identity first, then r^1 .. r^(2^k p - 1) by
exponent, then the involutions s r^(even) by exponent, then the order-4
elements s r^(odd) by exponent.

The family graph is built as whole arrays: its vertices are the int arrays
`elements` = (eps, i), the cliques come from `groups.cyclic_powers` and are
filled by fancy indexing, and the `GroupElement` labels are made only when
something reads `labels`.  `predicted_quotient` types each vertex by its
element alone, so it is the one encoding of the family's classes (e, u, h1,
h2 and the h3 blades) that the closed forms rest on.  Twin classes key each
vertex by its adjacency row packed to bits.

A `Graph` is built from an adjacency matrix and writes no edge list: the CLI
writes class-level data only (`class_of`, `closed` and k x k class matrices),
and `TwinQuotient.lift` turns a class matrix into its vertex matrix.
"""

from __future__ import annotations

from functools import cached_property
from itertools import chain

import numpy as np

from .groups import GroupElement, GroupParams, cyclic_powers
from .matrices import DisconnectedGraphError, distance_matrix


class Graph:
    """Simple undirected graph with opaque or group-element vertex labels.

    A graph is a value: it is built once from a finished adjacency matrix,
    which it copies and keeps read-only.  Its twin quotient, which holds the
    class distances, is computed on first use and then shared by every analysis.
    A family graph carries its vertices as `elements`, the read-only int64
    arrays (eps, i); any other graph has `elements` None.
    """

    def __init__(self, adj):
        adj = np.array(adj, dtype=bool)
        if adj.ndim != 2 or adj.shape[0] != adj.shape[1]:
            raise ValueError(f"adjacency must be a square matrix, got shape {adj.shape}")
        if not np.array_equal(adj, adj.T):
            raise ValueError("adjacency must be symmetric")
        self._keep(adj)

    @classmethod
    def _symmetric(cls, adj: np.ndarray, elements: tuple[np.ndarray, np.ndarray]) -> "Graph":
        """A graph that takes ownership of a bool adjacency built symmetric by construction.

        Skips the copy and the O(n^2) transposed comparison that `Graph(adj)`
        makes on an adjacency from outside.  `elements` are the (eps, i)
        arrays of its vertices.
        """
        graph = cls.__new__(cls)
        graph._keep(adj)
        for part in elements:
            part.setflags(write=False)
        graph.elements = elements
        return graph

    def _keep(self, adj: np.ndarray) -> None:
        if adj.diagonal().any():
            raise ValueError("self-loops are not allowed")
        adj.setflags(write=False)
        self.adj = adj
        self.n = adj.shape[0]
        self.elements = None

    @cached_property
    def labels(self) -> list:
        """Vertex labels: the `GroupElement`s of `elements`, else "0" .. "n-1"."""
        if self.elements is None:
            return [str(v) for v in range(self.n)]
        return [GroupElement(*pair) for pair in zip(*(part.tolist() for part in self.elements))]

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


# power graph of the family --------------------------------------------


def family_elements(params: GroupParams) -> tuple[np.ndarray, np.ndarray]:
    """(eps, i) int64 arrays of the group's elements in the family vertex order."""
    n = params.rotation_order
    rotations = np.arange(n)
    eps = np.repeat(np.array([0, 1]), n)
    return eps, np.concatenate([rotations, rotations[::2], rotations[1::2]])


def build_power_graph(params: GroupParams) -> Graph:
    """Power graph of the group: vertices adjacent when they share a cyclic subgroup.

    Two distinct elements are joined whenever some cyclic subgroup contains
    both, i.e. each cyclic subgroup induces a clique.  On this family that
    puts a clique on <r>, a pendant edge e - s r^(2t) for every involution,
    and a K4 on {e, u, x, x^3} for every order-4 element x, which is exactly
    the structure all the closed-form results below describe.  (The narrower
    mutual-power rule would leave <r> incomplete: at (k, p) = (2, 3), r^2 and
    r^3 are powers of r but not of each other.)

    The subgroups come from the multiplication rule as whole arrays
    (`groups.cyclic_powers`): the powers of r by doubling, and the powers of
    all 2^k p reflections together.  Every power of a rotation is a rotation,
    so <r> holds the cyclic subgroup of every rotation and is filled as the
    outer product of its membership mask; each reflection adds its own
    subgroup, of order 2 or 4, which an order-4 element shares with its
    inverse x^3, so the sorted index rows are deduplicated before their
    cliques are filled by fancy indexing.
    """
    n = params.rotation_order
    eps, i = family_elements(params)
    position = np.empty(2 * n, dtype=np.int64)  # vertex index of s^eps r^i at eps * n + i
    position[eps * n + i] = np.arange(2 * n)
    r_eps, r_i = cyclic_powers((0, 1), params)
    in_r = np.zeros(2 * n, dtype=bool)
    in_r[position[r_eps * n + r_i]] = True
    adj = np.logical_and.outer(in_r, in_r)
    reflection = eps == 1
    s_eps, s_i = cyclic_powers((eps[reflection], i[reflection]), params)
    cliques = np.sort(position[s_eps * n + s_i], axis=1)
    cliques = cliques[np.lexsort(cliques.T[::-1])]
    cliques = cliques[np.r_[True, (cliques[1:] != cliques[:-1]).any(axis=1)]]
    adj[cliques[:, :, None], cliques[:, None, :]] = True
    np.fill_diagonal(adj, False)
    return Graph._symmetric(adj, (eps, i))


def twin_classes(graph: Graph) -> list[tuple[list[int], bool]]:
    """Partition V into maximal twin classes (singletons included).

    Vertices are twins when N(u) = N(v) (open, necessarily non-adjacent) or
    N[u] = N[v] (closed, necessarily adjacent).  A class cannot mix the two
    kinds, so grouping by the open and closed neighborhood fingerprints
    separately yields the partition.  Returns (sorted members, closed) pairs
    ordered by smallest member; a singleton counts as open.
    """
    return _twins(graph.adj)


def _twins(adj: np.ndarray, labels: np.ndarray | None = None) -> list[tuple[list[int], bool]]:
    """`twin_classes` of the graph whose adjacency is `adj` off the diagonal, among equal labels.

    The rows are packed to bits once, a label appended as 8 more bytes; the
    diagonal bits are cleared for the open fingerprints N(v) and then set for
    the closed ones N[v].  Each fingerprint is its packed row read as one void
    scalar, and maps to the smallest vertex that has it.
    """
    n = len(adj)
    if n == 0:
        return []
    packed = np.packbits(adj, axis=1)
    if labels is not None:
        labels = np.asarray(labels, dtype=np.int64).reshape(n, 1)
        packed = np.hstack([packed, labels.view(np.uint8)])
    vertices = np.arange(n)
    diagonal = vertices * packed.shape[1] + (vertices >> 3)  # the byte of bit (v, v)
    bits = _BITS[vertices & 7]
    flat, fingerprints = packed.reshape(-1), packed.view(np.dtype((np.void, packed.shape[1])))
    flat[diagonal] &= ~bits
    open_first = _first_equal(fingerprints.ravel())
    flat[diagonal] |= bits
    closed_first = _first_equal(fingerprints.ravel())
    # a vertex without an open twin is its own open first, so it takes its closed first
    # (itself when it has no twin at all); no vertex has twins of both kinds
    rep = np.where(np.bincount(open_first, minlength=n)[open_first] > 1, open_first, closed_first)
    members, firsts = _classes(rep)
    closed = np.bincount(closed_first, minlength=n)[firsts] > 1
    return list(zip(members, closed.tolist()))


_BITS = np.array([128, 64, 32, 16, 8, 4, 2, 1], dtype=np.uint8)  # bit j of a byte, big-endian


def _first_equal(keys: np.ndarray) -> np.ndarray:
    """For each key of a 1-d array, the smallest index holding an equal key."""
    keys = keys.tolist()
    smallest = dict(zip(reversed(keys), range(len(keys) - 1, -1, -1)))
    return np.fromiter(map(smallest.__getitem__, keys), dtype=np.int64, count=len(keys))


def _classes(rep: np.ndarray) -> tuple[list[list[int]], np.ndarray]:
    """The sorted member lists of the classes that `rep` gives, and their smallest members.

    `rep[v]` is the smallest member of v's class; the classes are ordered by
    smallest member.
    """
    counts = np.bincount(rep)
    firsts = counts.nonzero()[0]
    ends = counts[firsts].cumsum().tolist()
    order = rep.argsort(kind="stable").tolist()
    return [order[start:end] for start, end in zip([0, *ends], ends)], firsts


class TwinQuotient:
    """Twin-class quotient of a graph: members, sizes, closedness, class adjacency and distances.

    Classes are ordered by smallest member, as in `twin_classes`.  Twin
    classes are modules, so for a != b `adj[a, b]` is the adjacency between
    any member of a and any member of b; `adj[a, a]` says whether two members
    of a are adjacent (a closed class of size > 1).  `dist` and the detour
    and strong resolving class matrices read the same way; `lift` turns one
    into the n x n vertex matrix, `degrees` gives the vertex degrees it implies.
    `orbits` groups the classes that the quotient's own automorphisms permute;
    `cotree` is the graph's cotree over the classes, or None for a non-cograph.
    """

    def __init__(self, classes: list[tuple[list[int], bool]], adj: np.ndarray):
        """(members, closed) pairs as `twin_classes` gives them; `adj`'s diagonal is set here."""
        self.members = [members for members, _ in classes]
        self.sizes = [len(m) for m in self.members]
        self.closed = [closed for _, closed in classes]
        self.class_of = np.zeros(sum(self.sizes), dtype=np.int64)
        self.class_of[list(chain.from_iterable(self.members))] = np.repeat(
            np.arange(len(self.sizes)), self.sizes
        )
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
    def reciprocals(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """(1/d between classes, with a zero diagonal; 1/d inside each class, 0 for a singleton;
        reciprocal transmission per class), read-only, from `dist`."""
        dist = self.dist.astype(np.float64)
        sizes = np.array(self.sizes, dtype=np.float64)
        within = np.divide(1.0, dist.diagonal(), out=np.zeros(len(sizes)), where=sizes > 1)
        dist.flat[:: len(sizes) + 1] = np.inf
        between = 1.0 / dist
        parts = between, within, between @ sizes + (sizes - 1.0) * within
        for part in parts:
            part.setflags(write=False)
        return parts

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
        labels = 4 * np.array(self.sizes) + 2 * np.array(self.closed) + self.adj.diagonal()
        return tuple(tuple(members) for members, _ in _twins(self.adj, labels))

    @cached_property
    def orbit_of(self) -> np.ndarray:
        """The index in `orbits` of each class's orbit (int64, read-only)."""
        orbit_of = np.empty(len(self.sizes), dtype=np.int64)
        members = [c for orbit in self.orbits for c in orbit]
        orbit_of[members] = [index for index, orbit in enumerate(self.orbits) for _ in orbit]
        orbit_of.setflags(write=False)
        return orbit_of

    @cached_property
    def cotree(self) -> tuple[tuple[bool, int, int], ...] | None:
        """A binary cotree whose leaves are the twin classes, or None when the graph is not a cograph.

        Node a < k is the leaf of class a: a clique of its size when
        `adj[a, a]`, otherwise that many independent vertices.  Node k + i is
        `cotree[i]` = (join, left, right) over two earlier nodes: the join
        (every left vertex adjacent to every right one) or the disjoint union
        of their graphs.  The last node is the root; a one-class graph has no
        inner node.

        Built on the orbits, which are modules (their classes are pairwise
        twins): each becomes a balanced join of its classes when they are
        adjacent, else a balanced union.  The m-node orbit graph is then twin
        reduced on Python-int neighbourhood masks, with no twin pass: each
        round makes every class of open twins a balanced union and every class
        of closed twins a balanced join, so no leaf is deeper than it needs to
        be.  A graph is a cograph exactly when every induced subgraph on two or
        more vertices has a twin pair, so a round that merges nothing means
        that neither the orbit graph nor, by substitution, the graph is one.
        """
        k = len(self.sizes)
        inner: list[tuple[bool, int, int]] = []

        def balanced(level: list[int], join: bool) -> int:  # the root of the tree over `level`
            while len(level) > 1:
                paired = []
                for left, right in zip(level[::2], level[1::2]):
                    inner.append((join, left, right))
                    paired.append(k + len(inner) - 1)
                level = paired + level[2 * len(paired) :]
            return level[0]

        node = [balanced(list(o), len(o) > 1 and bool(self.adj[o[:2]])) for o in self.orbits]
        reps = [orbit[0] for orbit in self.orbits]
        between = self.adj[reps][:, reps] & ~np.eye(len(reps), dtype=bool)
        masks = [sum(1 << w for w, edge in enumerate(row) if edge) for row in between.tolist()]
        live = list(range(len(reps)))
        while len(live) > 1:
            alive = sum(1 << v for v in live)
            neighbours = [masks[v] & alive for v in live]
            ordered = sorted(neighbours)
            shared = {a for a, b in zip(ordered, ordered[1:]) if a == b}  # N(v) of open twins
            # a node with an open twin is keyed by N(v), any other by N[v]; no node has both
            groups: dict[tuple[bool, int], list[int]] = {}
            for v, mask in zip(live, neighbours):
                key = (False, mask) if mask in shared else (True, mask | 1 << v)
                groups.setdefault(key, []).append(v)
            if len(groups) == len(live):
                return None
            for (closed, _), members in groups.items():
                node[members[0]] = balanced([node[v] for v in members], closed)
            live = [members[0] for members in groups.values()]
        return tuple(inner)

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


# class types of the family: the identity e, the central involution u = r^(N/2), the other
# rotations h1, the involutions h2 = {s r^even} and the order-4 elements h3 = {s r^odd}
CLASS_TYPES = ("e", "u", "h1", "h2", "h3")
# adjacency of two distinct classes by type, in CLASS_TYPES order (two blades are not adjacent)
_TYPE_ADJACENCY = np.array(
    [[0, 1, 1, 1, 1], [1, 0, 1, 0, 1], [1, 1, 1, 0, 0], [1, 0, 0, 0, 0], [1, 1, 0, 0, 0]], dtype=bool
)


def predicted_quotient(
    elements: tuple[np.ndarray, np.ndarray], params: GroupParams
) -> tuple[TwinQuotient, np.ndarray]:
    """The twin quotient the closed forms assume, read from the vertex elements, and class types.

    `elements` are the (eps, i) arrays of a family graph (`Graph.elements`).
    Each vertex is typed by `CLASS_TYPES`, with N = 2^k p the rotation order:
    r^0 is e, r^(N/2) is u, any other rotation h1, s r^even h2 and s r^odd h3.
    {e} and {u} are singletons, h1 is one closed class, h2 one open class and
    each blade {s r^i, s r^(i + N/2)} of h3 a closed pair; classes are ordered
    by smallest member.  The class adjacency is clique(<r>) + pendant edges at
    e + K4 blades on {e, u}.  `types[a]` indexes `CLASS_TYPES`.
    """
    eps, i = elements
    half = params.rotation_order // 2
    rotation = np.where(i == 0, 0, np.where(i == half, 1, 2))
    vertex_types = np.where(eps == 0, rotation, 3 + i % 2)
    blade = np.where(vertex_types == 4, i % half, 0)
    _, first, inverse = np.unique(
        vertex_types * half + blade, return_index=True, return_inverse=True
    )
    members, firsts = _classes(first[inverse])
    types = vertex_types[firsts]
    closed = (types == 2) | (types == 4)  # h1 and h3
    adj = _TYPE_ADJACENCY[np.ix_(types, types)]
    return TwinQuotient(list(zip(members, closed.tolist())), adj), types


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
