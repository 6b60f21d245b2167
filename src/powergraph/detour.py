"""Exact detour (longest simple path) distances on the twin-class quotient of a cograph.

Vertices in one twin class are interchangeable (a transposition inside a
class is a graph automorphism), and so are the classes of one orbit of
`TwinQuotient.orbits` (their transpositions generate every permutation of the
orbit).  So the detour distance is one number per pair of orbits, per two
classes of one orbit and per two members of one class (0 for a singleton): at
most m(m - 1)/2 + 2m searches, each to the first class of an orbit, fill an
orbit table that `TwinQuotient.orbit_of` expands to the k x k class matrix
with one fancy index.

One exact search gives these values: the cotree search, polynomial in the
size of the cotree.  It needs `TwinQuotient.cotree`, which every family graph
has; on any other graph `detour_matrix` refuses with `NotACographError`.

Cotree search
-------------
The recurrences follow the path-cover arguments for cographs of Lin, Olariu
and Pruesse (Comput. Math. Appl. 30, 1995) and Asdre and Nikolopoulos
(Networks 50, 2007).  Fix distinct terminals x and y and a node N of the
cotree.

* Pieces.  A simple x-y path P restricted to the vertices of N falls into
  maximal runs of consecutive vertices, vertex-disjoint paths of G[N]: its
  pieces.  A terminal inside N ends its piece, and a piece holding both
  terminals is all of P.  So N's part of P is described by its terminal
  status (none inside, one, both in separate pieces, both joined) and its
  number of free pieces, those without a terminal.  For each status `J[v]`
  is the most vertices of N that pieces of that status with at most v free
  pieces can cover (joined allows none).  A leaf clique of s vertices covers
  all s with one piece, or with the terminal pieces alone; s independent
  vertices need a piece each.
* Union.  No edge joins the two sides, so the pieces of N are those of its
  sides: free counts add and so do vertex counts, a max-plus product of the
  two tables.  A joined side is all of P, so it passes up only with the
  other side empty.
* Join.  Every vertex of one side is adjacent to every vertex of the other,
  so pieces glue end to end alternately across the sides, and nothing else
  joins them.  A side covering j vertices in a free pieces can be cut into
  any number of free pieces from a up to j less its terminals (a terminal
  piece keeps its terminal), and a chain that starts at a terminal takes one
  more piece of the other side than of its own.  Minimising over the cuts,
  the fewest free pieces that a pieces covering jA vertices and b covering
  jB glue into is `max(lo, a - jB, b - jA)`, with `lo` 1 when neither side
  holds a terminal and both cover a vertex, else 0.  The terminal pieces
  close into one x-y path absorbing every piece exactly when `a <= jB - 1`
  and `b <= jA - 1`, with x and y on opposite sides (the chain x .. y
  alternates and starts and ends on different sides) or on the same side A
  (then it takes one B piece more than free A pieces, `a + 1 <= jB`, the
  same condition).
* Dominance and the cap.  In each rule the glued piece count never rises and
  the covered count never falls when a side covers more vertices with no
  more pieces, so the most vertices per budget is all a table keeps, and
  entries past the last rise are dropped.  At the root P is one joined piece
  (cap 0); a union passes its children's pieces up unchanged (a child has
  its parent's cap); a side of a join can only be absorbed down to
  `a - jB`, so a join child's cap is its parent's plus the other side's
  vertex count, and budgets above it cannot take part in any x-y path.
  Nothing else is pruned, so the search is exact: the detour distance is the
  joined count at the root less one.

Tables of terminal-free nodes are computed once and shared by every pair.  A
pair carries each terminal's state up to their lowest common ancestor and the
two-terminal state on to the root, on paths that the balanced merges of
`TwinQuotient.cotree` keep short.  One search memoises each combine on (join,
cap, left state, right state), tables as tuples; the x-y path a combine
closes is returned beside its state, not kept in it.  The walk is a loop,
never recursion, and checks the time budget at every combine it computes.
"""

from __future__ import annotations

import time
from itertools import accumulate

import numpy as np

from .graphs import Graph, TwinQuotient


class DetourBudgetError(RuntimeError):
    """Exact search refused or past its time budget; no approximation is substituted."""


class NotACographError(DetourBudgetError):
    """The graph has no cotree, so the detour search does not apply to it."""


def detour_matrix(graph: Graph, time_budget_s: float = 60.0) -> np.ndarray:
    """k x k class matrix of longest simple path lengths (int64); exact, never approximated.

    Entry (a, b) is the detour distance between any member of twin class a
    and any other member of class b; the diagonal is the within-class value,
    0 for a singleton.  `graph.quotient.lift` gives the vertex matrix.
    Raises NotACographError on a graph that is not a cograph,
    DetourBudgetError when the search cannot finish within `time_budget_s`
    seconds, and ValueError when some pair has no path.
    """
    deadline = time.monotonic() + time_budget_s
    quotient = graph.quotient
    if quotient.cotree is None:
        raise NotACographError("graph is not a cograph; the detour search needs its cotree")
    value = cotree_search(quotient, deadline)
    if (value < 0).any():
        raise ValueError("graph is disconnected; detour distances are undefined")
    return value


def cotree_search(quotient: TwinQuotient, deadline: float) -> np.ndarray:
    """The class matrix of a cograph from its orbit table; -1 marks a pair with no path."""
    longest = _cotree_longest(quotient, deadline)
    orbits, orbit_of = quotient.orbits, quotient.orbit_of
    table = np.zeros((len(orbits), len(orbits) + 1), dtype=np.int64)  # column m: within a class
    for j, orbit in enumerate(orbits):
        target = orbit[0]
        for i, other in enumerate(orbits[:j]):
            table[i, j] = table[j, i] = longest(other[0], target)
        if len(orbit) > 1:
            table[j, j] = longest(orbit[1], target)
        if quotient.sizes[target] > 1:
            table[j, -1] = longest(target, target)
    value = table[orbit_of[:, None], orbit_of]
    value.flat[:: len(orbit_of) + 1] = table[orbit_of, -1]
    return value


def _cotree_longest(quotient: TwinQuotient, deadline: float):
    """`longest(source, target)` of the cotree search, every call sharing one combine memo.

    `longest` is the detour distance from a member of class `source` to
    another member of class `target`, -1 with no path.  A node's state for
    one pair is (terminals inside, table): `J` for the status with no
    terminal, one, or both in separate pieces.  The joined count at the root
    is the largest x-y path that a combine on the pair's way up closes.
    `deadline` is a `time.monotonic()` value.
    """
    inner, k = quotient.cotree, len(quotient.sizes)
    clique = quotient.adj.diagonal().tolist()
    size = list(quotient.sizes)
    parent = [-1] * (k + len(inner))
    for node, (_, left, right) in enumerate(inner, start=k):
        size.append(size[left] + size[right])
        parent[left] = parent[right] = node
    cap, depth = [0] * len(size), [0] * len(size)
    for node in range(len(size) - 1, k - 1, -1):
        join, left, right = inner[node - k]
        cap[left] = cap[node] + (size[right] if join else 0)
        cap[right] = cap[node] + (size[left] if join else 0)
        depth[left] = depth[right] = depth[node] + 1

    def leaf(a: int, terminals: int) -> tuple[int, tuple[int, ...]]:
        if clique[a]:
            return terminals, (0, size[a])[: cap[a] + 1] if terminals == 0 else (size[a],)
        return terminals, tuple(range(terminals, min(size[a], terminals + cap[a]) + 1))

    memo: dict[tuple, tuple[tuple[int, tuple[int, ...]], int]] = {}

    def combine(node: int, left, right) -> tuple[tuple[int, tuple[int, ...]], int]:
        """(node's state, vertices of the best x-y path closing at the node or -1)."""
        key = (inner[node - k][0], cap[node], left, right)
        done = memo.get(key)
        if done is not None:
            return done
        if time.monotonic() > deadline:
            raise DetourBudgetError("detour search exceeded its time budget")
        join, limit, (terminals_l, table_l), (terminals_r, table_r) = key
        terminals, closed = terminals_l + terminals_r, -1
        width = max(len(table_l), len(table_r), 2) - 1 if join else len(table_l) + len(table_r) - 2
        top = min(limit, width)  # no pair of entries makes more pieces
        out = [-1] * (top + 1)
        for a, ja in enumerate(table_l):
            for b, jb in enumerate(table_r):
                if join:
                    pieces = max(a - jb, b - ja, 1 if terminals == 0 and ja and jb else 0)
                else:
                    pieces = a + b
                if pieces <= top and ja + jb > out[pieces]:
                    out[pieces] = ja + jb
        if join and terminals == 2:
            # close x .. y: for each a the largest jb with b <= ja - 1, if also a <= jb - 1
            for a, ja in enumerate(table_l):
                jb = table_r[min(len(table_r), ja) - 1] if ja else 0
                if a < jb and ja + jb > closed:
                    closed = ja + jb
        table = list(accumulate(out, max))  # made non-decreasing, then cut after its last rise
        memo[key] = done = (terminals, tuple(table[: table.index(table[-1]) + 1])), closed
        return done

    terminal_free = [leaf(a, 0) for a in range(k)]
    for node, (_, left, right) in enumerate(inner, start=k):
        terminal_free.append(combine(node, terminal_free[left], terminal_free[right])[0])

    def rise(child: int, state) -> tuple[tuple[int, tuple[int, ...]], int]:
        """`combine` at the parent of `child`, which has `state`, its sibling no terminal."""
        node = parent[child]
        _, left, right = inner[node - k]
        sides = (state, terminal_free[right]) if left == child else (terminal_free[left], state)
        return combine(node, *sides)

    def longest(source: int, target: int) -> int:
        if source == target:  # both terminals in one class: a clique closes x .. y inside it
            x, state, best = source, leaf(source, 2), size[source] if clique[source] else -1
        else:  # carry each one-terminal state up to the children of the lowest common ancestor
            x, y, state_x, state_y = source, target, leaf(source, 1), leaf(target, 1)
            while parent[x] != parent[y]:
                if depth[x] >= depth[y]:
                    state_x, x = rise(x, state_x)[0], parent[x]
                else:
                    state_y, y = rise(y, state_y)[0], parent[y]
            x, x_left = parent[x], inner[parent[x] - k][1] == x
            state, best = combine(x, state_x, state_y) if x_left else combine(x, state_y, state_x)
        while parent[x] >= 0:
            (state, closed), x = rise(x, state), parent[x]
            best = max(best, closed)
        return best - 1 if best > 0 else -1

    return longest
