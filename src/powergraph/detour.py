"""Exact detour (longest simple path) distances on the twin-class quotient.

Vertices in one twin class are interchangeable (a transposition inside a
class is a graph automorphism), and so are the classes of one orbit of
`TwinQuotient.orbits` (their transpositions generate every permutation of the
orbit).  So the detour distance is one number per pair of orbits, per two
classes of one orbit and per two members of one class (0 for a singleton): at
most m(m - 1)/2 + 2m searches, each to the first class of an orbit, fill an
orbit table that `TwinQuotient.orbit_of` expands to the k x k class matrix
with one fancy index.

Two exact searches give these values, and the shape of the graph picks one:
the cotree search when the graph is a cograph (`TwinQuotient.cotree` is not
None; every family graph is one), polynomial in the size of the cotree, and
the orbit state search otherwise, exponential in the number of orbits.

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

Orbit state search
------------------
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

from __future__ import annotations

import time
from itertools import accumulate
from typing import Callable

import numpy as np

from .graphs import Graph, TwinQuotient

# column(target, sources): the longest path length from a member of each source class to
# another member of the target class
Column = Callable[[int, list[int]], list[int]]

class DetourBudgetError(RuntimeError):
    """Exact search exceeded its time budget; no approximation is substituted."""


def detour_matrix(graph: Graph, time_budget_s: float = 60.0) -> np.ndarray:
    """k x k class matrix of longest simple path lengths (int64); exact, never approximated.

    Entry (a, b) is the detour distance between any member of twin class a
    and any other member of class b; the diagonal is the within-class value,
    0 for a singleton.  `graph.quotient.lift` gives the vertex matrix.  A
    cograph takes the cotree search, any other graph the orbit state search.
    Raises DetourBudgetError when the search cannot finish within
    `time_budget_s` seconds, its only limit, and ValueError when some pair
    has no path.
    """
    deadline = time.monotonic() + time_budget_s
    quotient = graph.quotient
    search = orbit_search if quotient.cotree is None else cotree_search
    value = search(quotient, deadline)
    if (value < 0).any():
        raise ValueError("graph is disconnected; detour distances are undefined")
    return value


def _by_orbit_pairs(quotient: TwinQuotient, column: Column) -> np.ndarray:
    """The class matrix from the searches of each orbit's first class; -1 marks a pair with no path."""
    orbits, sizes, orbit_of = quotient.orbits, quotient.sizes, quotient.orbit_of
    table = np.zeros((len(orbits), len(orbits) + 1), dtype=np.int64)  # column m: within a class
    for j, orbit in enumerate(orbits):
        inside = orbit[:1] if sizes[orbit[0]] > 1 else ()
        lengths = column(orbit[0], [other[0] for other in orbits[:j]] + list(orbit[1:2] + inside))
        table[j, :j] = table[:j, j] = lengths[:j]
        table[j, j] = lengths[j] if len(orbit) > 1 else 0
        table[j, -1] = lengths[-1] if inside else 0
    value = table[orbit_of[:, None], orbit_of]
    value.flat[:: len(orbit_of) + 1] = table[orbit_of, -1]
    return value


def cotree_search(quotient: TwinQuotient, deadline: float) -> np.ndarray:
    """The class matrix of a cograph by the cotree search; -1 marks a pair with no path."""
    return _by_orbit_pairs(quotient, _cotree_column(quotient, deadline))


def _cotree_column(quotient: TwinQuotient, deadline: float) -> Column:
    """`column(target, sources)` of the cotree search, every call sharing one combine memo.

    A node's state for one pair is (terminals inside, table): `J` for the
    status with no terminal, one, or both in separate pieces.  The joined
    count at the root is the largest x-y path that a combine on the pair's
    way up closes.  `deadline` is a `time.monotonic()` value.
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

    return lambda target, sources: [longest(source, target) for source in sources]


def orbit_search(quotient: TwinQuotient, deadline: float) -> np.ndarray:
    """The class matrix of any graph by the orbit state search; -1 marks a pair with no path."""
    return _by_orbit_pairs(quotient, _orbit_column(quotient, deadline))


def _orbit_column(quotient: TwinQuotient, deadline: float) -> Column:
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
            if time.monotonic() > deadline:
                raise DetourBudgetError("detour search exceeded its time budget")
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
