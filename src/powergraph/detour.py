"""Exact detour (longest simple path) distances on the twin-class quotient.

Vertices in one twin class are interchangeable (any transposition inside a
class is a graph automorphism), so the detour distance is a function of the
endpoint classes only and the result is a k x k class matrix.  The quotient
has automorphisms of its own: a transposition of two classes in one orbit of
`TwinQuotient.orbits` is a graph automorphism, so `value[s, t'] =
value[sigma(s), t]` for the transposition sigma = (t t'), and one column per
orbit of target classes gives the whole matrix.  Within a column, the orbits
with the target removed (the groups, the target a group of its own) are
interchangeable as sources too, so one source per group is searched.

Two exact searches give a column, and the shape of the graph picks one: the
cotree search when the graph is a cograph (`TwinQuotient.cotree` is not
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

Tables of terminal-free nodes are computed once and shared by every pair; a
pair recomputes only the ancestors of its two leaves, which the balanced
merges of `TwinQuotient.cotree` keep few.  The walk is a loop over the
nodes in order, never recursion, and checks the time budget at every
combine.

Orbit state search
------------------
A path is determined up to automorphism by its sequence of twin classes, so
this search runs over (current class, remaining count per class) states
instead of individual vertices.  The longest way on from a state depends on
the target class alone, so the states of one target's search are memoised
once and shared by every source.  Within it, every permutation of a group
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
from typing import Callable

import numpy as np

from .graphs import Graph, TwinQuotient

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


def _by_target_orbits(
    quotient: TwinQuotient, column: Callable[[int, list[list[int]]], list[int]]
) -> np.ndarray:
    """The class matrix from one column per orbit of target classes; -1 marks a pair with no path.

    `column(target, groups)` gives the longest path length from a member of
    each group to the target, 0 for a singleton target's own group.
    """
    k = len(quotient.sizes)
    orbits = quotient.orbits
    value = np.zeros((k, k), dtype=np.int64)
    for orbit in orbits:
        target = orbit[0]
        # the orbits of the automorphisms that fix the target, the target first
        groups = [[target]] + [o for o in ([c for c in orb if c != target] for orb in orbits) if o]
        for members, length in zip(groups, column(target, groups)):
            value[members, target] = length
        for other in orbit[1:]:
            swap = list(range(k))
            swap[target], swap[other] = other, target
            value[:, other] = value[swap, target]
    return value


def _dominant(table: list[int]) -> list[int]:
    """A budget table made non-decreasing and cut after its last rise."""
    best, keep = table[0], 1
    for v in range(1, len(table)):
        if table[v] > best:
            best, keep = table[v], v + 1
        else:
            table[v] = best
    return table[:keep]


def cotree_search(quotient: TwinQuotient, deadline: float) -> np.ndarray:
    """The class matrix of a cograph by the cotree search; -1 marks a pair with no path.

    A node's state for one pair is (terminals inside, table, joined): the
    table is `J` for the status with no terminal, one, or both in separate
    pieces; `joined` is the vertex count of the best x-y path inside the
    node, -1 when there is none.  `deadline` is a `time.monotonic()` value.
    """
    inner = quotient.cotree
    k = len(quotient.sizes)
    clique = quotient.adj.diagonal().tolist()
    size = list(quotient.sizes)
    parent = [-1] * (k + len(inner))
    for node, (_, left, right) in enumerate(inner, start=k):
        size.append(size[left] + size[right])
        parent[left] = parent[right] = node
    cap = [0] * len(size)
    for node in range(len(size) - 1, k - 1, -1):
        join, left, right = inner[node - k]
        cap[left] = cap[node] + (size[right] if join else 0)
        cap[right] = cap[node] + (size[left] if join else 0)

    def leaf(a: int, terminals: int) -> tuple[int, list[int], int]:
        s = size[a]
        if clique[a]:
            table = [0, s][: cap[a] + 1] if terminals == 0 else [s]
        else:
            table = list(range(terminals, min(s, terminals + cap[a]) + 1))
        return terminals, table, s if terminals == 2 and clique[a] else -1

    def combine(node: int, left, right) -> tuple[int, list[int], int]:
        if time.monotonic() > deadline:
            raise DetourBudgetError("detour search exceeded its time budget")
        join, limit = inner[node - k][0], cap[node]
        (terminals_l, table_l, joined_l), (terminals_r, table_r, joined_r) = left, right
        terminals, joined = terminals_l + terminals_r, max(joined_l, joined_r)
        out = [-1] * (limit + 1)
        for a, ja in enumerate(table_l):
            for b, jb in enumerate(table_r):
                if join:
                    pieces = max(a - jb, b - ja, 1 if terminals == 0 and ja and jb else 0)
                else:
                    pieces = a + b
                if pieces <= limit and ja + jb > out[pieces]:
                    out[pieces] = ja + jb
        if join and terminals == 2:
            # close x .. y: for each a the largest jb with b <= ja - 1, if also a <= jb - 1
            for a, ja in enumerate(table_l):
                jb = table_r[min(len(table_r), ja) - 1] if ja else 0
                if a < jb and ja + jb > joined:
                    joined = ja + jb
        return terminals, _dominant(out), joined

    terminal_free = [leaf(a, 0) for a in range(k)]
    for node, (_, left, right) in enumerate(inner, start=k):
        terminal_free.append(combine(node, terminal_free[left], terminal_free[right]))

    def ancestors(node: int) -> list[int]:
        out = []
        while parent[node] >= 0:
            node = parent[node]
            out.append(node)
        return out

    def longest(source: int, target: int) -> int:
        if source == target:
            state = {source: leaf(source, 2)}
        else:
            state = {source: leaf(source, 1), target: leaf(target, 1)}
        for node in sorted(set(ancestors(source)) | set(ancestors(target))):
            _, left, right = inner[node - k]
            state[node] = combine(
                node, state.get(left, terminal_free[left]), state.get(right, terminal_free[right])
            )
        joined = state[len(size) - 1][2]
        return joined - 1 if joined > 0 else -1

    def column(target: int, groups: list[list[int]]) -> list[int]:
        # a singleton class has no pair with itself
        return [
            0 if members[0] == target and size[target] == 1 else longest(members[0], target)
            for members in groups
        ]

    return _by_target_orbits(quotient, column)


def orbit_search(quotient: TwinQuotient, deadline: float) -> np.ndarray:
    """The class matrix of any graph by the orbit state search; -1 marks a pair with no path.

    `deadline` is a `time.monotonic()` value, checked at every state.
    """
    adj, sizes = quotient.adj, quotient.sizes

    def column(target: int, groups: list[list[int]]) -> list[int]:
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

        # endpoints leave their classes; a singleton class has no pair with itself
        start[0] -= 1
        lengths = []
        for g, members in enumerate(groups):
            counts = start.copy()
            at = base[g] if single[g] else base[g] + size[g]
            counts[at] -= 1
            own = counts[at] if single[g] else size[g] - 1
            if own < 0:
                lengths.append(0)
                continue
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

    return _by_target_orbits(quotient, column)
