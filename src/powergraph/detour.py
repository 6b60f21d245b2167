"""Exact detour (longest simple path) distances via a twin-class quotient search.

A naive DFS is factorial in the clique sizes these graphs carry.  Vertices in
one twin class are interchangeable (any transposition inside a class is a
graph automorphism), so a path is determined up to automorphism by its
sequence of twin classes, and the search runs over (current class, remaining
count per class) states instead of individual vertices.  The same argument
makes the detour distance a function of the endpoint classes only, so the
result is a k x k class matrix.  The longest way on from a state depends on
the target class alone, so the states of one target's search are memoised
once and shared by every source class.  The search walks the states with an
explicit stack, not recursion, so no path is too long for it.

The quotient has automorphisms of its own.  Call two classes a != b
interchangeable when their size, closedness and `adj` diagonal are equal and
they agree on every class other than a and b.  Mapping the members of a onto
those of b and back then preserves every edge, so the transposition (a b) of
classes is a graph automorphism.  Interchangeability is an equivalence
relation; its classes are the orbits, and the transpositions inside an orbit
generate every permutation of it.  Hence:

* `value[s, t'] = value[sigma(s), t]` for the transposition sigma = (t t'), so
  one search per orbit of target classes gives the whole detour matrix;
* within the search for target t, every permutation of an orbit with t
  removed fixes t and maps a state to one with the same longest way on.  Call
  these orbits with t removed the groups, and t a group of its own.  A state
  is memoised as (group of the current class, the current class's own
  remaining count, one slot per group): a singleton group's slot is its
  remaining count, a larger group's slot is the histogram of how many of its
  classes other than the current one have 0, 1, ..., s vertices left (all
  classes of an orbit have the same size s).  Two (class, remaining count per
  class) states have the same histogram state exactly when permutations
  inside the groups map one onto the other, so this is the canonical state
  under those automorphisms (the current class first in its group, the other
  counts sorted), kept without sorting anything.

Interchangeable classes agree on every other class, and two classes of one
orbit are all adjacent or all not, so adjacency is a function of the groups.
A step onto a larger group takes one class with a given count, once per
distinct count present; leaving a class returns its count to its group's
histogram.  Each such step reaches exactly the states the per-class steps
reach up to automorphism.  Nothing is pruned on a dominance argument, so the
result stays exact.
"""

from __future__ import annotations

import time

import numpy as np

from .graphs import Graph, TwinQuotient


class DetourBudgetError(RuntimeError):
    """Exact search exceeded its time budget; no approximation is substituted."""


def quotient_orbits(quotient: TwinQuotient) -> list[list[int]]:
    """Orbits of interchangeable quotient classes, each sorted, ordered by first member.

    Classes are interchangeable when their size, closedness and `adj`
    diagonal agree and so do their adjacencies to every other class.  As in
    `twin_classes`, rows are grouped by an open fingerprint (own entry
    cleared, for non-adjacent pairs) and a closed one (own entry set, for
    adjacent pairs); no class is in a non-trivial group of both kinds.
    """
    k = len(quotient.sizes)
    groups: dict[tuple, list[int]] = {}
    for a, (size, closed) in enumerate(zip(quotient.sizes, quotient.closed)):
        row = quotient.adj[a].copy()
        label = (size, closed, quotient.adj[a, a])
        for own in (False, True):
            row[a] = own
            groups.setdefault((label, own, row.tobytes()), []).append(a)
    orbits = [members for members in groups.values() if len(members) > 1]
    placed = {a for members in orbits for a in members}
    orbits += [[a] for a in range(k) if a not in placed]
    orbits.sort()
    return orbits


def detour_matrix(graph: Graph, time_budget_s: float = 60.0) -> np.ndarray:
    """k x k class matrix of longest simple path lengths (int64); exact, never approximated.

    Entry (a, b) is the detour distance between any member of twin class a
    and any other member of class b; the diagonal is the within-class value,
    0 for a singleton.  `graph.quotient.lift` gives the vertex matrix.
    Raises DetourBudgetError when the quotient search cannot finish within
    `time_budget_s` seconds, its only limit, and ValueError when some pair
    has no path (the search marks it -1).
    """
    deadline = time.monotonic() + time_budget_s
    quotient = graph.quotient
    adj, sizes = quotient.adj, quotient.sizes
    k = len(sizes)
    orbits = quotient_orbits(quotient)
    value = np.zeros((k, k), dtype=np.int64)
    for orbit in orbits:
        target = orbit[0]
        # the orbits of the automorphisms that fix the target, the target first
        groups = [[target]] + [o for o in ([c for c in orb if c != target] for orb in orbits) if o]
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
        for g, members in enumerate(groups):
            counts = start.copy()
            at = base[g] if single[g] else base[g] + size[g]
            counts[at] -= 1
            own = counts[at] if single[g] else size[g] - 1
            if own < 0:
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
            value[members, target] = memo[root]
        for other in orbit[1:]:
            swap = list(range(k))
            swap[target], swap[other] = other, target
            value[:, other] = value[swap, target]
    if (value < 0).any():
        raise ValueError("graph is disconnected; detour distances are undefined")
    return value
