"""Exact detour (longest simple path) distances via a twin-class quotient search.

A naive DFS is factorial in the clique sizes these graphs carry.  Vertices in
one twin class are interchangeable (any transposition inside a class is a
graph automorphism), so a path is determined up to automorphism by its
sequence of twin classes, and the search runs over (current class, remaining
count per class) states instead of individual vertices.  The same argument
makes the detour distance a function of the endpoint classes only.  The
longest way on from a state depends on the target class alone, so the states
of one target's search are memoised once and shared by every source class.

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
  removed fixes t and maps a state to one with the same longest way on.  Each
  state is memoised under a canonical representative: in every such orbit,
  the current class moves to the orbit's first member with its own count, and
  the other members' counts are sorted.  Of several steps onto orbit members
  with equal counts, which lead to equivalent states, only one is taken.
  Nothing is pruned on a dominance argument, so the result stays exact.
"""

from __future__ import annotations

import sys
import time
from functools import lru_cache

import numpy as np

from .graphs import Graph, TwinQuotient


class DetourBudgetError(RuntimeError):
    """Exact search exceeded its time budget; no approximation is substituted."""


class DetourDepthError(DetourBudgetError):
    """Exact search needs a deeper recursion (one frame per path step) than Python allows."""


def quotient_orbits(quotient: TwinQuotient) -> list[list[int]]:
    """Orbits of interchangeable quotient classes, each sorted, ordered by first member.

    Classes are interchangeable when their size, closedness and `adj`
    diagonal agree and so do their adjacencies to every other class.  As in
    `twin_classes`, rows are grouped by an open fingerprint (own entry
    cleared, for non-adjacent pairs) and a closed one (own entry set, for
    adjacent pairs); no class is in a non-trivial group of both kinds.
    """
    k = len(quotient.sizes)
    adj = np.array(quotient.adj, dtype=bool).reshape(k, k)
    groups: dict[tuple, list[int]] = {}
    for a, (size, closed) in enumerate(zip(quotient.sizes, quotient.closed)):
        row = adj[a].copy()
        label = (size, closed, quotient.adj[a][a])
        for own in (False, True):
            row[a] = own
            groups.setdefault((label, own, row.tobytes()), []).append(a)
    orbits = [members for members in groups.values() if len(members) > 1]
    placed = {a for members in orbits for a in members}
    orbits += [[a] for a in range(k) if a not in placed]
    orbits.sort()
    return orbits


def detour_matrix(graph: Graph, time_budget_s: float = 60.0) -> np.ndarray:
    """All-pairs longest simple path lengths (int64); exact, never approximated.

    Raises DetourBudgetError when the quotient search cannot finish within
    `time_budget_s` seconds, DetourDepthError when a path is longer than
    Python's recursion limit allows (past about 1000 vertices on the family),
    and ValueError when some pair has no path (the search marks it -1).
    """
    deadline = time.monotonic() + time_budget_s
    quotient = graph.quotient
    adj, sizes = quotient.adj, quotient.sizes
    k = len(sizes)
    orbits = quotient_orbits(quotient)
    steps = [[nxt for nxt in range(k) if adj[cls][nxt]] for cls in range(k)]
    value = np.zeros((k, k), dtype=np.int64)
    for orbit in orbits:
        target = orbit[0]
        # the orbits of the automorphisms that fix the target
        movable = [o for o in ([c for c in orb if c != target] for orb in orbits) if len(o) > 1]
        earlier = [None] * k  # the preceding orbit member, whose count sorts next to this one
        for o in movable:
            for prev, c in zip(o, o[1:]):
                earlier[c] = prev

        def canonical(cls: int, counts: list[int]) -> tuple[int, tuple[int, ...]]:
            """The representative of (cls, counts) under the orbit permutations; rewrites `counts`."""
            for o in movable:
                rest = o
                if cls in o:
                    counts[cls], counts[o[0]] = counts[o[0]], counts[cls]
                    cls, rest = o[0], o[1:]
                for c, v in zip(rest, sorted(counts[c] for c in rest)):
                    counts[c] = v
            return cls, tuple(counts)

        @lru_cache(maxsize=None)
        def best(cls: int, remaining: tuple[int, ...]) -> int:
            """Longest path from a vertex of `cls` to the target; -1 when there is none.

            `remaining` counts the unvisited intermediate vertices per class
            (endpoints excluded); stepping onto the target ends the path.  The
            state is canonical, so orbit members with equal counts lead to
            equivalent states and only the first of them is stepped onto.
            """
            if time.monotonic() > deadline:
                raise DetourBudgetError("detour search exceeded its time budget")
            top = 1 if adj[cls][target] else -1
            for nxt in steps[cls]:
                count = remaining[nxt]
                if not count:
                    continue
                prev = earlier[nxt]
                if prev is not None and prev != cls and remaining[prev] == count:
                    continue
                counts = list(remaining)
                counts[nxt] = count - 1
                rest = best(*canonical(nxt, counts))
                if rest >= 0 and rest + 1 > top:
                    top = rest + 1
            return top

        # endpoints leave their classes; a singleton class has no pair with itself
        for source in range(k):
            counts = list(sizes)
            counts[source] -= 1
            counts[target] -= 1
            if counts[source] >= 0:
                try:
                    value[source, target] = best(*canonical(source, counts))
                except RecursionError:
                    raise DetourDepthError(
                        f"detour search on {graph.n} vertices exceeds Python's recursion "
                        f"limit ({sys.getrecursionlimit()} frames, one per path step)"
                    ) from None
        for other in orbit[1:]:
            swap = list(range(k))
            swap[target], swap[other] = other, target
            value[:, other] = value[swap, target]
    out = value[np.ix_(quotient.class_of, quotient.class_of)]
    np.fill_diagonal(out, 0)
    if (out < 0).any():
        raise ValueError("graph is disconnected; detour distances are undefined")
    return out
