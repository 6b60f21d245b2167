"""Exact detour (longest simple path) distances via a twin-class quotient search.

A naive DFS is factorial in the clique sizes these graphs carry.  Vertices in
one twin class are interchangeable (any transposition inside a class is a
graph automorphism), so a path is determined up to automorphism by its
sequence of twin classes, and the search runs over (current class, remaining
count per class) states instead of individual vertices.  The same argument
makes the detour distance a function of the endpoint classes only.  The
longest way on from a state depends on the target class alone, so there is
one memoised search per target class, shared by every source class.
"""

from __future__ import annotations

import time
from functools import lru_cache

import numpy as np

from .graphs import Graph


class DetourBudgetError(RuntimeError):
    """Exact search exceeded its time budget; no approximation is substituted."""


def detour_matrix(graph: Graph, time_budget_s: float = 60.0) -> np.ndarray:
    """All-pairs longest simple path lengths (int64); exact, never approximated.

    Raises DetourBudgetError when the quotient search cannot finish within
    `time_budget_s` seconds, and ValueError when some pair has no path (the
    search marks it -1).
    """
    deadline = time.monotonic() + time_budget_s
    quotient = graph.quotient
    adj, sizes = quotient.adj, quotient.sizes
    k = len(sizes)
    value = np.zeros((k, k), dtype=np.int64)
    for target in range(k):

        @lru_cache(maxsize=None)
        def best(cls: int, remaining: tuple[int, ...]) -> int:
            """Longest path from a vertex of `cls` to the target; -1 when there is none.

            `remaining` counts the unvisited intermediate vertices per class
            (endpoints excluded); stepping onto the target ends the path.
            """
            if time.monotonic() > deadline:
                raise DetourBudgetError("detour search exceeded its time budget")
            top = 1 if adj[cls][target] else -1
            for nxt in range(k):
                if remaining[nxt] and adj[cls][nxt]:
                    rest = best(nxt, remaining[:nxt] + (remaining[nxt] - 1,) + remaining[nxt + 1 :])
                    if rest >= 0 and rest + 1 > top:
                        top = rest + 1
            return top

        # endpoints leave their classes; a singleton class has no pair with itself
        for source in range(k):
            counts = list(sizes)
            counts[source] -= 1
            counts[target] -= 1
            if counts[source] >= 0:
                value[source, target] = best(source, tuple(counts))
    out = value[np.ix_(quotient.class_of, quotient.class_of)]
    np.fill_diagonal(out, 0)
    if (out < 0).any():
        raise ValueError("graph is disconnected; detour distances are undefined")
    return out
