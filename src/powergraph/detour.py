"""Exact detour (longest simple path) distances via a twin-class quotient search.

A naive DFS is factorial in the clique sizes these graphs carry.  Vertices in
one twin class are interchangeable (any transposition inside a class is a
graph automorphism), so a path is determined up to automorphism by its
sequence of twin classes, and the search runs over (current class, remaining
count per class) states instead of individual vertices.  The same argument
makes the detour distance a function of the endpoint classes only, so one
search per ordered class pair fills the whole matrix.
"""

from __future__ import annotations

import time
from functools import lru_cache

import numpy as np

from .graphs import Graph, TwinQuotient


class DetourBudgetError(RuntimeError):
    """Exact search exceeded its time budget; no approximation is substituted."""


def _longest_path_classes(
    quotient: TwinQuotient,
    source_class: int,
    target_class: int,
    counts: tuple[int, ...],
    deadline: float,
) -> int:
    """Longest s-t path length over class states; -1 when t is unreachable.

    `counts` holds the usable intermediate vertices per class (source and
    target already removed).  Stepping onto the target terminates the path.
    """
    adj = quotient.adj
    k = len(counts)

    @lru_cache(maxsize=None)
    def best(cls: int, remaining: tuple[int, ...]) -> int:
        if time.monotonic() > deadline:
            raise DetourBudgetError("detour search exceeded its time budget")
        top = -1
        if adj[cls][target_class]:
            top = 1
        for nxt in range(k):
            if remaining[nxt] and adj[cls][nxt]:
                rest = best(nxt, remaining[:nxt] + (remaining[nxt] - 1,) + remaining[nxt + 1 :])
                if rest >= 0 and rest + 1 > top:
                    top = rest + 1
        return top

    # prune: drop classes unreachable from the source or with no route to the
    # target through still-available classes
    usable = [counts[c] > 0 for c in range(k)]
    usable[source_class] = usable[target_class] = True
    reach_s = _reachable(adj, source_class, usable)
    reach_t = _reachable(adj, target_class, usable)
    trimmed = tuple(
        counts[c] if (reach_s[c] and reach_t[c]) else 0 for c in range(k)
    )
    if not (reach_s[target_class] and reach_t[source_class]):
        return -1
    return best(source_class, trimmed)


def _reachable(adj: list[list[bool]], start: int, usable: list[bool]) -> list[bool]:
    seen = [False] * len(adj)
    seen[start] = True
    stack = [start]
    while stack:
        v = stack.pop()
        for w in range(len(adj)):
            if not seen[w] and adj[v][w] and usable[w]:
                seen[w] = True
                stack.append(w)
    return seen


def detour_matrix(
    graph: Graph, time_budget_s: float = 60.0, quotient: TwinQuotient | None = None
) -> np.ndarray:
    """All-pairs longest simple path lengths (int64); exact, never approximated.

    Raises DetourBudgetError when the quotient search cannot finish within
    `time_budget_s` seconds.  `quotient` is the graph's TwinQuotient when the
    caller already holds it.
    """
    n = graph.n
    if n and not graph.is_connected():
        raise ValueError("graph is disconnected; detour distances are undefined")
    deadline = time.monotonic() + time_budget_s
    if quotient is None:
        quotient = TwinQuotient(graph)
    k = len(quotient.members)
    base = tuple(quotient.sizes)
    # one search per ordered class pair; endpoints leave their classes
    value: dict[tuple[int, int], int] = {}
    for ca in range(k):
        for cb in range(k):
            if ca == cb and quotient.sizes[ca] < 2:
                continue
            counts = list(base)
            counts[ca] -= 1
            counts[cb] -= 1
            length = _longest_path_classes(quotient, ca, cb, tuple(counts), deadline)
            if length < 0:
                raise ValueError("graph is disconnected; detour distances are undefined")
            value[(ca, cb)] = length
    out = np.zeros((n, n), dtype=np.int64)
    for i in range(n):
        for j in range(n):
            if i != j:
                out[i, j] = value[(quotient.class_of[i], quotient.class_of[j])]
    return out
