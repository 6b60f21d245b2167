"""Eccentricities, radius/diameter, and (detour) distance degree sequences.

Distances and detour distances are k x k matrices over the twin classes, with
the within-class value on the diagonal (0 for a singleton).  Every table keeps
its k class rows and `class_of`, and its renderings are per class, never per
vertex.  A row stores the count of vertices at every distance 0 .. ec(v),
interior zeros included, because the detour sequences of these graphs are
identified by their positional zero runs.  The family's predicted detour
matrix is a table over the class types of the predicted twin quotient
(`graphs.predicted_quotient`).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .graphs import Graph, TwinQuotient
from .groups import GroupParams


def detour_profile(detour: np.ndarray) -> tuple[np.ndarray, int, int]:
    """(eccentricity of each row, radius, diameter); a class matrix's rows are its classes."""
    ecc = detour.max(axis=1)
    return ecc, int(ecc.min()), int(ecc.max())


@dataclass(frozen=True)
class DegreeSequenceTable:
    """Distance count rows of the twin classes plus the grouped multiset of identical rows.

    `class_rows[a]` is the row of every vertex of class a and `class_of[v]`
    the class of vertex v, so vertex v's row is `class_rows[class_of[v]]`.
    """

    class_rows: tuple[tuple[int, ...], ...]
    class_of: tuple[int, ...]
    groups: tuple[tuple[tuple[int, ...], int], ...]

    def to_json_dict(self) -> dict:
        """The groups, and `group_of[a]`, the index in `groups` of class a's row."""
        index = {seq: idx for idx, (seq, _) in enumerate(self.groups)}
        return {
            "groups": [{"sequence": list(seq), "count": count} for seq, count in self.groups],
            "group_of": [index[row] for row in self.class_rows],
        }

    def to_text(self) -> str:
        lines = [f"{count:>4} x {seq}" for seq, count in self.groups]
        return "\n".join(lines) + "\n"

    def to_csv(self) -> str:
        """One line per class row."""
        return "".join(",".join(map(str, row)) + "\n" for row in self.class_rows)

    @classmethod
    def from_classes(cls, quotient: TwinQuotient, matrix: np.ndarray) -> "DegreeSequenceTable":
        """Table of a k x k class matrix of distances (or detour distances).

        A vertex of class a sees `sizes[b]` vertices at `matrix[a, b]`, except
        in its own class: itself at 0 and the other members at `matrix[a, a]`.
        """
        sizes = np.array(quotient.sizes)
        class_rows = []
        for a, row in enumerate(matrix):
            counts = np.bincount(row, weights=sizes).astype(np.int64)
            counts[row[a]] -= 1
            counts[0] += 1
            class_rows.append(tuple(counts.tolist()))
        groups = _grouped(zip(class_rows, quotient.sizes))
        return cls(tuple(class_rows), tuple(quotient.class_of.tolist()), groups)


def _grouped(pairs) -> tuple[tuple[tuple[int, ...], int], ...]:
    """(sequence, count) pairs summed per sequence, by descending count, then sequence."""
    counter: dict[tuple[int, ...], int] = {}
    for seq, count in pairs:
        counter[seq] = counter.get(seq, 0) + count
    return tuple(sorted(counter.items(), key=lambda kv: (-kv[1], kv[0])))


def dds(graph: Graph) -> DegreeSequenceTable:
    """Distance degree sequences; every row sums to n and starts with 1."""
    return DegreeSequenceTable.from_classes(graph.quotient, graph.quotient.dist)


# family predictions -----------------------------------------------------


def family_detour_eccentricities(params: GroupParams) -> dict[str, int]:
    """Predicted detour eccentricity per vertex class, with radius and diameter."""
    n = params.rotation_order
    return {
        "e": n + 1,
        "u": n + 1,
        "h1": n + 3,
        "h2": n + 2,
        "h3": n + 3,
        "radius": n + 1,
        "diameter": n + 3,
    }


def family_detour_matrix(types: np.ndarray, params: GroupParams) -> np.ndarray:
    """Predicted k x k class detour matrix over the classes of `graphs.predicted_quotient`.

    `types` are that quotient's class types.  Off the diagonal an entry is
    the closed form for the two types (two blades are at N + 3); the diagonal
    is 0 for e and u, N + 1 in h1, 2 in h2 and N + 1 inside a blade.
    """
    n = params.rotation_order
    table = np.array([  # rows and columns e, u, h1, h2, h3
        [0, n - 1, n + 1, 1, n + 1],
        [n - 1, 0, n + 1, n, n + 1],
        [n + 1, n + 1, n + 1, n + 2, n + 3],
        [1, n, n + 2, 2, n + 2],
        [n + 1, n + 1, n + 3, n + 2, n + 3],
    ])
    out = table[np.ix_(types, types)]
    np.fill_diagonal(out, np.array([0, 0, n + 1, 2, n + 1])[types])
    return out


def family_dds_rows(params: GroupParams) -> dict[str, tuple[int, ...]]:
    """Published distance degree sequences for the unambiguous classes e, u, h1."""
    n = params.rotation_order
    half = n // 2
    return {
        "e": (1, 2 * n - 1),
        "u": (1, 3 * half - 1, half),
        "h1": (1, n - 1, n),
    }


def family_dds_groups(params: GroupParams) -> tuple[tuple[tuple[int, ...], int], ...]:
    """The published dds multiset as printed: three shapes, one raised to n - 2.

    The involutions and order-4 elements have their own shapes (1, 1, 2n - 2)
    and (1, 3, 2n - 4) which the printed multiset does not list; callers
    compare rather than assert.
    """
    n = params.rotation_order
    rows = family_dds_rows(params)
    return ((rows["e"], 1), (rows["u"], 1), (rows["h1"], n - 2))


def family_dds_detour_rows(params: GroupParams) -> dict[str, tuple[int, ...]]:
    """Published detour distance degree sequences for all five classes."""
    n = params.rotation_order
    half = n // 2
    return {
        "e": (1, half) + (0,) * (n - 3) + (1, 0, 3 * half - 2),
        "u": (1,) + (0,) * (n - 2) + (1, half, 3 * half - 2),
        "h1": (1,) + (0,) * n + (n - 1, half, half),
        "h2": (1, 1, half - 1) + (0,) * (n - 3) + (1, 0, 3 * half - 2),
        "h3": (1,) + (0,) * n + (3, half, 3 * half - 4),
    }


def family_dds_detour_groups(params: GroupParams) -> tuple[tuple[tuple[int, ...], int], ...]:
    n = params.rotation_order
    half = n // 2
    rows = family_dds_detour_rows(params)
    counts = {"e": 1, "u": 1, "h1": n - 2, "h2": half, "h3": half}
    return _grouped((rows[name], count) for name, count in counts.items())


def compare_groupings(
    computed: tuple[tuple[tuple[int, ...], int], ...],
    predicted: tuple[tuple[tuple[int, ...], int], ...],
) -> dict:
    """Side-by-side diff of two sequence multisets; differences are reported, not raised."""
    comp = dict(computed)
    pred = dict(predicted)
    only_computed = [
        [list(seq), count] for seq, count in sorted(comp.items()) if seq not in pred
    ]
    only_predicted = [
        [list(seq), count] for seq, count in sorted(pred.items()) if seq not in comp
    ]
    count_differs = [
        [list(seq), comp[seq], pred[seq]]
        for seq in sorted(set(comp) & set(pred))
        if comp[seq] != pred[seq]
    ]
    return {
        "matches": not (only_computed or only_predicted or count_differs),
        "only_computed": only_computed,
        "only_predicted": only_predicted,
        "count_differs": count_differs,
    }
