"""Eccentricities, radius/diameter, and (detour) distance degree sequences.

A distance degree sequence row stores the count of vertices at every distance
0 .. ec(v), interior zeros included, because the detour sequences of these
graphs are identified by their positional zero runs.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .graphs import Graph, PartitionClasses
from .groups import GroupParams
from .matrices import distance_matrix


def eccentricity_profile(
    graph: Graph, dist: np.ndarray | None = None
) -> tuple[np.ndarray, int, int]:
    """(per-vertex eccentricity, radius, diameter) from shortest-path distances."""
    if dist is None:
        dist = distance_matrix(graph)
    ecc = dist.max(axis=1)
    return ecc, int(ecc.min()), int(ecc.max())


def detour_profile(detour: np.ndarray) -> tuple[np.ndarray, int, int]:
    """(per-vertex detour eccentricity, detour radius, detour diameter)."""
    ecc = detour.max(axis=1)
    return ecc, int(ecc.min()), int(ecc.max())


@dataclass(frozen=True)
class DegreeSequenceTable:
    """Per-vertex distance count rows plus the grouped multiset of identical rows."""

    rows: tuple[tuple[int, ...], ...]
    groups: tuple[tuple[tuple[int, ...], int], ...]

    def to_json_dict(self) -> dict:
        return {
            "rows": [list(row) for row in self.rows],
            "groups": [{"sequence": list(seq), "count": count} for seq, count in self.groups],
        }

    def to_text(self) -> str:
        lines = [f"{count:>4} x {seq}" for seq, count in self.groups]
        return "\n".join(lines) + "\n"

    def to_csv(self) -> str:
        return "".join(",".join(str(x) for x in row) + "\n" for row in self.rows)

    @classmethod
    def from_distances(cls, dist: np.ndarray) -> "DegreeSequenceTable":
        rows = []
        for row in dist:
            counts = np.bincount(row)
            rows.append(tuple(int(c) for c in counts))
        counter: dict[tuple[int, ...], int] = {}
        for row in rows:
            counter[row] = counter.get(row, 0) + 1
        groups = tuple(sorted(counter.items(), key=lambda kv: (-kv[1], kv[0])))
        return cls(tuple(rows), groups)


def dds(graph: Graph, dist: np.ndarray | None = None) -> DegreeSequenceTable:
    """Distance degree sequences; every row sums to n and starts with 1."""
    if dist is None:
        dist = distance_matrix(graph)
    return DegreeSequenceTable.from_distances(dist)


def dds_detour(detour: np.ndarray) -> DegreeSequenceTable:
    """Detour distance degree sequences over a precomputed detour matrix."""
    return DegreeSequenceTable.from_distances(detour)


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


def family_detour_matrix(graph: Graph, classes: PartitionClasses, params: GroupParams) -> np.ndarray:
    """Predicted detour matrix assembled from the per-class-pair closed forms."""
    n = params.rotation_order
    half = n // 2

    kind = {v: name for name, members in classes.named().items() for v in members}
    pair_values = {
        frozenset(("e", "u")): n - 1,
        frozenset(("e", "h1")): n + 1,
        frozenset(("e", "h2")): 1,
        frozenset(("e", "h3")): n + 1,
        frozenset(("u", "h1")): n + 1,
        frozenset(("u", "h2")): n,
        frozenset(("u", "h3")): n + 1,
        frozenset(("h1",)): n + 1,
        frozenset(("h1", "h2")): n + 2,
        frozenset(("h1", "h3")): n + 3,
        frozenset(("h2",)): 2,
        frozenset(("h2", "h3")): n + 2,
    }
    out = np.zeros((graph.n, graph.n), dtype=np.int64)
    labels = graph.labels
    for i in range(graph.n):
        for j in range(i + 1, graph.n):
            ki, kj = kind[i], kind[j]
            if ki == "h3" and kj == "h3":
                partner = (labels[i].i + half) % n == labels[j].i
                value = n + 1 if partner else n + 3
            else:
                value = pair_values[frozenset((ki, kj))]
            out[i, j] = out[j, i] = value
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
    pairs = [
        (rows["e"], 1),
        (rows["u"], 1),
        (rows["h1"], n - 2),
        (rows["h2"], half),
        (rows["h3"], half),
    ]
    counter: dict[tuple[int, ...], int] = {}
    for seq, count in pairs:
        counter[seq] = counter.get(seq, 0) + count
    return tuple(sorted(counter.items(), key=lambda kv: (-kv[1], kv[0])))


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
