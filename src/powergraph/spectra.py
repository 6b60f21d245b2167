"""Symmetric eigensolving, spectra from the twin and orbit quotients, family closed forms.

Spectra follow the two-stage pattern used throughout: twin classes
contribute eigenvalue families with known multiplicities, and the remaining
eigenvalues come from a small quotient matrix over the vertex classes,
assembled in symmetrized form with class-size weights sqrt(n_i) so a plain
symmetric eigensolver applies.  `solve_quotient` does this for any graph
twice over: on its twin classes, and then on their orbits of
interchangeable classes, so it solves one m x m matrix, m the number of
orbits (5 on the family, where the N/4 blade classes form one orbit).  The
closed forms do it for the family on its 5 vertex classes.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .graphs import Graph
from .groups import GroupParams
from .matrices import check_alpha


class EigensolverError(RuntimeError):
    """Eigensolver failed to converge or input violated its contract."""


def _require_symmetric(matrix: np.ndarray) -> np.ndarray:
    matrix = np.asarray(matrix, dtype=np.float64)
    if matrix.ndim != 2 or matrix.shape[0] != matrix.shape[1]:
        raise EigensolverError("matrix must be square")
    if not np.array_equal(matrix, matrix.T):
        raise EigensolverError("matrix is not symmetric")
    return matrix


def sym_eigenvalues(matrix: np.ndarray) -> np.ndarray:
    """Eigenvalues of a symmetric matrix, sorted descending.

    Backed by LAPACK's orthogonal-similarity diagonalization (numpy eigvalsh);
    non-convergence surfaces as EigensolverError.
    """
    matrix = _require_symmetric(matrix)
    try:
        values = np.linalg.eigvalsh(matrix)
    except np.linalg.LinAlgError as exc:
        raise EigensolverError(f"eigensolver did not converge: {exc}") from exc
    return values[::-1].copy()


@dataclass(frozen=True)
class SpectralLine:
    value: float
    multiplicity: int
    source: str


@dataclass(frozen=True)
class Spectrum:
    """Multiset of eigenvalues with multiplicities and provenance tags."""

    lines: tuple[SpectralLine, ...]

    def values(self) -> np.ndarray:
        """Expanded value list, sorted descending."""
        out: list[float] = []
        for line in self.lines:
            out.extend([line.value] * line.multiplicity)
        return np.array(sorted(out, reverse=True))

    def merged(self, tol: float) -> list[tuple[float, int]]:
        """(value, multiplicity) clusters after merging values closer than tol."""
        return cluster_values(self.values(), tol)

    @classmethod
    def from_lines(cls, lines: list[tuple[float, int, str]]) -> "Spectrum":
        kept = tuple(SpectralLine(float(v), int(m), s) for v, m, s in lines if m > 0)
        return cls(tuple(sorted(kept, key=lambda ln: -ln.value)))


def cluster_values(values: np.ndarray, tol: float) -> list[tuple[float, int]]:
    """Group a descending value list into clusters separated by gaps > tol: (mean, size) each.

    The runs are split where the gap exceeds tol.  A one-value run is its own
    mean and only the few longer runs take `mean` of their slice, so each mean
    is bit-for-bit that of a per-run `mean` (`np.add.reduceat` sums in another
    order).
    """
    values = np.sort(np.asarray(values, dtype=np.float64))[::-1]
    if not values.size:
        return []
    splits = np.flatnonzero(values[:-1] - values[1:] > tol) + 1
    starts, stops = np.concatenate(([0], splits)), np.append(splits, values.size)
    means = values[starts]
    for run in np.flatnonzero(stops - starts > 1):
        means[run] = values[starts[run] : stops[run]].mean()
    return list(zip(means.tolist(), (stops - starts).tolist()))


def class_reciprocals(graph: Graph) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(1/d between twin classes, 1/d inside each class, reciprocal transmission per class).

    All three come from the twin quotient's k x k class distances: the off
    diagonal gives the first array, whose own diagonal is zero, and the
    diagonal gives the second, where a singleton class has no within-class
    distance and gets 0.
    """
    quotient = graph.quotient
    dist = quotient.dist.astype(np.float64)
    sizes = np.array(quotient.sizes, dtype=np.float64)
    within = np.divide(1.0, dist.diagonal(), out=np.zeros_like(sizes), where=sizes > 1)
    np.fill_diagonal(dist, np.inf)
    between = 1.0 / dist
    return between, within, between @ sizes + (sizes - 1.0) * within


def _class_entries(graph: Graph, kind: str, alpha: float) -> tuple[np.ndarray, ...]:
    """(diagonal, within-class, between-class k x k) entries of A_alpha or RD_alpha.

    Twin classes are modules, so each entry depends on the classes of its row
    and column only: `between[a, b]` is the entry for any member of a and any
    member of b != a, `within[a]` the entry for two members of a.
    """
    alpha = check_alpha(alpha)
    quotient = graph.quotient
    if kind == "adjacency":
        adj = quotient.adj.astype(np.float64)
        within = (1.0 - alpha) * np.diag(adj)
        np.fill_diagonal(adj, 0.0)
        return alpha * quotient.degrees(quotient.adj), within, (1.0 - alpha) * adj
    if kind == "reciprocal":
        between, within, transmissions = class_reciprocals(graph)
        return alpha * transmissions, (1.0 - alpha) * within, (1.0 - alpha) * between
    raise ValueError(f"unknown spectrum kind {kind!r}; choose adjacency or reciprocal")


def _twin_lines(graph: Graph, diagonal, within) -> list[tuple[float, int, str]]:
    """A class of size s contributes diagonal - within with multiplicity s - 1.

    The eigenvectors are the vectors on the class that sum to zero; equal
    values of one twin kind are merged into one line.
    """
    merged: dict[tuple[float, str], int] = {}
    quotient = graph.quotient
    for size, closed, d, w in zip(quotient.sizes, quotient.closed, diagonal, within):
        if size > 1:
            key = (float(d - w), "twin-closed" if closed else "twin-open")
            merged[key] = merged.get(key, 0) + size - 1
    return [(v, m, s) for (v, s), m in merged.items()]


def twin_eigenvalues(graph: Graph, kind: str, alpha: float) -> Spectrum:
    """Eigenvalues of A_alpha or RD_alpha (`kind` as in `solve_quotient`) forced by twin classes.

    For A_alpha an open class of size l+1 contributes alpha*deg with
    multiplicity l, a closed class alpha*deg - (1 - alpha).
    """
    diagonal, within, _ = _class_entries(graph, kind, alpha)
    return Spectrum.from_lines(_twin_lines(graph, diagonal, within))


def solve_quotient(graph: Graph, kind: str, alpha: float) -> Spectrum:
    """The A_alpha or RD_alpha spectrum of a graph, from its twin classes and then their orbits.

    Twins.  The twin partition is equitable (twin classes are modules), so
    the n eigenvalues are the twin lines (`_twin_lines`: a class of size s
    gives diagonal - within with multiplicity s - 1) plus the k eigenvalues of
    the class quotient B[a, b] = s_b * between[a, b], B[a, a] = diagonal[a] +
    (s_a - 1) * within[a], whose symmetric form is sqrt(s_a s_b) between[a, b].

    Orbits.  A transposition of two classes in one orbit (`TwinQuotient.orbits`)
    is an automorphism of the weighted quotient, so it maps that symmetric
    form onto itself.  Within an orbit of c classes of size s the diagonal is
    then one value B[a, a] and the entry between two classes one value
    s * between[a, a'], and a class outside the orbit has one entry towards
    all of it.  So a vector on the orbit that sums to zero is an eigenvector
    for B[a, a] - s * between[a, a']: the rows outside the orbit sum it to
    zero.  That is c - 1 roots per orbit.  The orbit partition is equitable
    too, so the vectors constant on each orbit are invariant and give the
    other m roots, one per orbit: those of the m x m orbit quotient,
    symmetrised by the orbits' vertex counts W = c * s, with
    sqrt(W_I W_J) between[a_I, a_J] off the diagonal and B[a, a] + (c - 1) *
    s * between[a, a'] on it.  Only entries at the orbit representatives a,
    a' are read; the eigensolve is m x m (5 x 5 on the family, whose N/4
    blade classes form one orbit).  RD_alpha needs a connected graph.
    """
    diagonal, within, between = _class_entries(graph, kind, alpha)
    quotient = graph.quotient
    reps = [orbit[0] for orbit in quotient.orbits]
    mates = [orbit[-1] for orbit in quotient.orbits]  # the representative itself when c = 1
    copies = np.array([len(orbit) for orbit in quotient.orbits], dtype=np.float64)
    sizes = np.array(quotient.sizes, dtype=np.float64)[reps]
    own = diagonal[reps] + (sizes - 1.0) * within[reps]
    mate = sizes * between[reps, mates]  # zero when c = 1: `between` has a zero diagonal
    weight = np.sqrt(copies * sizes)
    matrix = between[np.ix_(reps, reps)] * np.outer(weight, weight)
    np.fill_diagonal(matrix, own + (copies - 1.0) * mate)
    lines = _twin_lines(graph, diagonal, within)
    lines += [(v, len(o) - 1, "orbit") for v, o in zip((own - mate).tolist(), quotient.orbits)]
    lines += [(v, 1, "quotient-root") for v in sym_eigenvalues(matrix).tolist()]
    return Spectrum.from_lines(lines)


# family closed forms ---------------------------------------------------


def _family_counts(params: GroupParams) -> tuple[int, int, int]:
    """(rotation order N, half N/2, quarter N/4)."""
    n = params.rotation_order
    return n, n // 2, n // 4


def a_alpha_families(params: GroupParams, alpha: float) -> list[tuple[float, int, str]]:
    n, half, quarter = _family_counts(params)
    return [
        (alpha, half - 1, "family"),
        (alpha * n - 1.0, n - 3, "family"),
        (4.0 * alpha - 1.0, quarter, "family"),
        (2.0 * alpha + 1.0, quarter - 1, "family"),
    ]


def a_alpha_quotient_matrix(params: GroupParams, alpha: float) -> np.ndarray:
    """Symmetrized 5x5 quotient of A_alpha over the classes [H2, e, T2, u, H3].

    Entry (i, j) is the per-vertex block row sum scaled by sqrt(n_i / n_j);
    its eigenvalues are the five A_alpha eigenvalues outside the twin families.
    """
    n, half, _ = _family_counts(params)
    b = 1.0 - alpha
    order = 2 * n
    sh = math.sqrt(half)
    st = math.sqrt(n - 2)
    return np.array(
        [
            [alpha, sh * b, 0.0, 0.0, 0.0],
            [sh * b, alpha * (order - 1), st * b, b, sh * b],
            [0.0, st * b, alpha * (n - 1) + b * (n - 3), st * b, 0.0],
            [0.0, b, st * b, alpha * (3 * half - 1), sh * b],
            [0.0, sh * b, 0.0, sh * b, 2.0 * alpha + 1.0],
        ]
    )


def a_alpha_closed_form(params: GroupParams, alpha: float) -> Spectrum:
    """Complete predicted A_alpha spectrum: four twin families plus the quotient."""
    lines = a_alpha_families(params, alpha)
    for value in sym_eigenvalues(a_alpha_quotient_matrix(params, alpha)):
        lines.append((float(value), 1, "quotient-root"))
    return Spectrum.from_lines(lines)


def quintic_coefficients(params: GroupParams, alpha: float) -> np.ndarray:
    """Printed degree-5 polynomial for the quotient eigenvalues, highest power first.

    Transcribed exactly as published; `quintic_transcription_check` measures it
    against the quotient eigenvalues instead of trusting it.
    """
    a = alpha
    K = float(1 << params.k)
    P = float(params.p)
    c4 = (7 * K / 2 * P + 3) * a + K * P - 2
    c3 = (
        (-3 * K**2 * P**2 - 21 * K / 2 * P - 2) * a**2
        + (-7 * K**2 / 2 * P**2 - K * P + 8) * a
        + 5 * K / 2 * P
    )
    c2 = (
        (9 * K**2 * P**2 + 7 * K * P) * a**3
        + (3 * K**3 * P**3 + 23 * K**2 / 2 * P**2 - 6 * K * P - 6) * a**2
        + (K**2 / 2 * P**2 - 23 * K * P + 6) * a
        - 3 * K**2 / 2 * P**2
        + 4 * K * P
        + 2
    )
    c1 = (
        -6 * K**2 * P**2 * a**4
        + (-13 * K**3 / 2 * P**3 - 59 * K**2 / 4 * P**2 + 10 * K * P) * a**3
        + (-8 * K**3 * P**3 + 105 * K**2 / 4 * P**2 + 45 * K / 2 * P - 6) * a**2
        + (5 * K**3 / 2 * P**3 + 9 * K**2 / 4 * P**2 - 20 * K * P) * a
        - 5 * K**2 / 4 * P**2
        + 3 * K / 2 * P
        + 1
    )
    c0 = (
        -(3 * K**3 * P**3 + 15 * K**2 / 2 * P**2) * a**4
        - (31 * K**3 / 4 * P**3 - 95 * K**2 / 4 * P**2 - 2 * K * P) * a**3
        - (-(K**3) / 4 * P**3 - 37 * K**2 / 4 * P**2 + 18 * K * P - 2) * a**2
        - (-7 * K**3 / 4 * P**3 + 25 * K**2 / 4 * P**2 - 3 * K / 2 * P - 1) * a
        - K**3 / 4 * P**3
        + K**2 / 4 * P**2
        + K * P
    )
    return np.array([1.0, -c4, -c3, -c2, -c1, c0])


@dataclass(frozen=True)
class TranscriptionCheck:
    """Result of measuring a published formula against the derived values."""

    max_relative_residual: float
    matches: bool
    diagnostic: str | None

    def to_json_dict(self) -> dict:
        return {
            "max_relative_residual": self.max_relative_residual,
            "matches": self.matches,
            "diagnostic": self.diagnostic,
        }


def quintic_transcription_check(
    params: GroupParams, alpha: float, rel_tol: float = 1e-4
) -> TranscriptionCheck:
    """Evaluate the printed quintic at the five quotient eigenvalues.

    A large residual means the published coefficients disagree with the
    quotient route; the numeric full-matrix spectrum is the arbiter, so a
    mismatch is reported as a diagnostic rather than trusted either way.
    """
    coeffs = quintic_coefficients(params, alpha)
    xs = sym_eigenvalues(a_alpha_quotient_matrix(params, alpha))
    worst = 0.0
    for x in xs:
        scale = max(1.0, float(np.polyval(np.abs(coeffs), abs(x))))
        worst = max(worst, abs(float(np.polyval(coeffs, x))) / scale)
    if worst <= rel_tol:
        return TranscriptionCheck(worst, True, None)
    return TranscriptionCheck(
        worst,
        False,
        "published-coefficient mismatch: printed quintic does not vanish on the "
        f"quotient eigenvalues (max relative residual {worst:.3e}); "
        "the numeric spectrum is the arbiter",
    )


# reciprocal-distance closed forms ---------------------------------------


def rd_alpha_families(params: GroupParams, alpha: float) -> list[tuple[float, int, str]]:
    n, half, quarter = _family_counts(params)
    b = 1.0 - alpha
    return [
        (alpha * (1 + n), quarter - 1, "family"),
        ((n + 2) * alpha - 1.0, quarter - 1, "family"),
        (alpha * n - b / 2.0, half - 1, "family"),
        ((n + 1) * alpha - b, 1, "family"),
        (alpha * (3 * half - 1) - b, n - 3, "family"),
    ]


def rd_alpha_quotient_matrix(params: GroupParams, alpha: float) -> np.ndarray:
    """Derived symmetrized 5x5 quotient of RD_alpha, classes [e, u, H2, H3, T2].

    Assembled from the reciprocal transmissions and the class distances (all
    1 or 2); matches the published matrix except for the H3 diagonal entry,
    where the published value repeats the H2 one (see the printed variant).
    """
    n, half, quarter = _family_counts(params)
    b = 1.0 - alpha
    order = 2 * n
    sh = math.sqrt(half)
    st = math.sqrt(n - 2)
    sht = math.sqrt(half * (n - 2))
    return np.array(
        [
            [alpha * (order - 1), b, sh * b, sh * b, st * b],
            [b, alpha * (7 * quarter - 1), sh * b / 2, sh * b, st * b],
            [sh * b, sh * b / 2, alpha * n + (half - 1) * b / 2, half * b / 2, sht * b / 2],
            [sh * b, sh * b, half * b / 2, alpha * (n + 1) + quarter * b, sht * b / 2],
            [st * b, st * b, sht * b / 2, sht * b / 2, alpha * (3 * half - 1) + (n - 3) * b],
        ]
    )


def rd_alpha_quotient_matrix_printed(params: GroupParams, alpha: float) -> np.ndarray:
    """The published 5x5 quotient verbatim (H3 diagonal equal to the H2 one)."""
    n, half, _ = _family_counts(params)
    out = rd_alpha_quotient_matrix(params, alpha)
    out[3, 3] = alpha * n + (half - 1) * (1.0 - alpha) / 2
    return out


def rd_alpha_closed_form(params: GroupParams, alpha: float) -> Spectrum:
    """Complete predicted RD_alpha spectrum: five families plus the quotient."""
    lines = rd_alpha_families(params, alpha)
    for value in sym_eigenvalues(rd_alpha_quotient_matrix(params, alpha)):
        lines.append((float(value), 1, "quotient-root"))
    return Spectrum.from_lines(lines)


def rd_quotient_transcription_check(
    params: GroupParams, alpha: float, tol: float = 1e-8
) -> TranscriptionCheck:
    """Compare the published 5x5 quotient against the derived one, entrywise."""
    derived = rd_alpha_quotient_matrix(params, alpha)
    printed = rd_alpha_quotient_matrix_printed(params, alpha)
    gap = float(np.abs(derived - printed).max())
    scale = max(1.0, float(np.abs(derived).max()))
    rel = gap / scale
    if rel <= tol:
        return TranscriptionCheck(rel, True, None)
    return TranscriptionCheck(
        rel,
        False,
        "published-coefficient mismatch: published reciprocal-distance quotient "
        f"differs from the derived one by {gap:.3e} (H3 diagonal entry); "
        "the numeric spectrum is the arbiter",
    )
