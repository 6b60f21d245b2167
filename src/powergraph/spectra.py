"""Symmetric eigensolving, spectra from the twin and orbit quotients, family closed forms.

Spectra follow the two-stage pattern used throughout: twin classes
contribute eigenvalue families with known multiplicities, and the remaining
eigenvalues come from a small quotient matrix over the vertex classes,
assembled in symmetrized form with class-size weights sqrt(n_i) so a plain
symmetric eigensolver applies.  `solve_quotient` does this for any graph
twice over: on its twin classes, and then on their orbits of
interchangeable classes, so it solves m x m matrices, m the number of
orbits (5 on the family, where the N/4 blade classes form one orbit).  The
closed forms (`closed_form`) do it for the family on its 5 vertex classes.
Each solves the quotients of every kind and alpha in one stacked call.  Every
spectrum is a `Sweep`: its lines at all alphas as arrays, and their expansion.
"""

from __future__ import annotations

import math
from typing import NamedTuple

import numpy as np

from .graphs import Graph
from .groups import GroupParams
from .matrices import check_alpha


class EigensolverError(RuntimeError):
    """Eigensolver failed to converge or input violated its contract."""


def _require_symmetric(matrices: np.ndarray) -> np.ndarray:
    matrices = np.asarray(matrices, dtype=np.float64)
    if matrices.ndim < 2 or matrices.shape[-1] != matrices.shape[-2]:
        raise EigensolverError("matrix must be square")
    if not (matrices == matrices.swapaxes(-1, -2)).all():
        raise EigensolverError("matrix is not symmetric")
    return matrices


def sym_eigenvalues(matrices: np.ndarray) -> np.ndarray:
    """Eigenvalues of a symmetric matrix, or of each matrix of a stack (..., m, m), descending.

    Backed by LAPACK's orthogonal-similarity diagonalization (numpy eigvalsh),
    one call for the whole stack; every matrix must be symmetric, and
    non-convergence surfaces as EigensolverError.
    """
    matrices = _require_symmetric(matrices)
    try:
        values = np.linalg.eigvalsh(matrices)
    except np.linalg.LinAlgError as exc:
        raise EigensolverError(f"eigensolver did not converge: {exc}") from exc
    return values[..., ::-1].copy()


def _checked(alphas) -> list[float]:
    """The alphas as floats; AlphaRangeError if any lies outside [0, 1]."""
    return [check_alpha(alpha) for alpha in alphas]


class Sweep(NamedTuple):
    """A spectrum at A alphas as arrays: row a of `values` (A, L) holds alpha a's L line values.

    Line l has multiplicity `multiplicities[l]` > 0 and tag `sources[l]`, free of alpha.
    `expanded` (A, n) holds each alpha's eigenvalues, descending, equal values (0.0 and
    -0.0 too) in line order; `quotients` (A, m, m) is the stack of the "quotient-root" lines.
    """

    values: np.ndarray
    multiplicities: np.ndarray
    sources: np.ndarray
    expanded: np.ndarray
    quotients: np.ndarray

    def rows(self, i) -> "Sweep":
        """The sweep at the alphas of rows `i` (a list of rows or a slice), in that order."""
        return self._replace(
            values=self.values[i], expanded=self.expanded[i], quotients=self.quotients[i]
        )


def _sweep(values, multiplicities, sources, quotients) -> Sweep:
    """A `Sweep` of the lines with multiplicity > 0, its expansion sorted once for every row."""
    sources, keep = np.array(sources), multiplicities > 0
    if not keep.all():
        values, multiplicities, sources = values[:, keep], multiplicities[keep], sources[keep]
    # each row's lines stably by descending value, then repeated: the expansion sorted stably
    order = (-values).argsort(axis=1, kind="stable")
    lines = values[np.arange(len(values))[:, None], order]
    expanded = np.repeat(lines, multiplicities[order].ravel()).reshape(len(values), -1)
    return Sweep(values, multiplicities, sources, expanded, quotients)


def _class_entries(graph: Graph, kind: str) -> tuple[np.ndarray, ...]:
    """(diagonal, within-class, between-class k x k) parts of A_alpha or RD_alpha, free of alpha.

    Both matrices are alpha times a diagonal plus 1 - alpha times a zero-diagonal
    matrix, and twin classes are modules, so each entry depends on alpha and
    on the classes of its row and column only: alpha * diagonal[a] on the
    diagonal, (1 - alpha) * within[a] for two members of a, and (1 - alpha) *
    between[a, b] for a member of a and one of b != a.
    """
    quotient = graph.quotient
    if kind == "adjacency":
        adj = quotient.adj.astype(np.float64)
        within = np.diag(adj).copy()
        adj.flat[:: len(adj) + 1] = 0.0
        return quotient.degrees(quotient.adj), within, adj
    if kind == "reciprocal":
        between, within, transmissions = quotient.reciprocals
        return transmissions, within, between
    raise ValueError(f"unknown spectrum kind {kind!r}; choose adjacency or reciprocal")


def _twin_lines(quotient, diagonal, within, a) -> tuple[np.ndarray, np.ndarray, list[str]]:
    """Twin lines of K kinds (rows of `diagonal`, `within`, (K, k)) at each alpha (a row of `a`).

    A class of size s gives diagonal - within, s - 1 times (its vectors that sum to zero);
    classes alike in every entry and in closedness are one line: (values (K, A, G), mults, tags).
    """
    groups: dict[tuple, list[int]] = {}  # key -> [first class, multiplicity]
    for c, key in enumerate(zip(*diagonal.tolist(), *within.tolist(), quotient.closed)):
        if quotient.sizes[c] > 1:
            groups.setdefault(key, [c, 0])[1] += quotient.sizes[c] - 1
    firsts, counts = (list(part) for part in zip(*groups.values())) if groups else ([], [])
    tags = ["twin-closed" if key[-1] else "twin-open" for key in groups]
    values = a * diagonal[:, None, firsts] - (1.0 - a) * within[:, None, firsts]
    return values, np.array(counts, dtype=np.int64), tags


def twin_eigenvalues(graph: Graph, kind: str, alphas) -> Sweep:
    """Eigenvalues of A_alpha or RD_alpha (a kind of `solve_quotient`) forced by twin classes.

    For A_alpha an open class of size l+1 contributes alpha*deg with
    multiplicity l, a closed class alpha*deg - (1 - alpha).
    """
    a = np.array(_checked(alphas), dtype=np.float64)[:, None]
    diagonal, within, _ = _class_entries(graph, kind)
    values, counts, tags = _twin_lines(graph.quotient, diagonal[None], within[None], a)
    return _sweep(values[0], counts, tags, np.zeros((len(a), 0, 0)))


def solve_quotient(graph: Graph, kinds, alphas) -> tuple[Sweep, ...]:
    """The spectrum of each of `kinds` ("adjacency": A_alpha, "reciprocal": RD_alpha) at each alpha.

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

    Sweep.  The class entries and orbits are read once; the orbit quotients of every kind
    and alpha are one (K, A, m, m) stack and one `sym_eigenvalues` call.  The kinds share
    their lines, and each kind's sweep is a view of the rows of one.
    """
    a = np.array(_checked(alphas), dtype=np.float64)[:, None]
    b = 1.0 - a
    quotient = graph.quotient
    reps = [orbit[0] for orbit in quotient.orbits]
    mates = [orbit[-1] for orbit in quotient.orbits]  # itself when c = 1, where between is 0
    copies = np.array([len(orbit) for orbit in quotient.orbits], dtype=np.float64)
    sizes = np.array([quotient.sizes[r] for r in reps], dtype=np.float64)
    parts = [_class_entries(graph, kind) for kind in kinds]
    diagonal, within = (np.array([part[i] for part in parts]) for i in (0, 1))  # (K, k)
    own = a * diagonal[:, None, reps] + (sizes - 1.0) * (b * within[:, None, reps])
    mate = sizes * (b * np.array([between[reps, mates] for _, _, between in parts])[:, None])
    weight = np.sqrt(copies * sizes)
    cross = np.array([between[reps][:, reps] for _, _, between in parts])[:, None]
    matrices = b[:, :, None] * cross * (weight[:, None] * weight)  # (K, A, m, m)
    m = len(reps)
    diag = np.arange(m)
    matrices[..., diag, diag] = own + (copies - 1.0) * mate
    twins, counts, tags = _twin_lines(quotient, diagonal, within, a)
    lines = np.concatenate([twins, own - mate, sym_eigenvalues(matrices)], axis=-1)
    rows = len(kinds) * len(a)
    sweep = _sweep(
        lines.reshape(rows, lines.shape[-1]),
        np.concatenate([counts, copies.astype(np.int64) - 1, np.ones(m, dtype=np.int64)]),
        tags + ["orbit"] * m + ["quotient-root"] * m,
        matrices.reshape(rows, m, m),
    )
    return tuple(sweep.rows(slice(i * len(a), (i + 1) * len(a))) for i in range(len(kinds)))


# family closed forms ---------------------------------------------------


def _family_counts(params: GroupParams) -> tuple[int, int, int]:
    """(rotation order N, half N/2, quarter N/4)."""
    n = params.rotation_order
    return n, n // 2, n // 4


def a_alpha_families(params: GroupParams, alpha) -> list[tuple[float, int, str]]:
    """The twin families of A_alpha as (value, multiplicity, source); `alpha` a float or array."""
    n, half, quarter = _family_counts(params)
    return [
        (alpha, half - 1, "family"),
        (alpha * n - 1.0, n - 3, "family"),
        (4.0 * alpha - 1.0, quarter, "family"),
        (2.0 * alpha + 1.0, quarter - 1, "family"),
    ]


def closed_form(params: GroupParams, kinds, alphas) -> tuple[Sweep, ...]:
    """The predicted spectrum of each of `kinds` ("adjacency": A_alpha, "reciprocal": RD_alpha).

    Each kind's twin families at every alpha, plus the roots of its 5 x 5
    quotients; the (K, A, 5, 5) quotients of all kinds are one stacked
    `sym_eigenvalues` call.  The family and quotient functions are looked up
    by name at each call.
    """
    forms = {
        "adjacency": (a_alpha_families, a_alpha_quotient_matrix),
        "reciprocal": (rd_alpha_families, rd_alpha_quotient_matrix),
    }
    parts = [forms[kind] for kind in kinds]
    matrices = np.array([quotient_matrix(params, alphas) for _, quotient_matrix in parts])
    a = np.array(alphas, dtype=np.float64)[:, None]  # each alpha checked by the quotients
    sweeps = []
    for (families, _), quotients, roots in zip(parts, matrices, sym_eigenvalues(matrices)):
        lines = families(params, a)
        sweeps.append(
            _sweep(
                np.concatenate([*(v for v, _, _ in lines), roots], axis=1),
                np.array([m for _, m, _ in lines] + [1] * roots.shape[1], dtype=np.int64),
                [s for _, _, s in lines] + ["quotient-root"] * roots.shape[1],
                quotients,
            )
        )
    return tuple(sweeps)


def a_alpha_quotient_matrix(params: GroupParams, alphas) -> np.ndarray:
    """Symmetrized 5x5 quotients of A_alpha over the classes [H2, e, T2, u, H3], one per alpha.

    Entry (i, j) is the per-vertex block row sum scaled by sqrt(n_i / n_j);
    its eigenvalues are the five A_alpha eigenvalues outside the twin families.
    Returns an (A, 5, 5) stack for A alphas.
    """
    n, half, _ = _family_counts(params)
    order = 2 * n
    sh = math.sqrt(half)
    st = math.sqrt(n - 2)

    def matrix(alpha: float, b: float) -> list[list[float]]:
        return [
            [alpha, sh * b, 0.0, 0.0, 0.0],
            [sh * b, alpha * (order - 1), st * b, b, sh * b],
            [0.0, st * b, alpha * (n - 1) + b * (n - 3), st * b, 0.0],
            [0.0, b, st * b, alpha * (3 * half - 1), sh * b],
            [0.0, sh * b, 0.0, sh * b, 2.0 * alpha + 1.0],
        ]

    return np.array([matrix(a, 1.0 - a) for a in _checked(alphas)]).reshape(-1, 5, 5)


def a_alpha_closed_form(params: GroupParams, alphas) -> Sweep:
    """Complete predicted A_alpha spectrum at each alpha: four twin families plus the quotient."""
    return closed_form(params, ("adjacency",), alphas)[0]


def quintic_coefficients(params: GroupParams, alphas) -> np.ndarray:
    """Printed degree-5 polynomial for the quotient eigenvalues, highest power first, per alpha.

    Transcribed exactly as published; `quintic_transcription_check` measures it
    against the quotient eigenvalues instead of trusting it.  Returns an (A, 6)
    array for A alphas.
    """
    # the powers by float pow, one alpha at a time: numpy's array power rounds some differently
    powers = [[float(x) ** e for e in (1, 2, 3, 4)] for x in alphas]
    a, a2, a3, a4 = np.array(powers, dtype=np.float64).reshape(-1, 4).T
    K = float(1 << params.k)
    P = float(params.p)
    c4 = (7 * K / 2 * P + 3) * a + K * P - 2
    c3 = (
        (-3 * K**2 * P**2 - 21 * K / 2 * P - 2) * a2
        + (-7 * K**2 / 2 * P**2 - K * P + 8) * a
        + 5 * K / 2 * P
    )
    c2 = (
        (9 * K**2 * P**2 + 7 * K * P) * a3
        + (3 * K**3 * P**3 + 23 * K**2 / 2 * P**2 - 6 * K * P - 6) * a2
        + (K**2 / 2 * P**2 - 23 * K * P + 6) * a
        - 3 * K**2 / 2 * P**2
        + 4 * K * P
        + 2
    )
    c1 = (
        -6 * K**2 * P**2 * a4
        + (-13 * K**3 / 2 * P**3 - 59 * K**2 / 4 * P**2 + 10 * K * P) * a3
        + (-8 * K**3 * P**3 + 105 * K**2 / 4 * P**2 + 45 * K / 2 * P - 6) * a2
        + (5 * K**3 / 2 * P**3 + 9 * K**2 / 4 * P**2 - 20 * K * P) * a
        - 5 * K**2 / 4 * P**2
        + 3 * K / 2 * P
        + 1
    )
    c0 = (
        -(3 * K**3 * P**3 + 15 * K**2 / 2 * P**2) * a4
        - (31 * K**3 / 4 * P**3 - 95 * K**2 / 4 * P**2 - 2 * K * P) * a3
        - (-(K**3) / 4 * P**3 - 37 * K**2 / 4 * P**2 + 18 * K * P - 2) * a2
        - (-7 * K**3 / 4 * P**3 + 25 * K**2 / 4 * P**2 - 3 * K / 2 * P - 1) * a
        - K**3 / 4 * P**3
        + K**2 / 4 * P**2
        + K * P
    )
    return np.stack([np.ones_like(a), -c4, -c3, -c2, -c1, c0], axis=1)


# largest relative residual (quintic) or entry gap (RD quotient) read as a match
QUINTIC_REL_TOL = 1e-4
RD_QUOTIENT_REL_TOL = 1e-8


def _horner(coeffs: np.ndarray, xs: np.ndarray) -> np.ndarray:
    """Row a of `coeffs` (A, d + 1), highest power first, at each point of row a of `xs` (A, m).

    The steps and their order are `np.polyval`'s, for every row at once.
    """
    values = coeffs[:, :1]  # np.polyval's first step, 0 * x + c, gives c at a finite x
    for column in coeffs[:, 1:, None].transpose(1, 0, 2):
        values = values * xs + column
    return values


def quintic_transcription_check(params: GroupParams, alphas, closed: Sweep) -> list[dict]:
    """Evaluate each alpha's printed quintic at the five quotient roots of its A_alpha closed form.

    `closed` is the A_alpha closed-form sweep at `alphas`.  Every quintic is
    evaluated in one Horner pass over its (A, 5) roots.  A large residual means
    the published coefficients disagree with the quotient route; the numeric
    full-matrix spectrum is the arbiter, so a mismatch is reported as a
    diagnostic (None on a match) rather than trusted either way.
    """
    coeffs = quintic_coefficients(params, alphas)
    xs = closed.values[:, closed.sources == "quotient-root"]
    # each quintic at its roots, then its bound: the absolute coefficients at the absolute roots
    values = _horner(np.concatenate([coeffs, np.abs(coeffs)]), np.concatenate([xs, np.abs(xs)]))
    residuals = np.abs(values[: len(xs)]) / np.maximum(1.0, values[len(xs) :])
    checks = []
    for worst in residuals.max(axis=1, initial=0.0).tolist():
        matches = worst <= QUINTIC_REL_TOL
        diagnostic = None if matches else (
            "published-coefficient mismatch: printed quintic does not vanish on the "
            f"quotient eigenvalues (max relative residual {worst:.3e}); "
            "the numeric spectrum is the arbiter"
        )
        checks.append(
            {"max_relative_residual": worst, "matches": matches, "diagnostic": diagnostic}
        )
    return checks


# reciprocal-distance closed forms ---------------------------------------


def rd_alpha_families(params: GroupParams, alpha) -> list[tuple[float, int, str]]:
    """The twin families of RD_alpha as (value, multiplicity, source); `alpha` a float or array."""
    n, half, quarter = _family_counts(params)
    b = 1.0 - alpha
    return [
        (alpha * (1 + n), quarter - 1, "family"),
        ((n + 2) * alpha - 1.0, quarter - 1, "family"),
        (alpha * n - b / 2.0, half - 1, "family"),
        ((n + 1) * alpha - b, 1, "family"),
        (alpha * (3 * half - 1) - b, n - 3, "family"),
    ]


def rd_alpha_quotient_matrix(params: GroupParams, alphas) -> np.ndarray:
    """Derived symmetrized 5x5 quotients of RD_alpha over [e, u, H2, H3, T2], an (A, 5, 5) stack.

    Assembled from the reciprocal transmissions and the class distances (all
    1 or 2); matches the published matrix except for the H3 diagonal entry,
    where the published value repeats the H2 one (`rd_quotient_transcription_check`).
    """
    n, half, quarter = _family_counts(params)
    order = 2 * n
    sh = math.sqrt(half)
    st = math.sqrt(n - 2)
    sht = math.sqrt(half * (n - 2))

    def matrix(alpha: float, b: float) -> list[list[float]]:
        return [
            [alpha * (order - 1), b, sh * b, sh * b, st * b],
            [b, alpha * (7 * quarter - 1), sh * b / 2, sh * b, st * b],
            [sh * b, sh * b / 2, alpha * n + (half - 1) * b / 2, half * b / 2, sht * b / 2],
            [sh * b, sh * b, half * b / 2, alpha * (n + 1) + quarter * b, sht * b / 2],
            [st * b, st * b, sht * b / 2, sht * b / 2, alpha * (3 * half - 1) + (n - 3) * b],
        ]

    return np.array([matrix(a, 1.0 - a) for a in _checked(alphas)]).reshape(-1, 5, 5)


def rd_alpha_closed_form(params: GroupParams, alphas) -> Sweep:
    """Complete predicted RD_alpha spectrum at each alpha: five families plus the quotient."""
    return closed_form(params, ("reciprocal",), alphas)[0]


def rd_quotient_transcription_check(closed: Sweep) -> list[dict]:
    """Compare each alpha's published 5x5 quotient against the derived one, entrywise.

    The derived stack is the one the RD_alpha closed-form sweep `closed` solved.
    The published quotients are the derived ones verbatim except for the H3
    diagonal entry, which repeats the H2 one, so that entry holds the largest gap.
    """
    derived = closed.quotients
    gaps = np.abs(derived[:, 3, 3] - derived[:, 2, 2])
    scales = np.maximum(1.0, np.abs(derived).max(axis=(1, 2)))
    checks = []
    for gap, rel in zip(gaps.tolist(), (gaps / scales).tolist()):
        matches = rel <= RD_QUOTIENT_REL_TOL
        diagnostic = None if matches else (
            "published-coefficient mismatch: published reciprocal-distance quotient "
            f"differs from the derived one by {gap:.3e} (H3 diagonal entry); "
            "the numeric spectrum is the arbiter"
        )
        checks.append({"max_relative_residual": rel, "matches": matches, "diagnostic": diagnostic})
    return checks
