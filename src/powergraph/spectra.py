"""Symmetric eigensolving, closed-form spectra for the family, and block reduction.

The closed forms follow the two-stage pattern used throughout: twin classes
contribute eigenvalue families with known multiplicities, and the remaining
eigenvalues come from a small quotient matrix over the vertex classes.  Both
quotients (5x5 in each case) are assembled in symmetrized form, with class-size
weights sqrt(n_i), so a plain symmetric eigensolver applies.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .graphs import Graph, TwinQuotient
from .groups import GroupParams


class EigensolverError(RuntimeError):
    """Eigensolver failed to converge or input violated its contract."""


def _require_symmetric(matrix: np.ndarray) -> np.ndarray:
    matrix = np.asarray(matrix, dtype=np.float64)
    if matrix.ndim != 2 or matrix.shape[0] != matrix.shape[1]:
        raise EigensolverError("matrix must be square")
    if not np.array_equal(matrix, matrix.T):
        raise EigensolverError("matrix is not symmetric")
    return matrix


def sym_eigenvalues(matrix: np.ndarray, tol: float = 1e-9) -> np.ndarray:
    """Eigenvalues of a symmetric matrix, sorted descending.

    Backed by LAPACK's orthogonal-similarity diagonalization (numpy eigvalsh);
    non-convergence surfaces as EigensolverError.
    """
    matrix = _require_symmetric(matrix)
    if tol <= 0:
        raise ValueError("tol must be positive")
    try:
        values = np.linalg.eigvalsh(matrix)
    except np.linalg.LinAlgError as exc:
        raise EigensolverError(f"eigensolver did not converge: {exc}") from exc
    return values[::-1].copy()


def sym_eigh(matrix: np.ndarray, tol: float = 1e-9) -> tuple[np.ndarray, np.ndarray]:
    """Eigenvalues (descending) and eigenvectors, with a reconstruction check.

    The factorization must satisfy ||M - V diag(w) V^T||_F <= tol * ||M||_F.
    """
    matrix = _require_symmetric(matrix)
    if tol <= 0:
        raise ValueError("tol must be positive")
    try:
        values, vectors = np.linalg.eigh(matrix)
    except np.linalg.LinAlgError as exc:
        raise EigensolverError(f"eigensolver did not converge: {exc}") from exc
    values = values[::-1].copy()
    vectors = vectors[:, ::-1].copy()
    residual = np.linalg.norm(matrix - vectors @ np.diag(values) @ vectors.T)
    norm = np.linalg.norm(matrix)
    if residual > tol * max(norm, 1.0):
        raise EigensolverError(
            f"reconstruction residual {residual:.3e} exceeds {tol:.1e} * ||M||"
        )
    return values, vectors


@dataclass(frozen=True)
class SpectralLine:
    value: float
    multiplicity: int
    source: str


@dataclass(frozen=True)
class Spectrum:
    """Multiset of eigenvalues with multiplicities and provenance tags."""

    lines: tuple[SpectralLine, ...]

    @property
    def total(self) -> int:
        return sum(line.multiplicity for line in self.lines)

    def values(self) -> np.ndarray:
        """Expanded value list, sorted descending."""
        out: list[float] = []
        for line in self.lines:
            out.extend([line.value] * line.multiplicity)
        return np.array(sorted(out, reverse=True))

    def merged(self, tol: float) -> list[tuple[float, int]]:
        """(value, multiplicity) clusters after merging values closer than tol."""
        return cluster_values(self.values(), tol)

    def to_json_dict(self) -> dict:
        return {
            "total": self.total,
            "lines": [
                {"value": line.value, "multiplicity": line.multiplicity, "source": line.source}
                for line in self.lines
            ],
        }

    @classmethod
    def from_lines(cls, lines: list[tuple[float, int, str]]) -> "Spectrum":
        kept = tuple(SpectralLine(float(v), int(m), s) for v, m, s in lines if m > 0)
        return cls(tuple(sorted(kept, key=lambda ln: -ln.value)))


def cluster_values(values: np.ndarray, tol: float) -> list[tuple[float, int]]:
    """Group a descending value list into clusters separated by gaps > tol."""
    values = np.sort(np.asarray(values, dtype=np.float64))[::-1]
    clusters: list[tuple[float, int]] = []
    start = 0
    for stop in range(1, len(values) + 1):
        if stop == len(values) or values[stop - 1] - values[stop] > tol:
            chunk = values[start:stop]
            clusters.append((float(chunk.mean()), len(chunk)))
            start = stop
    return clusters


@dataclass(frozen=True)
class SpectrumMatch:
    structural_ok: bool
    max_deviation: float
    ok: bool
    message: str


def compare_spectra(a: Spectrum, b: Spectrum, tol: float) -> SpectrumMatch:
    """Pair the sorted value lists and report the largest absolute deviation."""
    if a.total != b.total:
        return SpectrumMatch(
            structural_ok=False,
            max_deviation=math.inf,
            ok=False,
            message=f"totals differ: {a.total} vs {b.total}",
        )
    deviation = float(np.abs(a.values() - b.values()).max()) if a.total else 0.0
    ok = deviation <= tol
    message = "match" if ok else f"max deviation {deviation:.3e} exceeds {tol:.1e}"
    return SpectrumMatch(True, deviation, ok, message)


def twin_eigenvalues(
    graph: Graph, alpha: float, quotient: TwinQuotient | None = None
) -> Spectrum:
    """Eigenvalues forced by twin classes.

    An open class of size l+1 contributes alpha*deg with multiplicity l; a
    closed class contributes alpha*(deg+1) - 1 with multiplicity l.
    """
    if quotient is None:
        quotient = TwinQuotient(graph)
    merged: dict[tuple[float, str], int] = {}
    for members, closed in zip(quotient.members, quotient.closed):
        if len(members) < 2:
            continue
        deg = graph.degree(members[0])
        if closed:
            key = (alpha * (deg + 1) - 1.0, "twin-closed")
        else:
            key = (alpha * deg, "twin-open")
        merged[key] = merged.get(key, 0) + len(members) - 1
    return Spectrum.from_lines([(v, m, s) for (v, s), m in merged.items()])


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
    spectrum = Spectrum.from_lines(lines)
    assert spectrum.total == params.order
    return spectrum


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
class QuinticRoots:
    roots: np.ndarray
    max_imag: float
    real_flagged: bool


def quintic_roots(params: GroupParams, alpha: float, imag_tol: float = 1e-8) -> QuinticRoots:
    """Numeric roots of the printed quintic via its companion matrix."""
    raw = np.roots(quintic_coefficients(params, alpha))
    max_imag = float(np.abs(raw.imag).max())
    roots = np.sort(raw.real)[::-1].copy()
    return QuinticRoots(roots, max_imag, max_imag > imag_tol)


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


# block reduction --------------------------------------------------------


class BlockFormError(ValueError):
    """Inconsistent block dimensions or asymmetric blocks."""


@dataclass(frozen=True)
class BlockForm:
    """Symmetric matrix with one border block row and c identical diagonal copies."""

    u: np.ndarray
    v: np.ndarray
    x: np.ndarray
    w: np.ndarray
    copies: int

    def __post_init__(self) -> None:
        u, v, x, w = (np.asarray(m, dtype=np.float64) for m in (self.u, self.v, self.x, self.w))
        object.__setattr__(self, "u", u)
        object.__setattr__(self, "v", v)
        object.__setattr__(self, "x", x)
        object.__setattr__(self, "w", w)
        m1, m2 = v.shape if v.ndim == 2 else (-1, -1)
        if u.shape != (m1, m1) or x.shape != (m2, m2) or w.shape != (m2, m2):
            raise BlockFormError(
                f"inconsistent block shapes: U{u.shape} V{v.shape} X{x.shape} W{w.shape}"
            )
        for name, block in (("U", u), ("X", x), ("W", w)):
            if not np.array_equal(block, block.T):
                raise BlockFormError(f"block {name} is not symmetric")
        if self.copies < 1:
            raise BlockFormError(f"copy count must be >= 1, got {self.copies}")

    @property
    def m1(self) -> int:
        return self.u.shape[0]

    @property
    def m2(self) -> int:
        return self.x.shape[0]

    @property
    def n(self) -> int:
        return self.m1 + self.copies * self.m2


def assemble_block_matrix(form: BlockForm) -> np.ndarray:
    """Materialize the full n x n matrix described by a BlockForm."""
    m1, m2, c = form.m1, form.m2, form.copies
    out = np.zeros((form.n, form.n))
    out[:m1, :m1] = form.u
    for i in range(c):
        lo = m1 + i * m2
        out[:m1, lo : lo + m2] = form.v
        out[lo : lo + m2, :m1] = form.v.T
        for j in range(c):
            lo2 = m1 + j * m2
            out[lo : lo + m2, lo2 : lo2 + m2] = form.x if i == j else form.w
    return out


def block_reduce(form: BlockForm) -> Spectrum:
    """Spectrum of the assembled matrix without assembling it.

    The border plus one aggregated copy gives the core matrix
    [[U, sqrt(c) V], [sqrt(c) V^T, X + (c-1) W]]; the remaining eigenvalues
    are those of X - W, each repeated c - 1 times.
    """
    c = form.copies
    m1, m2 = form.m1, form.m2
    core = np.zeros((m1 + m2, m1 + m2))
    core[:m1, :m1] = form.u
    core[:m1, m1:] = math.sqrt(c) * form.v
    core[m1:, :m1] = math.sqrt(c) * form.v.T
    core[m1:, m1:] = form.x + (c - 1) * form.w
    lines = [(float(v), 1, "block-core") for v in sym_eigenvalues(core)]
    if c > 1:
        for v in sym_eigenvalues(form.x - form.w):
            lines.append((float(v), c - 1, "block-copies"))
    return Spectrum.from_lines(lines)


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
    spectrum = Spectrum.from_lines(lines)
    assert spectrum.total == params.order
    return spectrum


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
