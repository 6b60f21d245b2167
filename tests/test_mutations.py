"""Every spectrum check can FAIL: one mutation of a closed form per row, and the checks it FAILs.

Each row patches one mutation into the module-level function that
`spectra.closed_form` (or, for the printed quintic, `quintic_transcription_check`)
looks up, runs `build_report` at two orders, and asserts that the report is
built and FAILs exactly the row's checks.  A row whose checks cannot FAIL yet
is a strict xfail that names the ROADMAP item that will let them: item 9
(exact spectral verdicts) for 1e-9 on A_alpha, item 2 (published formulas
compared exactly) for the printed quintic.  When that item lands, its rows
pass, the strict xfail breaks, and the mark goes.
"""

import pytest

from powergraph import spectra
from powergraph.report import build_report

ALPHAS = (0.0, 0.5, 1.0)
ITEM_2 = pytest.mark.xfail(
    strict=True, raises=AssertionError, reason="ROADMAP item 2: transcriptions cannot FAIL"
)
ITEM_9 = pytest.mark.xfail(
    strict=True, raises=AssertionError, reason="ROADMAP item 9: 1e-9 is inside the A_alpha tol"
)


def shift_line(name: str, amount: float):
    """The family function `name` with its first line moved by `amount`."""
    original = getattr(spectra, name)

    def mutated(params, alpha):
        (value, mult, source), *rest = original(params, alpha)
        return [(value + amount, mult, source), *rest]

    return name, mutated


def shift_entry(name: str, amount: float):
    """The quotient function `name` with entry (0, 0) of every alpha's matrix moved by `amount`."""
    original = getattr(spectra, name)

    def mutated(params, alphas):
        matrices = original(params, alphas)
        matrices[:, 0, 0] += amount
        return matrices

    return name, mutated


def scale_quintic_x2(factor: float):
    """The printed quintics with their x^2 coefficient scaled by `factor`."""
    original = spectra.quintic_coefficients

    def mutated(params, alphas):
        coeffs = original(params, alphas)  # highest power first: x^2 is column 3
        coeffs[:, 3] *= factor
        return coeffs

    return "quintic_coefficients", mutated


ROWS = [
    pytest.param(
        shift_line("a_alpha_families", 1e-6),
        {"adjacency_alpha_spectrum", "twin_eigenvalues_in_spectrum"},
        id="a-alpha-line+1e-6",
    ),
    pytest.param(
        shift_line("rd_alpha_families", 1e-9),
        {"reciprocal_alpha_spectrum"},
        id="rd-alpha-line+1e-9",
    ),
    pytest.param(
        shift_entry("rd_alpha_quotient_matrix", 1e-9),
        {"reciprocal_alpha_spectrum"},
        id="rd-alpha-quotient+1e-9",
    ),
    pytest.param(
        shift_line("a_alpha_families", 1e-9),
        {"adjacency_alpha_spectrum", "twin_eigenvalues_in_spectrum"},
        id="a-alpha-line+1e-9",
        marks=ITEM_9,
    ),
    pytest.param(
        scale_quintic_x2(1.5), {"quintic_transcription"}, id="quintic-x2*1.5", marks=ITEM_2
    ),
]


@pytest.mark.parametrize("k,p", [(2, 3), (3, 5)])
@pytest.mark.parametrize("mutation,fails", ROWS)
def test_a_closed_form_mutation_fails_exactly_its_checks(monkeypatch, k, p, mutation, fails):
    name, mutated = mutation
    monkeypatch.setattr(spectra, name, mutated)
    payload = build_report(k, p, ALPHAS)
    assert {c["name"] for c in payload["checks"] if not c["passed"]} == fails


def test_the_unmutated_report_fails_nothing():
    for k, p in ((2, 3), (3, 5)):
        assert build_report(k, p, ALPHAS)["passed"]
