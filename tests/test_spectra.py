import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import (
    blown_up_graphs,
    cluster_values_loop,
    complete_graph,
    dense_quotient_roots,
    is_connected,
    path_graph,
    random_graphs,
)
from powergraph.graphs import Graph, build_power_graph
from powergraph.groups import GroupParams
from powergraph.matrices import (
    AlphaRangeError,
    a_alpha,
    adjacency,
    rd_alpha,
    reciprocal_transmission,
)
from powergraph.report import (
    SPECTRUM_KINDS,
    Instance,
    _cluster_tol,
    _multisets_agree,
    spectrum_payload,
)
from powergraph.spectra import (
    EigensolverError,
    Spectrum,
    a_alpha_closed_form,
    a_alpha_families,
    a_alpha_quotient_matrix,
    cluster_values,
    quintic_coefficients,
    quintic_transcription_check,
    rd_alpha_closed_form,
    rd_quotient_transcription_check,
    solve_quotient,
    sym_eigenvalues,
    twin_eigenvalues,
)

P23 = GroupParams(2, 3)


def test_sym_eigenvalues_basics():
    assert np.allclose(sym_eigenvalues(np.diag([3.0, 1.0, 2.0])), [3, 2, 1])
    assert np.allclose(sym_eigenvalues(np.array([[0.0, 1.0], [1.0, 0.0]])), [1, -1])


def test_sym_eigenvalues_rejects_asymmetric():
    with pytest.raises(EigensolverError):
        sym_eigenvalues(np.array([[0.0, 1.0], [0.0, 0.0]]))


def test_spectral_radius_bounds(family):
    _, graph, _ = family(2, 3)
    values = sym_eigenvalues(adjacency(graph))
    degrees = graph.degrees()
    assert degrees.mean() <= values[0] <= degrees.max()


def test_eigenvalue_count_and_trace(family):
    _, graph, _ = family(2, 3)
    for alpha in (0.0, 0.3, 1.0):
        m = a_alpha(graph, alpha)
        values = sym_eigenvalues(m)
        assert len(values) == graph.n
        assert abs(values.sum() - np.trace(m)) <= 1e-9 * max(1.0, abs(np.trace(m)))


def test_rd_trace_identity(family):
    _, graph, _ = family(2, 3)
    for alpha in (0.25, 0.75):
        m = rd_alpha(graph, alpha)
        values = sym_eigenvalues(m)
        rt_sum = np.diag(reciprocal_transmission(graph)).sum()
        assert abs(values.sum() - alpha * rt_sum) <= 1e-9 * max(1.0, rt_sum)


def test_twin_eigenvalue_lines(family):
    _, graph, _ = family(2, 3)
    alpha = 0.3
    twins = twin_eigenvalues(graph, "adjacency", alpha)
    lines = {(round(ln.value, 12), ln.multiplicity) for ln in twins.lines}
    assert (round(alpha, 12), 5) in lines            # pendant class
    assert (round(12 * alpha - 1, 12), 9) in lines   # rotation clique class
    assert (round(4 * alpha - 1, 12), 3) in lines    # the order-4 pairs


# spectra from the twin quotient, against the dense eigensolve -------------

ALPHAS = (0.0, 0.25, 0.5, 0.75, 1.0)
DENSE = {"adjacency": a_alpha, "reciprocal": rd_alpha}


def assert_quotient_matches_dense(graph, kind):
    for alpha in ALPHAS:
        spectrum = solve_quotient(graph, kind, alpha)
        dense = sym_eigenvalues(DENSE[kind](graph, alpha))
        assert sum(line.multiplicity for line in spectrum.lines) == graph.n
        assert np.abs(spectrum.values() - dense).max(initial=0.0) <= 1e-8


@pytest.mark.parametrize("kind", ["adjacency", "reciprocal"])
def test_quotient_spectrum_matches_dense_on_random_graphs(kind):
    corpus = [g for g in random_graphs(seed=13, count=200) if is_connected(g)]
    corpus += list(blown_up_graphs(seed=17, count=100))
    open_twins = closed_twins = 0
    for graph in corpus:
        assert_quotient_matches_dense(graph, kind)
        sizes, closed = graph.quotient.sizes, graph.quotient.closed
        open_twins += any(s > 1 and not c for s, c in zip(sizes, closed))
        closed_twins += any(s > 1 and c for s, c in zip(sizes, closed))
    assert len(corpus) > 150 and open_twins > 50 and closed_twins > 50


@pytest.mark.parametrize("kind", ["adjacency", "reciprocal"])
@pytest.mark.parametrize("k,p", [(2, 3), (3, 3), (2, 5), (2, 7), (3, 5), (4, 5), (5, 5)])
def test_quotient_spectrum_matches_dense_on_the_family(family, k, p, kind):
    _, graph, _ = family(k, p)
    assert_quotient_matches_dense(graph, kind)


def test_quotient_spectrum_rejects_bad_kind_or_alpha(family):
    _, graph, _ = family(2, 3)
    with pytest.raises(ValueError, match="kind"):
        solve_quotient(graph, "laplacian", 0.5)
    with pytest.raises(AlphaRangeError):
        solve_quotient(graph, "reciprocal", 1.5)


def test_minus_one_multiplicity_at_alpha_zero(family):
    _, graph, _ = family(2, 3)
    values = sym_eigenvalues(a_alpha(graph, 0.0))
    assert int(np.sum(np.abs(values + 1.0) < 1e-9)) >= 12


def test_a_alpha_family_values_at_half():
    fams = {(v, m) for v, m, _ in a_alpha_families(P23, 0.5)}
    assert fams == {(0.5, 5), (5.0, 9), (1.0, 3), (2.0, 2)}


@pytest.mark.parametrize("alpha", [0.0, 0.25, 0.5, 0.75, 1.0])
def test_a_alpha_closed_form_matches_numeric(family, alpha):
    params, graph, _ = family(2, 3)
    closed = a_alpha_closed_form(params, alpha)
    numeric = sym_eigenvalues(a_alpha(graph, alpha))
    assert sum(line.multiplicity for line in closed.lines) == graph.n
    assert np.abs(closed.values() - numeric).max() <= 1e-8


def test_quintic_root_sum_trace_identity(family):
    params, graph, _ = family(2, 3)
    alpha = 0.4
    quotient_sum = sym_eigenvalues(a_alpha_quotient_matrix(params, alpha)).sum()
    family_sum = sum(v * m for v, m, _ in a_alpha_families(params, alpha))
    trace = np.trace(a_alpha(graph, alpha))
    assert abs(quotient_sum - (trace - family_sum)) <= 1e-9 * max(1.0, abs(trace))


def test_quintic_transcription_matches_at_alpha_zero():
    check = quintic_transcription_check(P23, 0.0)
    assert check.matches
    assert check.diagnostic is None


def test_quintic_transcription_flags_published_typo():
    # the printed linear coefficient is off by 5 * 2^k p * alpha^3
    check = quintic_transcription_check(P23, 0.5)
    assert not check.matches
    assert "mismatch" in check.diagnostic


def test_quintic_roots_real_on_grid():
    for alpha in (0.0, 0.25, 0.5, 0.75, 1.0):
        roots = np.roots(quintic_coefficients(P23, alpha))
        assert np.abs(roots.imag).max() <= 1e-8


def test_quintic_roots_agree_with_quotient_where_transcription_holds():
    # at alpha = 0 the published polynomial is exact, so the two routes coincide
    roots = np.sort(np.roots(quintic_coefficients(P23, 0.0)).real)[::-1]
    quotient = sym_eigenvalues(a_alpha_quotient_matrix(P23, 0.0))
    assert np.abs(roots - quotient).max() <= 1e-6


# orbit reduction, against the dense k x k twin quotient --------------------


def orbit_roots(spectrum: Spectrum) -> np.ndarray:
    """The k values of a `solve_quotient` spectrum that are not twin lines, descending."""
    lines = [ln for ln in spectrum.lines if not ln.source.startswith("twin")]
    return np.sort([ln.value for ln in lines for _ in range(ln.multiplicity)])[::-1]


def assert_orbit_roots_match_the_quotient(graph, kinds=SPECTRUM_KINDS, alphas=ALPHAS):
    """solve_quotient's orbit lines and m roots equal the dense k x k quotient roots (1e-9 rel)."""
    for kind in kinds:
        for alpha in alphas:
            dense = dense_quotient_roots(graph, kind, alpha)
            gap = np.abs(orbit_roots(solve_quotient(graph, kind, alpha)) - dense).max()
            assert gap <= 1e-9 * max(1.0, np.abs(dense).max()), (kind, alpha)


def test_orbit_roots_of_singleton_orbits():
    graph = path_graph(5)  # no twins, and no two classes interchangeable
    assert graph.quotient.orbits == tuple((a,) for a in range(5))
    assert_orbit_roots_match_the_quotient(graph)


def test_orbit_roots_k3():
    # K3 is one closed twin class; the octahedron K_{2,2,2} blows each of its
    # vertices up into an open pair, so its quotient is one orbit of 3 classes
    assert np.allclose(solve_quotient(complete_graph(3), "adjacency", 0.0).values(), [2, -1, -1])
    edges = [(i, j) for i in range(6) for j in range(i) if i // 2 != j // 2]
    octahedron = Graph.from_edges(6, edges)
    assert octahedron.quotient.orbits == ((0, 1, 2),)
    values = solve_quotient(octahedron, "adjacency", 0.0).values()
    assert np.allclose(values, [4, 0, 0, 0, -2, -2], atol=1e-12)
    assert_orbit_roots_match_the_quotient(octahedron)


@given(st.integers(0, 2**31 - 1), st.integers(6, 16))
@settings(max_examples=40, deadline=None)
def test_orbit_roots_property(seed, max_n):
    assert_orbit_roots_match_the_quotient(next(blown_up_graphs(seed, 1, max_n)))


def test_orbit_roots_match_the_quotient_on_blown_up_graphs():
    symmetric = 0
    for graph in blown_up_graphs(8, 200):
        assert_orbit_roots_match_the_quotient(graph)
        symmetric += len(graph.quotient.orbits) < len(graph.quotient.sizes)
    assert symmetric >= 40


@pytest.mark.parametrize("kp", [(2, 3), (3, 3), (2, 5), (3, 5), (4, 5), (5, 5), (6, 5), (7, 7)])
def test_orbit_roots_match_the_quotient_on_the_family(family, kp):
    assert_orbit_roots_match_the_quotient(family(*kp)[1])


def test_orbit_roots_match_the_quotient_at_9_7():
    graph = build_power_graph(GroupParams(9, 7))  # k = 900 classes in 5 orbits
    for kind, alpha in zip(SPECTRUM_KINDS, (0.25, 0.75)):
        assert_orbit_roots_match_the_quotient(graph, (kind,), (alpha,))


# reciprocal-distance closed form -------------------------------------------


@pytest.mark.parametrize("alpha", [0.0, 0.25, 0.5, 0.75, 1.0])
def test_rd_alpha_closed_form_matches_numeric(family, alpha):
    params, graph, _ = family(2, 3)
    closed = rd_alpha_closed_form(params, alpha)
    numeric = sym_eigenvalues(rd_alpha(graph, alpha))
    assert np.abs(closed.values() - numeric).max() <= 1e-8


def test_rd_alpha_at_one_equals_transmissions(family):
    params, graph, _ = family(2, 3)
    closed = rd_alpha_closed_form(params, 1.0).values()
    rt = np.sort(np.diag(reciprocal_transmission(graph)))[::-1]
    assert np.array_equal(closed, rt)


def test_rd_alpha_total_at_2_5():
    lines = rd_alpha_closed_form(GroupParams(2, 5), 0.5).lines
    assert sum(line.multiplicity for line in lines) == 40


def test_rd_quotient_transcription_flags_published_diagonal():
    check = rd_quotient_transcription_check(P23, 0.5)
    assert not check.matches
    assert "diagonal" in check.diagnostic


# spectrum comparison and payload, as the report makes them -----------------


def test_compare_spectra_identical(family):
    params, _, _ = family(2, 3)
    s = a_alpha_closed_form(params, 0.25)
    assert _multisets_agree(s.merged(1e-6), s.merged(1e-6), value_tol=0.0)


def test_compare_spectra_detects_perturbation(family):
    params, _, _ = family(2, 3)
    s = a_alpha_closed_form(params, 0.25)
    lines = [(ln.value, ln.multiplicity, ln.source) for ln in s.lines]
    lines[0] = (lines[0][0] + 1e-3, lines[0][1], lines[0][2])
    perturbed = Spectrum.from_lines(lines)
    assert np.abs(s.values() - perturbed.values()).max() >= 1e-3 - 1e-12
    assert not _multisets_agree(s.merged(1e-6), perturbed.merged(1e-6), value_tol=1e-8)


def test_compare_spectra_total_mismatch(family):
    params, _, _ = family(2, 3)
    s = a_alpha_closed_form(params, 0.25)
    short = Spectrum.from_lines([(1.0, 3, "numeric")])
    assert not _multisets_agree(s.merged(1e-6), short.merged(1e-6), value_tol=1e-8)


def test_clustering_recovers_multiplicities(family):
    params, graph, _ = family(2, 3)
    numeric = sym_eigenvalues(a_alpha(graph, 0.25))
    tol = 1e-6 * max(1.0, float(np.abs(numeric).max()))
    clustered = dict(cluster_values(numeric, tol))
    mults = sorted(clustered.values(), reverse=True)
    # families 5, 9, 3, 2 plus five simple quotient roots
    assert mults == [9, 5, 3, 2, 1, 1, 1, 1, 1]


@pytest.mark.parametrize("k,p", [(2, 3), (2, 5), (3, 3)])
def test_cluster_values_equals_the_loop_on_family_spectra(k, p):
    inst = Instance(GroupParams(k, p))
    for alpha in (0.0, 0.25, 0.5, 0.75, 1.0):
        for kind in SPECTRUM_KINDS:
            closed, spectrum = inst.spectrum(kind, alpha)
            numeric = spectrum.values()
            tol = _cluster_tol(numeric)
            for values in (numeric, closed.values()):
                assert cluster_values(values, tol) == cluster_values_loop(values, tol)


def test_cluster_values_equals_the_loop_on_random_near_ties():
    rng = np.random.default_rng(7)
    for _ in range(300):
        size = int(rng.integers(0, 60))
        base = rng.standard_normal(int(rng.integers(1, 8)))
        values = rng.choice(base, size) + 1e-7 * rng.standard_normal(size)
        for tol in (0.0, 1e-7, 1e-6, 1.0):
            assert cluster_values(values, tol) == cluster_values_loop(values, tol)


def test_spectrum_json_round_trip(family):
    params, graph, _ = family(2, 3)
    closed = a_alpha_closed_form(params, 0.5)
    numeric = sym_eigenvalues(a_alpha(graph, 0.5))
    payload = json.loads(json.dumps(spectrum_payload(params, 0.5, closed, numeric)))
    assert sum(line.multiplicity for line in closed.lines) == 24
    assert sum(fam["mult"] for fam in payload["families"]) == 24
    assert payload["numeric"] == numeric.tolist()
