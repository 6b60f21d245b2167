import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import (
    Spectrum,
    blown_up_graphs,
    closed_form_oracle,
    cluster_values,
    cluster_values_loop,
    complete_graph,
    dense_quotient_roots,
    from_edges,
    is_connected,
    multiplicity_verdict_oracle,
    multisets_agree,
    path_graph,
    quotient_spectrum_oracle,
    random_graphs,
    twin_verdict_oracle,
)
from powergraph.graphs import build_power_graph
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
    _max_deviations,
    _multiplicities_recovered,
    _runs,
    _twins_present,
    spectrum_payloads,
)
from powergraph.spectra import (
    EigensolverError,
    _sweep,
    a_alpha_closed_form,
    a_alpha_families,
    a_alpha_quotient_matrix,
    quintic_coefficients,
    quintic_transcription_check,
    rd_alpha_closed_form,
    rd_alpha_quotient_matrix,
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
    twins = twin_eigenvalues(graph, "adjacency", (alpha,))
    lines = {(round(v, 12), m) for v, m in zip(twins.values[0].tolist(), twins.multiplicities)}
    assert (round(alpha, 12), 5) in lines            # pendant class
    assert (round(12 * alpha - 1, 12), 9) in lines   # rotation clique class
    assert (round(4 * alpha - 1, 12), 3) in lines    # the order-4 pairs


# spectra from the twin quotient, against the dense eigensolve -------------

ALPHAS = (0.0, 0.25, 0.5, 0.75, 1.0)
DENSE = {"adjacency": a_alpha, "reciprocal": rd_alpha}


def assert_quotient_matches_dense(graph, kind):
    [sweep] = solve_quotient(graph, (kind,), ALPHAS)
    assert sweep.multiplicities.sum() == graph.n
    for alpha, values in zip(ALPHAS, sweep.expanded):
        dense = sym_eigenvalues(DENSE[kind](graph, alpha))
        assert np.abs(values - dense).max(initial=0.0) <= 1e-8


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
        solve_quotient(graph, ("laplacian",), (0.5,))
    with pytest.raises(AlphaRangeError):
        solve_quotient(graph, ("reciprocal",), (1.5,))


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
    closed = a_alpha_closed_form(params, (alpha,))
    numeric = sym_eigenvalues(a_alpha(graph, alpha))
    assert closed.multiplicities.sum() == graph.n
    assert np.abs(closed.expanded[0] - numeric).max() <= 1e-8


def test_quintic_root_sum_trace_identity(family):
    params, graph, _ = family(2, 3)
    alpha = 0.4
    quotient_sum = sym_eigenvalues(a_alpha_quotient_matrix(params, (alpha,))).sum()
    family_sum = sum(v * m for v, m, _ in a_alpha_families(params, alpha))
    trace = np.trace(a_alpha(graph, alpha))
    assert abs(quotient_sum - (trace - family_sum)) <= 1e-9 * max(1.0, abs(trace))


def test_quintic_transcription_matches_at_alpha_zero():
    [check] = quintic_transcription_check(P23, (0.0,), a_alpha_closed_form(P23, (0.0,)))
    assert check["matches"]
    assert check["diagnostic"] is None


def test_quintic_transcription_flags_published_typo():
    # the printed linear coefficient is off by 5 * 2^k p * alpha^3
    [check] = quintic_transcription_check(P23, (0.5,), a_alpha_closed_form(P23, (0.5,)))
    assert not check["matches"]
    assert "mismatch" in check["diagnostic"]


def test_quintic_roots_real_on_grid():
    for coefficients in quintic_coefficients(P23, (0.0, 0.25, 0.5, 0.75, 1.0)):
        roots = np.roots(coefficients)
        assert np.abs(roots.imag).max() <= 1e-8


def test_quintic_roots_agree_with_quotient_where_transcription_holds():
    # at alpha = 0 the published polynomial is exact, so the two routes coincide
    [coefficients] = quintic_coefficients(P23, (0.0,))
    roots = np.sort(np.roots(coefficients).real)[::-1]
    [quotient] = sym_eigenvalues(a_alpha_quotient_matrix(P23, (0.0,)))
    assert np.abs(roots - quotient).max() <= 1e-6


@pytest.mark.parametrize("k,p", [(2, 3), (3, 5), (5, 5)])
def test_transcription_sweeps_equal_the_one_alpha_computations(k, p):
    # the dyadic alphas, 1/3 and a repeat; each alpha's dict as one np.polyval or one
    # derived and printed pair of 5 x 5 matrices gives it, bit for bit
    params, alphas = GroupParams(k, p), (0.0, 0.25, 1 / 3, 0.5, 0.123456789, 1.0, 1 / 3)
    closed = a_alpha_closed_form(params, alphas)
    quintic = quintic_transcription_check(params, alphas, closed)
    printed = rd_quotient_transcription_check(rd_alpha_closed_form(params, alphas))
    for row, (alpha, check, rd_check) in enumerate(zip(alphas, quintic, printed)):
        [coeffs] = quintic_coefficients(params, (alpha,))
        lines = closed_form_oracle(params, "adjacency", alpha).lines
        xs = np.array([ln.value for ln in lines if ln.source == "quotient-root"])
        scale = np.maximum(1.0, np.polyval(np.abs(coeffs), np.abs(xs)))
        worst = max([0.0, *(np.abs(np.polyval(coeffs, xs)) / scale).tolist()])
        assert check["max_relative_residual"] == worst
        assert check == quintic_transcription_check(params, (alpha,), closed.rows([row]))[0]
        [derived] = rd_alpha_quotient_matrix(params, (alpha,))
        printed = derived.copy()  # as published: the H3 diagonal entry is the H2 one
        n, half = params.rotation_order, params.rotation_order // 2
        printed[3, 3] = alpha * n + (half - 1) * (1.0 - alpha) / 2
        gap = float(np.abs(derived - printed).max())
        assert rd_check["max_relative_residual"] == gap / max(1.0, float(np.abs(derived).max()))
        assert rd_check == rd_quotient_transcription_check(rd_alpha_closed_form(params, (alpha,)))[0]


def test_quintic_coefficients_take_the_powers_of_each_alpha_by_float_pow():
    alphas = (0.1, 0.3, 0.7, 0.123456789)
    for alpha, row in zip(alphas, quintic_coefficients(P23, alphas)):
        K, P = 4.0, 3.0
        c4 = (7 * K / 2 * P + 3) * alpha + K * P - 2
        c1 = (
            -6 * K**2 * P**2 * alpha**4
            + (-13 * K**3 / 2 * P**3 - 59 * K**2 / 4 * P**2 + 10 * K * P) * alpha**3
            + (-8 * K**3 * P**3 + 105 * K**2 / 4 * P**2 + 45 * K / 2 * P - 6) * alpha**2
            + (5 * K**3 / 2 * P**3 + 9 * K**2 / 4 * P**2 - 20 * K * P) * alpha
            - 5 * K**2 / 4 * P**2
            + 3 * K / 2 * P
            + 1
        )
        assert row[0] == 1.0 and row[1] == -c4 and row[4] == -c1


def test_spectrum_values_keep_the_line_order_of_equal_values():
    # 0.0 and -0.0 are equal: a stable descending sort keeps them in line order, in the
    # per-alpha oracle and in a sweep's expansion, which drops a line of multiplicity 0
    lines = [(1.0, 2, "a"), (0.0, 1, "b"), (-0.0, 2, "c"), (7.0, 0, "z"), (0.0, 1, "d"), (-2.5, 1, "e")]
    for order in (lines, lines[::-1], lines[1:] + lines[:1]):
        spectrum = Spectrum.from_lines(order)
        expected = sorted(
            [v for v, m, _ in (tuple(ln) for ln in spectrum.lines) for _ in range(m)], reverse=True
        )
        values = spectrum.values()
        assert values.tolist() == expected and json.dumps(values.tolist()) == json.dumps(expected)
        assert not values.flags.writeable
        values_, mults, sources = zip(*order)
        sweep = _sweep(np.array([values_]), np.array(mults), sources, np.zeros((1, 0, 0)))
        assert json.dumps(sweep.expanded[0].tolist()) == json.dumps(expected)
        assert "z" not in sweep.sources
    assert Spectrum.from_lines([]).values().dtype == np.float64


# alpha sweeps: one stacked eigensolve per call --------------------------------

SWEEP = (0.0, 0.3, 1.0, 0.3, 0.75)  # both ends and a repeated alpha


def test_sym_eigenvalues_of_a_stack_equal_the_one_by_one_solves():
    rng = np.random.default_rng(5)
    half = rng.standard_normal((7, 5, 5))
    stack = half + half.swapaxes(-1, -2)
    values = sym_eigenvalues(stack)
    assert values.shape == (7, 5)
    for matrix, row in zip(stack, values):
        assert np.array_equal(sym_eigenvalues(matrix), row)


def test_sym_eigenvalues_rejects_a_stack_with_one_asymmetric_or_non_square_matrix():
    stack = np.stack([np.eye(3)] * 4)
    stack[2, 0, 1] = 1.0
    with pytest.raises(EigensolverError, match="symmetric"):
        sym_eigenvalues(stack)
    for bad in (np.zeros((4, 3, 2)), np.zeros(3)):
        with pytest.raises(EigensolverError, match="square"):
            sym_eigenvalues(bad)


def assert_sweep_equals_single_alphas(sweep, alphas=SWEEP):
    """Each row of `sweep(alphas)` equals `sweep((alpha,))`, lines and values bit for bit."""
    whole = sweep(alphas)
    assert len(whole.values) == len(whole.expanded) == len(whole.quotients) == len(alphas)
    for row, alpha in enumerate(alphas):
        single = sweep((alpha,))
        assert np.array_equal(whole.multiplicities, single.multiplicities)
        assert whole.sources.tolist() == single.sources.tolist()
        for part in ("values", "expanded", "quotients"):
            assert getattr(whole, part)[row].tobytes() == getattr(single, part)[0].tobytes()


@pytest.mark.parametrize("kind", ["adjacency", "reciprocal"])
@pytest.mark.parametrize("k,p", [(2, 3), (3, 3), (2, 5), (2, 7), (3, 5), (4, 5), (5, 5)])
def test_sweeps_equal_single_alpha_sweeps_on_the_family(family, k, p, kind):
    params, graph, _ = family(k, p)
    assert_sweep_equals_single_alphas(lambda alphas: solve_quotient(graph, (kind,), alphas)[0])
    assert_sweep_equals_single_alphas(lambda alphas: twin_eigenvalues(graph, kind, alphas))
    closed_form = a_alpha_closed_form if kind == "adjacency" else rd_alpha_closed_form
    assert_sweep_equals_single_alphas(lambda alphas: closed_form(params, alphas))


@pytest.mark.parametrize("kind", ["adjacency", "reciprocal"])
def test_sweeps_equal_single_alpha_sweeps_on_random_graphs_with_twins(kind):
    corpus = [g for g in random_graphs(seed=29, count=60) if is_connected(g)]
    corpus += list(blown_up_graphs(seed=31, count=60))
    for graph in corpus:
        assert_sweep_equals_single_alphas(lambda alphas: solve_quotient(graph, (kind,), alphas)[0])
        assert_sweep_equals_single_alphas(lambda alphas: twin_eigenvalues(graph, kind, alphas))
    assert sum(max(g.quotient.sizes, default=1) > 1 for g in corpus) > 60


def test_instance_spectra_share_one_sweep_per_kind_with_a_repeated_alpha(monkeypatch):
    solves = []
    solve = sym_eigenvalues
    monkeypatch.setattr("powergraph.spectra.sym_eigenvalues", lambda m: solves.append(1) or solve(m))
    inst = Instance(GroupParams(3, 5))
    for kind in SPECTRUM_KINDS:
        sweeps = inst.spectra(kind, SWEEP)
        backwards = inst.spectra(kind, SWEEP[::-1])
        for sweep, reverse in zip(sweeps, backwards):
            # the repeated alpha reads the same row, and every order reads the same sweep
            assert sweep.expanded[1].tobytes() == sweep.expanded[3].tobytes()
            assert sweep.expanded[::-1].tobytes() == reverse.expanded.tobytes()
            assert sweep.values[::-1].tobytes() == reverse.values.tobytes()
    assert len(solves) == 3  # the graph's quotients of both kinds, and each closed form's


@pytest.mark.parametrize("k,p", [(2, 3), (3, 5), (5, 5)])
def test_both_kinds_solved_together_equal_each_kind_alone(family, k, p):
    _, graph, _ = family(k, p)
    both = solve_quotient(graph, SPECTRUM_KINDS, SWEEP)
    for kind, sweep in zip(SPECTRUM_KINDS, both):
        [alone] = solve_quotient(graph, (kind,), SWEEP)
        for part in ("expanded", "quotients"):
            assert getattr(sweep, part).tobytes() == getattr(alone, part).tobytes()


def test_an_alpha_outside_the_unit_interval_is_refused_before_any_solve(family, monkeypatch):
    def no_solve(matrices):
        raise AssertionError("an eigensolve ran")

    monkeypatch.setattr("powergraph.spectra.sym_eigenvalues", no_solve)
    params, graph, _ = family(2, 3)
    for alphas in ((1.5,), (0.0, 0.5, -0.25), (0.2, float("nan"))):
        for sweep in (
            lambda: solve_quotient(graph, ("adjacency",), alphas),
            lambda: solve_quotient(graph, ("reciprocal",), alphas),
            lambda: solve_quotient(graph, SPECTRUM_KINDS, alphas),
            lambda: twin_eigenvalues(graph, "reciprocal", alphas),
            lambda: a_alpha_closed_form(params, alphas),
            lambda: rd_alpha_closed_form(params, alphas),
        ):
            with pytest.raises(AlphaRangeError):
                sweep()


# orbit reduction, against the dense k x k twin quotient --------------------


def orbit_roots(sweep, row: int) -> np.ndarray:
    """The k values of row `row` of a `solve_quotient` sweep that are not twin lines, descending."""
    keep = ~np.char.startswith(sweep.sources, "twin")
    return np.sort(np.repeat(sweep.values[row, keep], sweep.multiplicities[keep]))[::-1]


def assert_orbit_roots_match_the_quotient(graph, kinds=SPECTRUM_KINDS, alphas=ALPHAS):
    """solve_quotient's orbit lines and m roots equal the dense k x k quotient roots (1e-9 rel)."""
    for kind in kinds:
        [sweep] = solve_quotient(graph, (kind,), alphas)
        for row, alpha in enumerate(alphas):
            dense = dense_quotient_roots(graph, kind, alpha)
            gap = np.abs(orbit_roots(sweep, row) - dense).max()
            assert gap <= 1e-9 * max(1.0, np.abs(dense).max()), (kind, alpha)


def test_orbit_roots_of_singleton_orbits():
    graph = path_graph(5)  # no twins, and no two classes interchangeable
    assert graph.quotient.orbits == tuple((a,) for a in range(5))
    assert_orbit_roots_match_the_quotient(graph)


def test_orbit_roots_k3():
    # K3 is one closed twin class; the octahedron K_{2,2,2} blows each of its
    # vertices up into an open pair, so its quotient is one orbit of 3 classes
    [k3] = solve_quotient(complete_graph(3), ("adjacency",), (0.0,))
    assert np.allclose(k3.expanded[0], [2, -1, -1])
    edges = [(i, j) for i in range(6) for j in range(i) if i // 2 != j // 2]
    octahedron = from_edges(6, edges)
    assert octahedron.quotient.orbits == ((0, 1, 2),)
    values = solve_quotient(octahedron, ("adjacency",), (0.0,))[0].expanded[0]
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
    closed = rd_alpha_closed_form(params, (alpha,))
    numeric = sym_eigenvalues(rd_alpha(graph, alpha))
    assert np.abs(closed.expanded[0] - numeric).max() <= 1e-8


def test_rd_alpha_at_one_equals_transmissions(family):
    params, graph, _ = family(2, 3)
    closed = rd_alpha_closed_form(params, (1.0,)).expanded[0]
    rt = np.sort(np.diag(reciprocal_transmission(graph)))[::-1]
    assert np.array_equal(closed, rt)


def test_rd_alpha_total_at_2_5():
    assert rd_alpha_closed_form(GroupParams(2, 5), (0.5,)).multiplicities.sum() == 40


def test_rd_quotient_transcription_flags_published_diagonal():
    [check] = rd_quotient_transcription_check(rd_alpha_closed_form(P23, (0.5,)))
    assert not check["matches"]
    assert "diagonal" in check["diagnostic"]


# spectrum comparison and payload, as the report makes them -----------------


def with_line_moved(sweep, line: int, shift: float):
    """The sweep with one line's value shifted at every alpha."""
    values = sweep.values.copy()
    values[:, line] += shift
    return _sweep(values, sweep.multiplicities, sweep.sources, sweep.quotients)


def test_compare_spectra_identical(family):
    params, _, _ = family(2, 3)
    s = a_alpha_closed_form(params, (0.25,))
    assert _multiplicities_recovered(s.expanded, s.expanded, 0.0).all()
    assert multiplicity_verdict_oracle(s.expanded[0], s.expanded[0], 0.0)


def test_compare_spectra_detects_perturbation(family):
    params, _, _ = family(2, 3)
    s = a_alpha_closed_form(params, (0.25,))
    perturbed = with_line_moved(s, 0, 1e-3)
    assert _max_deviations(s.expanded, perturbed.expanded)[0] >= 1e-3 - 1e-12
    assert not _multiplicities_recovered(s.expanded, perturbed.expanded, 1e-8)[0]
    assert not multiplicity_verdict_oracle(s.expanded[0], perturbed.expanded[0], 1e-8)


def test_compare_spectra_total_mismatch(family):
    params, _, _ = family(2, 3)
    s = a_alpha_closed_form(params, (0.25,))
    short = _sweep(np.array([[1.0]]), np.array([3]), ["numeric"], np.zeros((1, 0, 0)))
    assert np.isinf(_max_deviations(s.expanded, short.expanded)).all()
    assert not _multiplicities_recovered(s.expanded, short.expanded, 1e-8)[0]
    assert not multisets_agree(
        cluster_values(s.expanded[0], 1e-6), cluster_values(short.expanded[0], 1e-6), 1e-8
    )


def run_sizes(values: np.ndarray, tol: float) -> list[int]:
    """The run sizes of one descending row, split where `report._runs` splits it."""
    starts = np.flatnonzero(_runs(values[None], np.array([[tol]]))[0])
    return np.diff(starts, append=values.size).tolist()


def test_clustering_recovers_multiplicities(family):
    params, graph, _ = family(2, 3)
    numeric = sym_eigenvalues(a_alpha(graph, 0.25))
    tol = 1e-6 * max(1.0, float(np.abs(numeric).max()))
    mults = sorted(dict(cluster_values(numeric, tol)).values(), reverse=True)
    # families 5, 9, 3, 2 plus five simple quotient roots
    assert mults == [9, 5, 3, 2, 1, 1, 1, 1, 1]
    assert sorted(run_sizes(numeric, tol), reverse=True) == mults
    closed = a_alpha_closed_form(params, (0.25,))
    assert _multiplicities_recovered(closed.expanded, numeric[None], 1e-8).all()


@pytest.mark.parametrize("k,p", [(2, 3), (2, 5), (3, 3)])
def test_cluster_values_equals_the_loop_on_family_spectra(k, p):
    inst = Instance(GroupParams(k, p))
    for kind in SPECTRUM_KINDS:
        closed, numeric = inst.spectra(kind, ALPHAS)
        for tol, *rows in zip(_cluster_tol(numeric.expanded)[:, 0], numeric.expanded, closed.expanded):
            for values in rows:
                assert cluster_values(values, tol) == cluster_values_loop(values, tol)
                assert run_sizes(values, tol) == [size for _, size in cluster_values_loop(values, tol)]


def test_cluster_values_equals_the_loop_on_random_near_ties():
    # the split mask gives the loop's runs exactly; its run means, summed by reduceat in
    # another order than the loop's pairwise mean, agree to a few units in the last place
    rng = np.random.default_rng(7)
    for _ in range(300):
        size = int(rng.integers(0, 60))
        base = rng.standard_normal(int(rng.integers(1, 8)))
        values = np.sort(rng.choice(base, size) + 1e-7 * rng.standard_normal(size))[::-1]
        for tol in (0.0, 1e-7, 1e-6, 1.0):
            loop = cluster_values_loop(values, tol)
            assert cluster_values(values, tol) == loop
            sizes = run_sizes(values, tol)
            assert sizes == [size for _, size in loop]
            if sizes:
                starts = np.cumsum([0, *sizes[:-1]])
                means = np.add.reduceat(values, starts) / sizes
                bound = 4 * np.finfo(np.float64).eps * np.array(sizes) * np.abs(values).max()
                assert (np.abs(means - [mean for mean, _ in loop]) <= bound).all()


def test_spectrum_json_round_trip(family):
    params, graph, _ = family(2, 3)
    closed = a_alpha_closed_form(params, (0.5,))
    [numeric] = solve_quotient(graph, ("adjacency",), (0.5,))
    [payload] = spectrum_payloads(params, (0.5,), closed, numeric)
    payload = json.loads(json.dumps(payload))
    assert closed.multiplicities.sum() == 24
    assert sum(fam["mult"] for fam in payload["families"]) == 24
    assert payload["numeric"] == numeric.expanded[0].tolist()


# the sweeps against the per-alpha oracle ------------------------------------

ORACLE_ALPHAS = (0.0, 0.3, 1.0, 0.3, 0.123456789, 0.59375, 1 / 3)  # a repeat, non-dyadic ones


def oracle_payload(params, alpha, closed: Spectrum, numeric: Spectrum) -> dict:
    """`spectrum_payloads`' entry as the per-alpha route made it, from the oracle's spectra."""
    predicted, values = closed.values(), numeric.values()
    deviation = (
        float(np.abs(predicted - values).max(initial=0.0))
        if predicted.shape == values.shape
        else float("inf")
    )
    return {
        "params": {"k": params.k, "p": params.p, "alpha": alpha},
        "families": [
            {"value": ln.value, "mult": ln.multiplicity, "source": ln.source} for ln in closed.lines
        ],
        "numeric": values.tolist(),
        "max_deviation": deviation,
    }


def assert_graph_sweep_is_the_oracle(graph, kind, sweep, alphas) -> list[Spectrum]:
    """Each row's expansion is the per-alpha oracle's, bit for bit; returns the oracle's spectra."""
    oracles = [quotient_spectrum_oracle(graph, kind, alpha) for alpha in alphas]
    for row, oracle in enumerate(oracles):
        assert sweep.expanded[row].tobytes() == oracle.values().tobytes(), (kind, row)
    return oracles


@pytest.mark.parametrize("k,p", [(2, 3), (3, 3), (2, 5), (2, 7), (3, 5), (4, 5), (5, 5)])
def test_sweeps_equal_the_per_alpha_oracle_on_the_family(family, k, p):
    params, graph, _ = family(k, p)
    inst = Instance(params)
    for kind in SPECTRUM_KINDS:
        closed, numeric = inst.spectra(kind, ORACLE_ALPHAS)
        numerics = assert_graph_sweep_is_the_oracle(graph, kind, numeric, ORACLE_ALPHAS)
        closeds = [closed_form_oracle(params, kind, alpha) for alpha in ORACLE_ALPHAS]
        payloads = spectrum_payloads(params, ORACLE_ALPHAS, closed, numeric)
        twins = _twins_present(closed, numeric, 1e-8)
        recovered = _multiplicities_recovered(closed.expanded, numeric.expanded, 1e-8)
        for row, alpha in enumerate(ORACLE_ALPHAS):
            oc, on = closeds[row], numerics[row]
            assert closed.expanded[row].tobytes() == oc.values().tobytes()
            assert json.dumps(payloads[row]) == json.dumps(oracle_payload(params, alpha, oc, on))
            assert twins[row] == twin_verdict_oracle(oc, on, 1e-8)
            assert recovered[row] == multiplicity_verdict_oracle(oc.values(), on.values(), 1e-8)
        assert twins.all() and recovered.all()


def twin_corpus():
    corpus = [g for g in random_graphs(seed=41, count=80) if is_connected(g)]
    corpus += list(blown_up_graphs(seed=43, count=80))
    return [g for g in corpus if max(g.quotient.sizes, default=1) > 1]


@pytest.mark.parametrize("kind", ["adjacency", "reciprocal"])
def test_sweeps_and_verdicts_equal_the_per_alpha_oracle_on_random_graphs_with_twins(kind):
    # the closed side is the graph's own sweep with one line moved by a shift from none to
    # far past the tolerances, so both verdicts come out both ways
    outcomes = set()
    corpus = twin_corpus()
    for graph in corpus:
        [numeric] = solve_quotient(graph, (kind,), ORACLE_ALPHAS)
        numerics = assert_graph_sweep_is_the_oracle(graph, kind, numeric, ORACLE_ALPHAS)
        for line in (0, len(numeric.sources) - 1):
            for shift in (0.0, 1e-9, 3e-8, 1e-6, 1e-3):
                closed = with_line_moved(numeric, line, shift)
                twins = _twins_present(closed, numeric, 1e-8)
                recovered = _multiplicities_recovered(closed.expanded, numeric.expanded, 1e-8)
                for row, on in enumerate(numerics):
                    oc = Spectrum.from_lines(
                        list(zip(closed.values[row].tolist(), closed.multiplicities, closed.sources))
                    )
                    assert twins[row] == twin_verdict_oracle(oc, on, 1e-8)
                    assert recovered[row] == multiplicity_verdict_oracle(
                        oc.values(), on.values(), 1e-8
                    )
                    outcomes.add((bool(twins[row]), bool(recovered[row])))
    assert len(corpus) > 80 and outcomes == {(True, True), (False, False), (True, False), (False, True)}


def test_twin_counts_equal_the_broadcast_at_the_tolerance_edges():
    # each twin line's closed copies at v - t or v + t, or one float past or short of either,
    # for tolerances below and above the 1e-9 floor: counting closed lines weighted by their
    # multiplicity agrees with the per-alpha broadcast over the expanded values every time
    graph = next(g for g in blown_up_graphs(5, 50) if max(g.quotient.sizes, default=1) > 2)
    [numeric] = solve_quotient(graph, ("adjacency",), (0.3, 0.7))
    twin = np.char.startswith(numeric.sources, "twin")
    on = [
        Spectrum.from_lines(list(zip(row.tolist(), numeric.multiplicities, numeric.sources)))
        for row in numeric.values
    ]
    mults = np.concatenate([numeric.multiplicities[twin], numeric.multiplicities[~twin]])
    outcomes = set()
    for tol in (1e-12, 1e-9, 1e-8, 0.1):
        t = max(tol, 1e-9)
        for side in (-1.0, 1.0):
            edge = numeric.values[:, twin] + side * t
            for moved in (edge, np.nextafter(edge, side * np.inf), np.nextafter(edge, -side * np.inf)):
                values = np.column_stack([moved, numeric.values[:, ~twin]])
                closed = _sweep(values, mults, ["edge"] * len(mults), numeric.quotients)
                present = _twins_present(closed, numeric, tol)
                for row in range(2):
                    oc = Spectrum.from_lines(list(zip(values[row].tolist(), mults, closed.sources)))
                    assert present[row] == twin_verdict_oracle(oc, on[row], tol)
                    outcomes.add(bool(present[row]))
    assert outcomes == {True, False}
