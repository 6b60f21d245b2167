"""Acceptance suite: every criterion at its stated tolerance, one line per criterion.

Run with `pytest tests/test_acceptance.py -v -s` to see the PASS lines.
"""

import io
import tempfile
import time
from pathlib import Path

import numpy as np

from powergraph import report as report_mod
from powergraph.cli import RunConfig, run
from oracles import (
    blown_up_graphs,
    complete_graph,
    cycle_graph,
    dense_quotient_roots,
    exhaustive_metric_dimension,
    multiplicity_verdict_oracle,
    path_graph,
    star_graph,
    vertex_rows,
)
from powergraph.detour import detour_matrix
from powergraph.matrices import a_alpha, rd_alpha, reciprocal_transmission
from powergraph.graphs import build_power_graph, predicted_quotient
from powergraph.groups import GroupParams
from powergraph.metric import metric_dimension, min_vertex_cover, mmd_graph, strong_cover
from powergraph.sequences import (
    DegreeSequenceTable,
    compare_groupings,
    dds,
    detour_profile,
    family_dds_detour_rows,
    family_dds_groups,
    family_dds_rows,
    family_detour_matrix,
)
from powergraph.spectra import (
    a_alpha_closed_form,
    quintic_transcription_check,
    rd_alpha_closed_form,
    solve_quotient,
    sym_eigenvalues,
    twin_eigenvalues,
)

GRID_KP = [(2, 3), (2, 5), (3, 3)]
GRID_ALPHA = [0.0, 0.25, 0.5, 0.75, 1.0]


def announce(criterion, passed):
    print(f"{'PASS' if passed else 'FAIL'}  {criterion}")
    assert passed


def test_criterion_1_adjacency_alpha_spectra(family):
    ok = True
    for k, p in GRID_KP:
        params, graph, _ = family(k, p)
        start = time.monotonic()
        closed = a_alpha_closed_form(params, GRID_ALPHA)
        numeric = np.array([sym_eigenvalues(a_alpha(graph, alpha)) for alpha in GRID_ALPHA])
        ok = ok and float(np.abs(closed.expanded - numeric).max()) <= 1e-8
        for expected, values in zip(closed.expanded, numeric):
            ok = ok and multiplicity_verdict_oracle(expected, values, 1e-8)
        ok = ok and (time.monotonic() - start) < 5.0
    announce("1 adjacency alpha spectra match closed form on the grid", ok)


def test_criterion_2_quintic_transcription(family):
    ok = True
    for k, p in GRID_KP:
        params, _, _ = family(k, p)
        closed = a_alpha_closed_form(params, GRID_ALPHA)
        for check in quintic_transcription_check(params, GRID_ALPHA, closed):
            # small residual passes outright; otherwise the mismatch diagnostic
            # must be emitted and the spectrum checks stay authoritative
            ok = ok and (check["matches"] or check["diagnostic"] is not None)
    announce("2 printed quintic matches or mismatch diagnostic is emitted", ok)


def test_criterion_3_reciprocal_alpha_spectra(family):
    ok = True
    for k, p in GRID_KP:
        params, graph, _ = family(k, p)
        closed = rd_alpha_closed_form(params, GRID_ALPHA)
        for alpha, values in zip(GRID_ALPHA, closed.expanded):
            numeric = sym_eigenvalues(rd_alpha(graph, alpha))
            ok = ok and float(np.abs(values - numeric).max()) <= 1e-8
        rt = np.sort(np.diag(reciprocal_transmission(graph)))[::-1]
        at_one = rd_alpha_closed_form(params, (1.0,)).expanded[0]
        ok = ok and np.array_equal(at_one, rt)
    announce("3 reciprocal alpha spectra match; alpha=1 equals transmissions", ok)


def test_criterion_4_block_reduction(family):
    def worst_gap(graph, cases):
        """solve_quotient's non-twin values against the dense k x k quotient roots, relative."""
        worst = 0.0
        for kind, alpha in cases:
            [sweep] = solve_quotient(graph, (kind,), (alpha,))
            keep = ~np.char.startswith(sweep.sources, "twin")
            values = np.repeat(sweep.values[0, keep], sweep.multiplicities[keep])
            dense = dense_quotient_roots(graph, kind, alpha)
            gap = np.abs(np.sort(values)[::-1] - dense).max()
            worst = max(worst, float(gap) / max(1.0, float(np.abs(dense).max())))
        return worst

    every = [(kind, alpha) for kind in report_mod.SPECTRUM_KINDS for alpha in GRID_ALPHA]
    # the graph's own orbits on the seeded twin corpus and on the family
    worst = max(worst_gap(graph, every) for graph in blown_up_graphs(8, 200))
    for k, p in ((2, 3), (3, 5), (5, 5), (7, 7)):
        worst = max(worst, worst_gap(family(k, p)[1], every))
    one_alpha = [("adjacency", 0.5), ("reciprocal", 0.5)]
    worst = max(worst, worst_gap(build_power_graph(GroupParams(9, 7)), one_alpha))
    announce(f"4 orbit reduction matches the dense quotient (worst {worst:.2e})", worst <= 1e-9)


def test_criterion_5_metric_dimension(family):
    ok = True
    for (k, p), expected in zip(GRID_KP, (17, 31, 38)):
        _, graph, _ = family(k, p)
        rep = metric_dimension(graph)
        ok = ok and rep.resolved and rep.psi == expected and rep.lower_bound == len(rep.witness)
    for n in range(2, 11):
        ok = ok and exhaustive_metric_dimension(path_graph(n)) == 1
        ok = ok and exhaustive_metric_dimension(complete_graph(n)) == n - 1
    for n in range(4, 11):
        ok = ok and exhaustive_metric_dimension(cycle_graph(n)) == 2
    for leaves in range(2, 10):
        ok = ok and exhaustive_metric_dimension(star_graph(leaves)) == leaves - 1
    announce("5 metric dimension certified on the family and the oracle corpus", ok)


def test_criterion_6_strong_metric_dimension(family):
    ok = True
    for (k, p), expected in [((2, 3), 21), ((2, 5), 37)]:
        _, graph, _ = family(k, p)
        start = time.monotonic()
        size, _ = strong_cover(graph.quotient, mmd_graph(graph))
        ok = ok and size == expected and (time.monotonic() - start) < 60.0
    for n in range(2, 11):
        ok = ok and min_vertex_cover(complete_graph(n))[0] == n - 1
    announce("6 strong metric dimension via MMD graph and exact cover", ok)


def test_criterion_7_detour(family):
    params, graph, classes = family(2, 3)
    start = time.monotonic()
    computed = detour_matrix(graph, time_budget_s=60.0)
    elapsed = time.monotonic() - start
    _, types = predicted_quotient(graph.elements, params)
    predicted = family_detour_matrix(types, params)
    ecc, radius, diameter = detour_profile(computed)
    ecc = ecc[graph.quotient.class_of]
    ok = bool(np.array_equal(computed, predicted))
    ok = ok and (radius, diameter) == (13, 15)
    ok = ok and ecc[classes.e] == 13 and ecc[classes.u] == 13
    ok = ok and all(ecc[v] == 15 for v in classes.h1)
    ok = ok and all(ecc[v] == 14 for v in classes.h2)
    ok = ok and all(ecc[v] == 15 for v in classes.h3)
    ok = ok and elapsed < 60.0
    # larger instances are reported from the closed form, marked unverified
    bigger = report_mod.build_report(2, 5, (0.5,), detour_oracle_max_n=24)
    detour_check = next(c for c in bigger["checks"] if c["name"] == "detour_eccentricities")
    ok = ok and detour_check["passed"] and not detour_check["details"]["oracle_verified"]
    announce("7 exact detour oracle reproduces every closed-form value at (2,3)", ok)


def test_criterion_8_degree_sequences(family):
    params, graph, classes = family(2, 3)
    table = dds(graph)
    got, rows = vertex_rows(table), family_dds_rows(params)
    ok = got[classes.e] == rows["e"]
    ok = ok and got[classes.u] == rows["u"]
    ok = ok and all(got[v] == rows["h1"] for v in classes.h1)
    dtable = DegreeSequenceTable.from_classes(graph.quotient, detour_matrix(graph))
    dgot, drows = vertex_rows(dtable), family_dds_detour_rows(params)
    ok = ok and dgot[classes.e] == drows["e"]
    ok = ok and dgot[classes.u] == drows["u"]
    ok = ok and all(dgot[v] == drows["h1"] for v in classes.h1)
    ok = ok and all(dgot[v] == drows["h2"] for v in classes.h2)
    ok = ok and all(dgot[v] == drows["h3"] for v in classes.h3)
    # the printed dds multiset omits the pendant and order-4 shapes: reported
    comparison = compare_groupings(table.groups, family_dds_groups(params))
    ok = ok and not comparison["matches"]
    ok = ok and comparison["only_computed"] == [[[1, 1, 22], 6], [[1, 3, 20], 6]]
    announce("8 degree sequences match where unambiguous; discrepancy reported", ok)


def test_criterion_9_structure(family):
    from oracles import verify_decomposition
    from powergraph.graphs import family_degree_multiset

    ok = True
    for k, p in GRID_KP:
        params, graph, classes = family(k, p)
        ok = ok and verify_decomposition(graph, classes, params) == ([], [])
        counts = {}
        for d in graph.degrees():
            counts[int(d)] = counts.get(int(d), 0) + 1
        ok = ok and counts == family_degree_multiset(params)
        twins = twin_eigenvalues(graph, "adjacency", GRID_ALPHA)
        lines = list(zip(twins.multiplicities.tolist(), twins.sources.tolist()))
        for alpha, values in zip(GRID_ALPHA, twins.values.tolist()):
            numeric = sym_eigenvalues(a_alpha(graph, alpha))
            merged = {}  # twin lines of one value and tag are one line
            for value, (multiplicity, tag) in zip(values, lines):
                merged[value, tag] = merged.get((value, tag), 0) + multiplicity
            for (value, _), multiplicity in merged.items():
                hits = int(np.sum(np.abs(numeric - value) <= 1e-8))
                ok = ok and hits >= multiplicity
    announce("9 structure decomposition, degrees and twin eigenvalues verified", ok)


def test_criterion_10_reproducibility():
    config = RunConfig(k=2, p=3, alphas=(0.0, 0.5, 1.0), commands=("report",), seed=7)
    codes, artifacts = [], []
    for _ in range(2):
        with tempfile.TemporaryDirectory() as tmp:
            config.out_dir = Path(tmp)
            codes.append(run(config, out=io.StringIO()))
            artifacts.append({path.name: path.read_bytes() for path in Path(tmp).iterdir()})
    ok = codes == [0, 0] and artifacts[0] == artifacts[1] and len(artifacts[0]) == 1
    announce("10 identical config and seed give byte-identical reports", ok)
