"""Claim-by-claim verification: every closed-form result checked against oracles.

An `Instance` holds one (k, p) instance and every object derived from it;
each check reads what it needs from there, so one report builds the graph,
twin quotient, distance matrix and detour matrix once.  Each check returns a
name, a pass flag and enough detail to diagnose a failure.  Transcription
checks (published polynomial / published quotient matrix) never fail the
run: a mismatch emits a diagnostic and the numeric spectrum stays the arbiter.
"""

from __future__ import annotations

from collections import Counter
from functools import cached_property

import numpy as np

from . import matrices, metric, sequences, spectra
from .detour import DetourBudgetError, detour_matrix
from .graphs import (
    Graph,
    PartitionClasses,
    TwinQuotient,
    build_power_graph,
    classify_partition,
    family_degree_multiset,
    verify_decomposition,
)
from .groups import GroupParams

SPECTRUM_KINDS = ("adjacency", "reciprocal")


class Instance:
    """The power graph of one G(k, p) and the objects derived from it, each built at most once.

    `params`, `graph` and `partition` are built on construction; everything
    else on first use.  Per-alpha matrices are dropped once their eigenvalues
    are known, so the n x n arrays kept are the graph's adjacency, the
    distance matrix and, when the oracle runs, the detour matrix.  Nothing is
    cached across instances: the object lives as long as its caller keeps it.
    """

    def __init__(
        self, params: GroupParams, detour_budget_s: float = 60.0, detour_oracle_max_n: int = 24
    ):
        self.params = params
        self.detour_budget_s = detour_budget_s
        self.detour_oracle_max_n = detour_oracle_max_n
        self.graph = build_power_graph(params)
        self.partition = classify_partition(self.graph, params)
        self._spectra: dict[tuple[str, float], tuple[spectra.Spectrum, np.ndarray]] = {}

    @cached_property
    def quotient(self) -> TwinQuotient:
        return TwinQuotient(self.graph)

    @cached_property
    def dist(self) -> np.ndarray:
        return matrices.distance_matrix(self.graph)

    def spectrum(self, kind: str, alpha: float) -> tuple[spectra.Spectrum, np.ndarray]:
        """(closed form, numeric eigenvalues descending) of A_alpha or RD_alpha."""
        key = (kind, alpha)
        if key not in self._spectra:
            if kind == "adjacency":
                closed = spectra.a_alpha_closed_form(self.params, alpha)
                full = matrices.a_alpha(self.graph, alpha)
            else:
                closed = spectra.rd_alpha_closed_form(self.params, alpha)
                full = matrices.rd_alpha(self.graph, alpha, self.dist)
            self._spectra[key] = closed, spectra.sym_eigenvalues(full)
        return self._spectra[key]

    @cached_property
    def resolving(self) -> metric.ResolvingReport:
        return metric.metric_dimension(self.graph, dist=self.dist, quotient=self.quotient)

    @cached_property
    def gsr(self) -> Graph:
        """Strong resolving (MMD) graph."""
        return metric.mmd_graph(self.graph, self.dist)

    @cached_property
    def cover(self) -> tuple[int, tuple[int, ...]]:
        """Minimum vertex cover of the MMD graph; MetricSearchError past the search cap."""
        return metric.min_vertex_cover(self.gsr)

    @cached_property
    def dds(self) -> sequences.DegreeSequenceTable:
        return sequences.dds(self.graph, self.dist)

    @cached_property
    def detour_search(self) -> tuple[np.ndarray | None, DetourBudgetError | None]:
        """(detour matrix, budget error) of the exact search.

        The matrix is None when n exceeds `detour_oracle_max_n` (the search is
        not run) or when the search ran out of `detour_budget_s` (the error is
        returned, so no later reader runs it again).
        """
        if self.graph.n > self.detour_oracle_max_n:
            return None, None
        try:
            return detour_matrix(self.graph, self.detour_budget_s, self.quotient), None
        except DetourBudgetError as exc:
            return None, exc.with_traceback(None)  # keep no search frames alive

    @property
    def detour(self) -> np.ndarray | None:
        """Detour matrix, None above the oracle cap; raises the search's DetourBudgetError."""
        matrix, error = self.detour_search
        if error is not None:
            raise error
        return matrix


def _check(name: str, passed: bool, **details) -> dict:
    return {"name": name, "passed": bool(passed), "details": details}


def _classes_match(values, classes: PartitionClasses, predicted: dict) -> bool:
    """values[v] == predicted[c] for every vertex v of every class c that predicted names."""
    members = classes.named()
    return all(values[v] == predicted[c] for c in members.keys() & predicted for v in members[c])


def _cluster_tol(values: np.ndarray) -> float:
    radius = float(np.abs(values).max()) if values.size else 0.0
    return 1e-6 * max(1.0, radius)


def _multisets_agree(
    a: list[tuple[float, int]], b: list[tuple[float, int]], value_tol: float
) -> bool:
    if len(a) != len(b):
        return False
    return all(
        abs(va - vb) <= value_tol and ma == mb for (va, ma), (vb, mb) in zip(a, b)
    )


def spectrum_payload(
    params: GroupParams, alpha: float, closed: spectra.Spectrum, numeric: np.ndarray
) -> dict:
    """JSON payload for one (k, p, alpha) spectrum comparison."""
    return {
        "params": {"k": params.k, "p": params.p, "alpha": alpha},
        "families": [
            {"value": ln.value, "mult": ln.multiplicity, "source": ln.source}
            for ln in closed.lines
        ],
        "numeric": [float(v) for v in numeric],
        "max_deviation": float(np.abs(closed.values() - numeric).max()),
    }


def check_structure(inst: Instance) -> list[dict]:
    graph, classes, params = inst.graph, inst.partition, inst.params
    decomposition = verify_decomposition(graph, classes, params)
    counts = dict(Counter(graph.degrees().tolist()))
    predicted = family_degree_multiset(params)
    n = params.rotation_order
    sizes = tuple(len(c) for c in (classes.h0, classes.h1, classes.h2, classes.h3))
    sizes_ok = sizes == (2, n - 2, n // 2, n // 2)
    return [
        _check(
            "structure_decomposition",
            decomposition.ok,
            edge_count=graph.edge_count(),
            missing=decomposition.missing_edges[:10],
            extra=decomposition.extra_edges[:10],
        ),
        _check("degree_multiset", counts == predicted, computed=counts, predicted=predicted),
        _check("partition_sizes", sizes_ok),
    ]


def check_twin_eigenvalues(inst: Instance, alphas, tol: float) -> dict:
    per_alpha = {}
    ok = True
    for alpha in alphas:
        _, numeric = inst.spectrum("adjacency", alpha)
        present = True
        for line in spectra.twin_eigenvalues(inst.graph, alpha, inst.quotient).lines:
            hits = int(np.sum(np.abs(numeric - line.value) <= max(tol, 1e-9)))
            if hits < line.multiplicity:
                present = False
        per_alpha[repr(alpha)] = present
        ok = ok and present
    return _check("twin_eigenvalues_in_spectrum", ok, per_alpha=per_alpha)


def check_spectrum_family(
    inst: Instance, alphas, tol: float, kind: str
) -> tuple[dict, list[dict]]:
    """Closed form vs numeric spectrum for A_alpha or RD_alpha over an alpha sweep."""
    assert kind in SPECTRUM_KINDS
    payloads = []
    per_alpha = {}
    ok = True
    for alpha in alphas:
        closed, numeric = inst.spectrum(kind, alpha)
        deviation = float(np.abs(closed.values() - numeric).max())
        ctol = _cluster_tol(numeric)
        mult_ok = _multisets_agree(
            closed.merged(ctol),
            spectra.cluster_values(numeric, ctol),
            value_tol=ctol + tol,
        )
        entry_ok = deviation <= tol and mult_ok
        per_alpha[repr(alpha)] = {
            "max_deviation": deviation,
            "multiplicities_recovered": mult_ok,
        }
        ok = ok and entry_ok
        payloads.append(spectrum_payload(inst.params, alpha, closed, numeric))
    details = {"per_alpha": per_alpha}
    if kind == "reciprocal":
        rt = np.sort(matrices.reciprocal_distance(inst.graph, inst.dist).sum(axis=1))[::-1]
        at_one = spectra.rd_alpha_closed_form(inst.params, 1.0).values()
        rt_deviation = float(np.abs(at_one - rt).max())
        details["alpha_one_equals_transmissions"] = rt_deviation == 0.0
        ok = ok and rt_deviation == 0.0
    name = f"{kind}_alpha_spectrum"
    return _check(name, ok, **details), payloads


def check_transcriptions(params: GroupParams, alphas) -> list[dict]:
    checks = []
    for name, transcription_check in (
        ("quintic_transcription", spectra.quintic_transcription_check),
        ("reciprocal_quotient_transcription", spectra.rd_quotient_transcription_check),
    ):
        per_alpha = {repr(a): transcription_check(params, a).to_json_dict() for a in alphas}
        # a mismatch is reported, never fatal: the diagnostic must be present
        ok = all(v["matches"] or v["diagnostic"] for v in per_alpha.values())
        checks.append(_check(name, ok, per_alpha=per_alpha))
    return checks


def check_block_reduction(seed: int, cases: int = 100, tol: float = 1e-9) -> dict:
    rng = np.random.default_rng(seed)
    worst = 0.0
    for _ in range(cases):
        m1 = int(rng.integers(1, 5))
        m2 = int(rng.integers(1, 5))
        copies = int(rng.integers(1, 7))
        sym = lambda m: (m + m.T) / 2.0
        form = spectra.BlockForm(
            u=sym(rng.standard_normal((m1, m1))),
            v=rng.standard_normal((m1, m2)),
            x=sym(rng.standard_normal((m2, m2))),
            w=sym(rng.standard_normal((m2, m2))),
            copies=copies,
        )
        reduced = spectra.block_reduce(form).values()
        direct = spectra.sym_eigenvalues(spectra.assemble_block_matrix(form))
        worst = max(worst, float(np.abs(reduced - direct).max()))
    return _check("block_reduction_random", worst <= tol, cases=cases, max_deviation=worst)


def check_metric(inst: Instance) -> list[dict]:
    quarter = inst.params.rotation_order // 4
    expected_psi = 7 * quarter - 4
    psi_report = inst.resolving
    expected_sdim = inst.params.order - 3
    checks = [
        _check(
            "metric_dimension",
            psi_report.resolved and psi_report.psi == expected_psi,
            psi=psi_report.psi,
            expected=expected_psi,
            lower_bound=psi_report.lower_bound,
            witness_size=len(psi_report.witness),
        )
    ]
    try:
        cover_size, cover = inst.cover
    except metric.MetricSearchError as exc:
        checks.append(
            _check("strong_metric_dimension", False, expected=expected_sdim, error=str(exc))
        )
        return checks
    checks.append(
        _check(
            "strong_metric_dimension",
            cover_size == expected_sdim,
            sdim=cover_size,
            expected=expected_sdim,
            gsr_edge_count=inst.gsr.edge_count(),
            cover_witness_size=len(cover),
        )
    )
    return checks


def check_detour(inst: Instance) -> dict:
    classes = inst.partition
    predicted_ecc = sequences.family_detour_eccentricities(inst.params)
    computed, error = inst.detour_search
    if error is not None:
        return _check("detour_eccentricities", False, oracle_verified=False, error=str(error))
    if computed is None:
        return _check(
            "detour_eccentricities",
            True,
            oracle_verified=False,
            note="closed-form prediction only; instance above the oracle size cap",
            predicted=predicted_ecc,
        )
    predicted = sequences.family_detour_matrix(inst.graph, classes, inst.params)
    matrix_ok = bool(np.array_equal(computed, predicted))
    ecc, radius, diameter = sequences.detour_profile(computed)
    profile_ok = radius == predicted_ecc["radius"] and diameter == predicted_ecc["diameter"]
    per_class_ok = _classes_match(ecc, classes, predicted_ecc)
    return _check(
        "detour_eccentricities",
        matrix_ok and profile_ok and per_class_ok,
        oracle_verified=True,
        matrix_matches_closed_form=matrix_ok,
        radius=radius,
        diameter=diameter,
        predicted=predicted_ecc,
    )


def check_degree_sequences(inst: Instance) -> list[dict]:
    classes, params = inst.partition, inst.params
    table = inst.dds
    rows = sequences.family_dds_rows(params)
    h1_rep = min(classes.h1)
    rows_ok = _classes_match(table.rows, classes, rows)
    multiset_diff = sequences.compare_groupings(table.groups, sequences.family_dds_groups(params))
    checks = [
        _check(
            "distance_degree_sequences",
            rows_ok,
            e_row=list(table.rows[classes.e]),
            u_row=list(table.rows[classes.u]),
            h1_row=list(table.rows[h1_rep]),
            printed_multiset_comparison=multiset_diff,
        )
    ]
    detour, _ = inst.detour_search
    if detour is not None:
        dtable = sequences.dds_detour(detour)
        drows = sequences.family_dds_detour_rows(params)
        shape_ok = _classes_match(dtable.rows, classes, drows)
        grouping_ok = sequences.compare_groupings(
            dtable.groups, sequences.family_dds_detour_groups(params)
        )["matches"]
        checks.append(
            _check(
                "detour_degree_sequences",
                shape_ok and grouping_ok,
                oracle_verified=True,
                all_shapes_match=shape_ok,
                grouping_matches=grouping_ok,
            )
        )
    else:
        checks.append(
            _check(
                "detour_degree_sequences",
                True,
                oracle_verified=False,
                note="closed-form prediction only; detour oracle not run",
            )
        )
    return checks


def report_payload(
    inst: Instance, alphas, tol: float = 1e-8, seed: int = 0, version: str = "0"
) -> dict:
    """Run every verification on one instance and collect PASS/FAIL."""
    checks: list[dict] = []
    checks.extend(check_structure(inst))
    checks.append(check_twin_eigenvalues(inst, alphas, tol))
    payloads = {}
    for kind in SPECTRUM_KINDS:
        check, payloads[kind] = check_spectrum_family(inst, alphas, tol, kind)
        checks.append(check)
    checks.extend(check_transcriptions(inst.params, alphas))
    checks.append(check_block_reduction(seed))
    checks.extend(check_metric(inst))
    checks.append(check_detour(inst))
    checks.extend(check_degree_sequences(inst))
    return {
        "version": version,
        "config": {
            "k": inst.params.k,
            "p": inst.params.p,
            "alphas": list(alphas),
            "tol": tol,
            "seed": seed,
            "detour_budget_s": inst.detour_budget_s,
            "detour_oracle_max_n": inst.detour_oracle_max_n,
        },
        "order": inst.params.order,
        "checks": checks,
        "passed": all(c["passed"] for c in checks),
        "spectra": payloads,
    }


def build_report(
    k: int,
    p: int,
    alphas,
    tol: float = 1e-8,
    seed: int = 0,
    detour_budget_s: float = 60.0,
    detour_oracle_max_n: int = 24,
    version: str = "0",
) -> dict:
    """Run every verification for one (k, p) instance and collect PASS/FAIL."""
    inst = Instance(GroupParams(k, p), detour_budget_s, detour_oracle_max_n)
    return report_payload(inst, alphas, tol, seed, version)
