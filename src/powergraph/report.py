"""Claim-by-claim verification: every closed-form result checked against oracles.

An `Instance` holds one (k, p) instance and every object derived from it;
each check reads what it needs from there, so one report builds the graph,
twin quotient, class distances, quotient orbits and class detour matrix
once; the spectra (one m x m solve each, m = 5 orbits on the family), the
detour search and the blade-reduction check read the same orbits.  Each
check returns a name, a pass flag and enough detail to diagnose a failure.
Transcription checks (published polynomial / published quotient matrix) never
fail the run: a mismatch emits a diagnostic and the numeric spectrum stays the arbiter.
"""

from __future__ import annotations

import math
from collections import Counter
from functools import cached_property

import numpy as np

from . import metric, sequences, spectra
from .detour import DetourBudgetError, detour_matrix
from .graphs import (
    CLASS_TYPES,
    Graph,
    PartitionClasses,
    build_power_graph,
    classify_partition,
    family_degree_multiset,
    predicted_quotient,
)
from .groups import MAX_VERTICES, GroupParams

SPECTRUM_KINDS = ("adjacency", "reciprocal")


class Instance:
    """The power graph of one G(k, p) and the objects derived from it, each built at most once.

    `params`, `graph`, `partition` and the `predicted` twin quotient of the
    closed forms, with its `predicted_types`, are built on construction
    (`GroupParams` refuses an order above `groups.MAX_VERTICES`); everything
    else on first use.  The graph holds its twin quotient, which holds the
    k x k class distances and the orbits; the detour search and the MMD graph give k x k
    class matrices too.  Every check reads class matrices, so the only n x n
    array is the graph's adjacency.  Nothing is cached across instances.
    """

    def __init__(
        self,
        params: GroupParams,
        detour_budget_s: float = 60.0,
        detour_oracle_max_n: int = MAX_VERTICES,
    ):
        self.params = params
        self.detour_budget_s = detour_budget_s
        self.detour_oracle_max_n = detour_oracle_max_n
        self.graph = build_power_graph(params)
        self.partition = classify_partition(self.graph, params)
        self.predicted, self.predicted_types = predicted_quotient(self.graph.labels, self.partition)
        self._spectra: dict[tuple[str, float], tuple[spectra.Spectrum, spectra.Spectrum]] = {}

    def spectrum(self, kind: str, alpha: float) -> tuple[spectra.Spectrum, spectra.Spectrum]:
        """(closed form, the graph's own spectrum) of A_alpha or RD_alpha."""
        key = (kind, alpha)
        if key not in self._spectra:
            if kind == "adjacency":
                closed = spectra.a_alpha_closed_form(self.params, alpha)
            else:
                closed = spectra.rd_alpha_closed_form(self.params, alpha)
            self._spectra[key] = closed, spectra.solve_quotient(self.graph, kind, alpha)
        return self._spectra[key]

    @cached_property
    def resolving(self) -> metric.ResolvingReport:
        return metric.metric_dimension(self.graph)

    @cached_property
    def gsr(self) -> np.ndarray:
        """Strong resolving (MMD) graph as a k x k class matrix."""
        return metric.mmd_graph(self.graph)

    @cached_property
    def cover(self) -> tuple[int, tuple[int, ...]]:
        """Minimum vertex cover of the MMD graph; MetricSearchError past the search cap."""
        return metric.strong_cover(self.graph.quotient, self.gsr)

    @cached_property
    def dds(self) -> sequences.DegreeSequenceTable:
        return sequences.dds(self.graph)

    @cached_property
    def detour_search(self) -> tuple[np.ndarray | None, DetourBudgetError | None]:
        """(k x k class detour matrix, budget error) of the exact search.

        The matrix is None when n exceeds `detour_oracle_max_n` (the search is
        not run; the default cap, `MAX_VERTICES`, runs it on every family
        order) or when the search ran out of `detour_budget_s` (the error is
        returned, so no later reader runs it again).
        """
        if self.graph.n > self.detour_oracle_max_n:
            return None, None
        try:
            return detour_matrix(self.graph, self.detour_budget_s), None
        except DetourBudgetError as exc:
            return None, exc.with_traceback(None)  # keep no search frames alive

    @property
    def detour(self) -> np.ndarray | None:
        """Class detour matrix, None above the oracle cap; raises the search's DetourBudgetError."""
        matrix, error = self.detour_search
        if error is not None:
            raise error
        return matrix

    @cached_property
    def detour_profile(self) -> tuple[np.ndarray, int, int] | None:
        """(detour eccentricity per class, radius, diameter); None without a detour matrix."""
        matrix, _ = self.detour_search
        if matrix is None:
            return None
        return sequences.detour_profile(matrix)

    @cached_property
    def detour_dds(self) -> sequences.DegreeSequenceTable | None:
        """Detour distance degree sequences; None without a detour matrix."""
        matrix, _ = self.detour_search
        if matrix is None:
            return None
        return sequences.DegreeSequenceTable.from_classes(self.graph.quotient, matrix)

    @cached_property
    def twins_as_predicted(self) -> bool:
        """Whether the twin classes, and their closedness, are the predicted ones."""
        quotient, predicted = self.graph.quotient, self.predicted
        return quotient.members == predicted.members and quotient.closed == predicted.closed


def _check(name: str, passed: bool, **details) -> dict:
    return {"name": name, "passed": bool(passed), "details": details}


def _classes_match(values, class_of, classes: PartitionClasses, predicted: dict) -> bool:
    """values[class_of[v]] == predicted[c] for each vertex v of each class c predicted names."""
    members = classes.named()
    pairs = {(class_of[v], c) for c in members.keys() & predicted for v in members[c]}
    return all(values[a] == predicted[c] for a, c in pairs)


def _cluster_tol(values: np.ndarray) -> float:
    radius = float(np.abs(values).max()) if values.size else 0.0
    return 1e-6 * max(1.0, radius)


def _max_deviation(predicted: np.ndarray, numeric: np.ndarray) -> float:
    """Largest gap between two descending value lists; inf when their lengths differ."""
    if predicted.shape != numeric.shape:
        return math.inf
    return float(np.abs(predicted - numeric).max(initial=0.0))


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
        "max_deviation": _max_deviation(closed.values(), numeric),
    }


def check_structure(inst: Instance) -> list[dict]:
    """The graph against the predicted quotient: equal members, closedness and class adjacency.

    Only on a mismatch are the missing and extra edges listed, from the lifted prediction.
    """
    graph, quotient, predicted = inst.graph, inst.graph.quotient, inst.predicted
    missing = extra = []
    if not (inst.twins_as_predicted and np.array_equal(quotient.adj, predicted.adj)):
        expected = predicted.lift(predicted.adj)
        missing, extra = Graph(expected & ~graph.adj).edges(), Graph(graph.adj & ~expected).edges()
    counts = dict(Counter(quotient.degrees(quotient.adj)[quotient.class_of].tolist()))
    multiset = family_degree_multiset(inst.params)
    return [
        _check(
            "structure_decomposition",
            not missing and not extra,
            edge_count=quotient.edge_count(quotient.adj),
            missing=missing[:10],
            extra=extra[:10],
        ),
        _check("degree_multiset", counts == multiset, computed=counts, predicted=multiset),
        _check("partition_sizes", inst.twins_as_predicted),
    ]


def check_twin_eigenvalues(inst: Instance, alphas, tol: float) -> dict:
    """The graph's twin lines of A_alpha are contained in the closed-form spectrum."""
    per_alpha = {}
    ok = True
    for alpha in alphas:
        closed, numeric = inst.spectrum("adjacency", alpha)
        predicted = closed.values()
        present = all(
            np.sum(np.abs(predicted - line.value) <= max(tol, 1e-9)) >= line.multiplicity
            for line in numeric.lines
            if line.source.startswith("twin")
        )
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
        closed, spectrum = inst.spectrum(kind, alpha)
        numeric = spectrum.values()
        deviation = _max_deviation(closed.values(), numeric)
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
        _, _, transmissions = spectra.class_reciprocals(inst.graph)
        rt = np.sort(transmissions[inst.graph.quotient.class_of])[::-1]
        at_one = spectra.rd_alpha_closed_form(inst.params, 1.0).values()
        rt_deviation = _max_deviation(at_one, rt)
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


def check_block_reduction(inst: Instance) -> dict:
    """The paper's blade reduction, derived from the graph: the blades are identical copies.

    The graph's own orbits (`TwinQuotient.orbits`), on which every spectrum is
    solved (`spectra.solve_quotient`), must be its twin classes grouped by
    predicted type: {e}, {u}, {h1}, {h2} and the c = N/4 blades.  The check
    FAILs, with a reason, when the twin classes or the orbits are not the
    predicted ones.  (The name is the one the benchmark's gate expects.)
    """
    name = "block_reduction_random"
    if not inst.twins_as_predicted:
        return _check(name, False, reason="the twin classes are not the predicted ones")
    types = inst.predicted_types
    grouped = tuple(sorted(tuple(np.flatnonzero(types == t).tolist()) for t in set(types)))
    if inst.graph.quotient.orbits != grouped:
        reason = "the blades are not identical copies: the orbits are not the predicted types"
        return _check(name, False, reason=reason)
    return _check(name, True, copies=int(np.count_nonzero(types == CLASS_TYPES.index("h3"))))


def check_metric(inst: Instance) -> list[dict]:
    quarter = inst.params.rotation_order // 4
    expected_psi = 7 * quarter - 4
    expected_sdim = inst.params.order - 3
    try:
        psi_report = inst.resolving
    except metric.MetricSearchError as exc:
        checks = [_check("metric_dimension", False, expected=expected_psi, error=str(exc))]
    else:
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
            gsr_edge_count=inst.graph.quotient.edge_count(inst.gsr),
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
    # the class matrices are over the same classes exactly when the twin classes are as predicted
    predicted = sequences.family_detour_matrix(inst.predicted_types, inst.params)
    matrix_ok = inst.twins_as_predicted and bool(np.array_equal(computed, predicted))
    ecc, radius, diameter = inst.detour_profile
    profile_ok = radius == predicted_ecc["radius"] and diameter == predicted_ecc["diameter"]
    per_class_ok = _classes_match(ecc, inst.graph.quotient.class_of, classes, predicted_ecc)
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
    class_rows, class_of = table.class_rows, table.class_of
    rows_ok = _classes_match(class_rows, class_of, classes, rows)
    multiset_diff = sequences.compare_groupings(table.groups, sequences.family_dds_groups(params))
    checks = [
        _check(
            "distance_degree_sequences",
            rows_ok,
            e_row=list(class_rows[class_of[classes.e]]),
            u_row=list(class_rows[class_of[classes.u]]),
            h1_row=list(class_rows[class_of[min(classes.h1)]]),
            printed_multiset_comparison=multiset_diff,
        )
    ]
    dtable = inst.detour_dds
    if dtable is not None:
        drows = sequences.family_dds_detour_rows(params)
        shape_ok = _classes_match(dtable.class_rows, dtable.class_of, classes, drows)
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
    """Run every verification on one instance and collect PASS/FAIL.

    `seed` is only recorded in the config: no check is randomized.
    """
    checks: list[dict] = []
    checks.extend(check_structure(inst))
    checks.append(check_twin_eigenvalues(inst, alphas, tol))
    payloads = {}
    for kind in SPECTRUM_KINDS:
        check, payloads[kind] = check_spectrum_family(inst, alphas, tol, kind)
        checks.append(check)
    checks.extend(check_transcriptions(inst.params, alphas))
    checks.append(check_block_reduction(inst))
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
    detour_oracle_max_n: int = MAX_VERTICES,
    version: str = "0",
) -> dict:
    """Run every verification for one (k, p) instance and collect PASS/FAIL."""
    inst = Instance(GroupParams(k, p), detour_budget_s, detour_oracle_max_n)
    return report_payload(inst, alphas, tol, seed, version)
