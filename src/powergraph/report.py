"""Claim-by-claim verification: every closed-form result checked against oracles.

An `Instance` holds one (k, p) instance and every object derived from it;
each check reads what it needs from there, so one report builds the graph,
twin quotient, class distances, quotient orbits and class detour matrix
once.  The spectra are array sweeps over the alphas (`spectra.Sweep`), one per kind and
side; the graph's orbit quotients of both kinds are one stacked solve, and each closed
form's 5 x 5 quotients one more, so a report makes 3 eigensolve calls.  Every spectrum
check, its payload and the transcription checks read those arrays, all alphas at once.
The spectra, the detour search and the blade-reduction check read the same orbits.  Each
check returns a name, a pass flag and enough detail to diagnose a failure.  Transcription
checks (published polynomial / published quotient matrix) never fail the run: a mismatch
emits a diagnostic and the numeric spectrum stays the arbiter.
"""

from __future__ import annotations

import math
from functools import cached_property

import numpy as np

from . import metric, sequences, spectra
from .detour import DetourBudgetError, detour_matrix
from .graphs import (
    CLASS_TYPES,
    Graph,
    build_power_graph,
    family_degree_multiset,
    predicted_quotient,
)
from .groups import MAX_VERTICES, GroupParams

SPECTRUM_KINDS = ("adjacency", "reciprocal")


class Instance:
    """The power graph of one G(k, p) and the objects derived from it, each built at most once.

    `params`, `graph` and the `predicted` twin quotient of the closed forms,
    with its `predicted_types`, are built on construction
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
        self.predicted, self.predicted_types = predicted_quotient(self.graph.elements, params)
        self._alphas: list[float] = []
        self._sweeps: dict[str, tuple[spectra.Sweep, spectra.Sweep]] = {}

    def spectra(self, kind: str, alphas) -> tuple[spectra.Sweep, spectra.Sweep]:
        """(closed form, graph's own spectrum) sweeps of A_alpha or RD_alpha, row i at alphas[i].

        Both kinds are solved together over every alpha asked for so far and alpha = 1, which
        the transmission check reads; an alpha not held yet re-solves them.
        """
        alphas = list(alphas)
        if not self._sweeps or not set(alphas) <= set(self._alphas):
            self._alphas = list(dict.fromkeys([*self._alphas, *alphas, 1.0]))
            numeric = spectra.solve_quotient(self.graph, SPECTRUM_KINDS, self._alphas)
            closed = [
                spectra.a_alpha_closed_form(self.params, self._alphas),
                spectra.rd_alpha_closed_form(self.params, self._alphas),
            ]
            self._sweeps = dict(zip(SPECTRUM_KINDS, zip(closed, numeric)))
        closed, numeric = self._sweeps[kind]
        if alphas == self._alphas:
            return closed, numeric
        rows = [self._alphas.index(alpha) for alpha in alphas]
        return closed.rows(rows), numeric.rows(rows)

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
        order) or when the search refused a non-cograph or ran out of
        `detour_budget_s` (the error is returned, so no later reader runs it
        again).
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
    def vertex_types(self) -> np.ndarray:
        """The predicted type of each vertex, an index into `CLASS_TYPES`."""
        return self.predicted_types[self.predicted.class_of]

    @cached_property
    def twins_as_predicted(self) -> bool:
        """Whether the twin classes, and their closedness, are the predicted ones."""
        quotient, predicted = self.graph.quotient, self.predicted
        return quotient.members == predicted.members and quotient.closed == predicted.closed


def _check(name: str, passed: bool, **details) -> dict:
    return {"name": name, "passed": bool(passed), "details": details}


def _classes_match(inst: Instance, values, predicted: dict) -> bool:
    """values[a] == predicted[t] for each graph class a and predicted type t of a vertex in it.

    Only the types that `predicted` names (by `CLASS_TYPES` name) are compared.
    """
    by_type = {t: predicted[name] for t, name in enumerate(CLASS_TYPES) if name in predicted}
    quotient = inst.graph.quotient
    seen = np.zeros((len(quotient.sizes), len(CLASS_TYPES)), dtype=bool)
    seen[quotient.class_of, inst.vertex_types] = True
    pairs = zip(*(part.tolist() for part in np.nonzero(seen)))  # each (class, type) once
    return all(values[a] == by_type[t] for a, t in pairs if t in by_type)


def _cluster_tol(values: np.ndarray) -> np.ndarray:
    """The clustering tolerance of each row of `values` (A, n), as an (A, 1) column."""
    return 1e-6 * np.maximum(1.0, np.abs(values).max(axis=1, initial=0.0))[:, None]


def _max_deviations(predicted: np.ndarray, numeric: np.ndarray) -> np.ndarray:
    """Largest gap between two descending rows, per row; inf when their lengths differ."""
    if predicted.shape != numeric.shape:
        return np.full(len(numeric), math.inf)
    return np.abs(predicted - numeric).max(axis=1, initial=0.0)


def _runs(values: np.ndarray, tol: np.ndarray) -> np.ndarray:
    """Where the runs of each descending row of `values` (A, n) start: past a gap > tol (A, 1)."""
    first = np.ones(values.shape, dtype=bool)
    first[:, 1:] = values[:, :-1] - values[:, 1:] > tol
    return first


def _multiplicities_recovered(predicted: np.ndarray, numeric: np.ndarray, tol: float) -> np.ndarray:
    """Per row: both descending rows cluster alike, in runs split at gaps above the cluster tol.

    The runs agree in number and size exactly when the split masks are equal; then each
    run's mean gap between the rows must lie within the tolerance plus `tol`.
    """
    if predicted.shape != numeric.shape:
        return np.zeros(len(numeric), dtype=bool)
    ctol = _cluster_tol(numeric)
    first = _runs(numeric, ctol)
    alike = (first == _runs(predicted, ctol)).all(axis=1)
    starts = first.ravel().nonzero()[0]
    sizes = np.append(starts[1:], first.size) - starts
    rows = starts // numeric.shape[1]
    means = np.add.reduceat((predicted - numeric).ravel(), starts) / sizes
    apart = np.abs(means) > (ctol[:, 0] + tol)[rows]
    return alike & (np.bincount(rows[apart], minlength=len(numeric)) == 0)


def _twins_present(closed: spectra.Sweep, numeric: spectra.Sweep, tol: float) -> np.ndarray:
    """Per alpha: every twin line of `numeric` lies in `closed` as often as its multiplicity.

    Twin lines of one value and tag are one line, whose multiplicity is
    their sum; closed values within max(tol, 1e-9) of it count.
    """
    twin = (numeric.sources == "twin-open") | (numeric.sources == "twin-closed")
    values, tags = numeric.values[:, twin], numeric.sources[twin]
    near = np.abs(closed.values[:, :, None] - values[:, None, :]) <= max(tol, 1e-9)
    hits = closed.multiplicities @ near
    same_line = (values[:, :, None] == values[:, None, :]) & (tags[:, None] == tags)
    return (hits >= same_line @ numeric.multiplicities[twin]).all(axis=1)


def spectrum_payloads(
    params: GroupParams, alphas, closed: spectra.Sweep, numeric: spectra.Sweep
) -> list[dict]:
    """JSON payload of each (k, p, alpha) spectrum comparison; the sweeps' row i is alphas[i].

    The closed form's lines are listed by descending value, equal values in line order.
    """
    order = (-closed.values).argsort(axis=1, kind="stable")
    values = closed.values[np.arange(len(order))[:, None], order].tolist()
    lines = zip(values, closed.multiplicities[order].tolist(), closed.sources[order].tolist())
    deviations = _max_deviations(closed.expanded, numeric.expanded).tolist()
    return [
        {
            "params": {"k": params.k, "p": params.p, "alpha": alpha},
            "families": [{"value": v, "mult": m, "source": s} for v, m, s in zip(*line)],
            "numeric": row,
            "max_deviation": deviation,
        }
        for alpha, line, row, deviation in zip(alphas, lines, numeric.expanded.tolist(), deviations)
    ]


def check_structure(inst: Instance) -> list[dict]:
    """The graph against the predicted quotient: equal members, closedness and class adjacency.

    Only on a mismatch are the missing and extra edges listed, from the lifted prediction.
    """
    graph, quotient, predicted = inst.graph, inst.graph.quotient, inst.predicted
    missing = extra = []
    if not (inst.twins_as_predicted and np.array_equal(quotient.adj, predicted.adj)):
        expected = predicted.lift(predicted.adj)
        missing, extra = Graph(expected & ~graph.adj).edges(), Graph(graph.adj & ~expected).edges()
    counts: dict[int, int] = {}  # in order of first vertex, as the classes are
    for degree, size in zip(quotient.degrees(quotient.adj).tolist(), quotient.sizes):
        counts[degree] = counts.get(degree, 0) + size
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
    present = _twins_present(*inst.spectra("adjacency", alphas), tol).tolist()
    per_alpha = {repr(alpha): ok for alpha, ok in zip(alphas, present)}
    return _check("twin_eigenvalues_in_spectrum", all(present), per_alpha=per_alpha)


def check_spectrum_family(
    inst: Instance, alphas, tol: float, kind: str
) -> tuple[dict, list[dict]]:
    """Closed form vs numeric spectrum for A_alpha or RD_alpha over an alpha sweep."""
    assert kind in SPECTRUM_KINDS
    closed, numeric = inst.spectra(kind, alphas)
    payloads = spectrum_payloads(inst.params, alphas, closed, numeric)
    recovered = _multiplicities_recovered(closed.expanded, numeric.expanded, tol).tolist()
    per_alpha = {}
    ok = True
    for alpha, payload, mult_ok in zip(alphas, payloads, recovered):
        deviation = payload["max_deviation"]
        per_alpha[repr(alpha)] = {"max_deviation": deviation, "multiplicities_recovered": mult_ok}
        ok = ok and deviation <= tol and mult_ok
    details = {"per_alpha": per_alpha}
    if kind == "reciprocal":
        _, _, transmissions = inst.graph.quotient.reciprocals
        rt = np.sort(transmissions[inst.graph.quotient.class_of])[::-1]
        at_one, _ = inst.spectra(kind, (1.0,))
        [rt_deviation] = _max_deviations(at_one.expanded, rt[None, :]).tolist()
        details["alpha_one_equals_transmissions"] = rt_deviation == 0.0
        ok = ok and rt_deviation == 0.0
    name = f"{kind}_alpha_spectrum"
    return _check(name, ok, **details), payloads


def check_transcriptions(inst: Instance, alphas) -> list[dict]:
    """The printed quintic at the closed form's quotient roots, and the printed RD quotient.

    Each reads the closed-form sweep of its kind.  A mismatch is reported,
    never fatal: its diagnostic must be present.
    """
    (a_closed, _), (rd_closed, _) = (inst.spectra(kind, alphas) for kind in SPECTRUM_KINDS)
    checks = {
        "quintic_transcription": spectra.quintic_transcription_check(inst.params, alphas, a_closed),
        "reciprocal_quotient_transcription": spectra.rd_quotient_transcription_check(rd_closed),
    }
    keys = [repr(alpha) for alpha in alphas]
    return [
        _check(
            name, all(c["matches"] or c["diagnostic"] for c in cs), per_alpha=dict(zip(keys, cs))
        )
        for name, cs in checks.items()
    ]


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
    per_class_ok = _classes_match(inst, ecc, predicted_ecc)
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
    params, table = inst.params, inst.dds
    rows_ok = _classes_match(inst, table.class_rows, sequences.family_dds_rows(params))
    types = inst.predicted_types.tolist()
    # the class of the first vertex of each type, the first member of its first predicted class
    first = {
        name: table.class_of[inst.predicted.members[types.index(t)][0]]
        for t, name in enumerate(CLASS_TYPES)
    }
    multiset_diff = sequences.compare_groupings(table.groups, sequences.family_dds_groups(params))
    checks = [
        _check(
            "distance_degree_sequences",
            rows_ok,
            e_row=list(table.class_rows[first["e"]]),
            u_row=list(table.class_rows[first["u"]]),
            h1_row=list(table.class_rows[first["h1"]]),
            printed_multiset_comparison=multiset_diff,
        )
    ]
    dtable = inst.detour_dds
    _, error = inst.detour_search
    if dtable is not None:
        drows = sequences.family_dds_detour_rows(params)
        shape_ok = _classes_match(inst, dtable.class_rows, drows)
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
    elif error is not None:  # the search was refused or ran out of its budget, as in check_detour
        checks.append(
            _check("detour_degree_sequences", False, oracle_verified=False, error=str(error))
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
    checks.extend(check_transcriptions(inst, alphas))
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
