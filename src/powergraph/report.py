"""Claim-by-claim verification: every closed-form result checked against oracles.

An `Instance` holds one (k, p) instance and every object derived from it;
each check reads what it needs from there, so one report builds the graph,
twin quotient, class distances, quotient orbits and class detour matrix
once.  Each refusable result (detour search, twin witness, strong cover) is a
cached property that returns its value or raises its refusal; a check reads it once
in one `try`, and a refusal FAILs the check with the reason (`check_detour`
decides both detour checks in one branch).  An `Instance` holds its alphas, and the
spectra are array sweeps over them (`spectra.Sweep`), one per kind and side, solved once:
the graph's orbit quotients of both kinds are one stacked solve, and both closed forms'
5 x 5 quotients one more, so a report makes 2 eigensolve calls.  Each kind's payloads
are built once from the sweeps, and `check_spectra` reads the sweeps and payloads for
all five spectrum checks, all alphas at once; the CLI's `spectra` view writes the same
payloads.  The spectra, the detour search and the blade-reduction check read the same
orbits.  Each check returns a name, a pass flag and enough detail to diagnose a failure.
Transcription checks (published polynomial / published quotient matrix) never fail the
run: a mismatch emits a diagnostic and the numeric spectrum stays the arbiter.
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

    `params`, `alphas`, `graph` and the `predicted` twin quotient of the closed
    forms, with its `predicted_types`, are set on construction
    (`GroupParams` refuses an order above `groups.MAX_VERTICES`); everything
    else on first use.  The graph holds its twin quotient, which holds the
    k x k class distances and the orbits; the detour search and the MMD graph give k x k
    class matrices too.  Every check reads class matrices, so the only n x n
    array is the graph's adjacency.  Nothing is cached across instances.
    """

    def __init__(
        self,
        params: GroupParams,
        alphas=(),
        detour_budget_s: float = 60.0,
        detour_oracle_max_n: int = MAX_VERTICES,
    ):
        self.params = params
        self.alphas = tuple(alphas)
        self.detour_budget_s = detour_budget_s
        self.detour_oracle_max_n = detour_oracle_max_n
        self.graph = build_power_graph(params)
        self.predicted, self.predicted_types = predicted_quotient(self.graph.elements, params)

    @cached_property
    def spectra(self) -> dict[str, tuple[spectra.Sweep, spectra.Sweep]]:
        """(closed form, graph's own spectrum) sweeps of A_alpha and RD_alpha, by kind.

        Row i is at `alphas[i]`, and one more, the last, at alpha = 1, which the
        transmission check reads.  Each side is solved once, in one call for both
        kinds, at the distinct alphas and 1.0.
        """
        solved = list(dict.fromkeys([*self.alphas, 1.0]))
        numeric = spectra.solve_quotient(self.graph, SPECTRUM_KINDS, solved)
        closed = spectra.closed_form(self.params, SPECTRUM_KINDS, solved)
        rows = [solved.index(alpha) for alpha in [*self.alphas, 1.0]]
        pairs = zip(SPECTRUM_KINDS, closed, numeric)
        return {kind: (c.rows(rows), n.rows(rows)) for kind, c, n in pairs}

    @cached_property
    def payloads(self) -> dict[str, list[dict]]:
        """Each kind's `spectrum_payloads`, written by the report and by the `spectra` view."""
        sweeps = self.spectra.items()
        return {kind: spectrum_payloads(self.params, self.alphas, *pair) for kind, pair in sweeps}

    @cached_property
    def resolving(self) -> tuple[int, ...]:
        """A metric basis certified by the twin witness; MetricSearchError when it does not resolve."""
        return metric.metric_dimension(self.graph)

    @cached_property
    def gsr(self) -> np.ndarray:
        """Strong resolving (MMD) graph as a k x k class matrix."""
        return metric.mmd_graph(self.graph)

    @cached_property
    def cover(self) -> tuple[int, tuple[int, ...]]:
        """(sdim, a minimum vertex cover of the MMD graph); MetricSearchError on a non-cograph."""
        return metric.min_vertex_cover(self.graph)

    @cached_property
    def dds(self) -> sequences.DegreeSequenceTable:
        return sequences.dds(self.graph)

    @cached_property
    def detour(self) -> np.ndarray | None:
        """k x k class detour matrix of the exact search; None when n exceeds `detour_oracle_max_n`.

        The default cap, `MAX_VERTICES`, runs the search on every family order.  A refusal
        (a non-cograph, or `detour_budget_s` spent) raises its DetourBudgetError, uncached.
        """
        if self.graph.n > self.detour_oracle_max_n:
            return None
        return detour_matrix(self.graph, self.detour_budget_s)

    @cached_property
    def detour_profile(self) -> tuple[np.ndarray, int, int]:
        """(detour eccentricity per class, radius, diameter), read after a detour matrix."""
        return sequences.detour_profile(self.detour)

    @cached_property
    def detour_dds(self) -> sequences.DegreeSequenceTable:
        """Detour distance degree sequences, read after a detour matrix."""
        return sequences.DegreeSequenceTable.from_classes(self.graph.quotient, self.detour)

    @cached_property
    def vertex_types(self) -> np.ndarray:
        """The predicted type of each vertex, an index into `CLASS_TYPES`."""
        return self.predicted_types[self.predicted.class_of]

    @cached_property
    def class_types(self) -> list[tuple[int, int]]:
        """Each (graph class, predicted type of a vertex in it) pair once, by class, then type."""
        quotient = self.graph.quotient
        seen = np.zeros((len(quotient.sizes), len(CLASS_TYPES)), dtype=bool)
        seen[quotient.class_of, self.vertex_types] = True
        return list(zip(*(part.tolist() for part in np.nonzero(seen))))

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
    return all(values[a] == by_type[t] for a, t in inst.class_types if t in by_type)


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


def check_spectra(inst: Instance, tol: float) -> list[dict]:
    """The five spectrum checks in report order, from the instance's sweeps and payloads.

    The graph's twin lines of A_alpha lie in the closed form; each kind's closed
    form is the graph's spectrum, and RD_1 is the reciprocal transmissions (the
    sweeps' last row, compared exactly); the printed quintic at the closed
    form's quotient roots, and the printed RD quotient.  A transcription
    mismatch is reported, never fatal: its diagnostic must be present.
    """
    keys = [repr(alpha) for alpha in inst.alphas]
    (a_closed, a_numeric), (rd_closed, _) = inst.spectra.values()
    present = _twins_present(a_closed, a_numeric, tol)[:-1].tolist()
    checks = [
        _check("twin_eigenvalues_in_spectrum", all(present), per_alpha=dict(zip(keys, present)))
    ]
    for kind, (closed, numeric) in inst.spectra.items():
        recovered = _multiplicities_recovered(closed.expanded, numeric.expanded, tol).tolist()
        per_alpha = {}
        ok = True
        for key, payload, mult_ok in zip(keys, inst.payloads[kind], recovered):
            deviation = payload["max_deviation"]
            per_alpha[key] = {"max_deviation": deviation, "multiplicities_recovered": mult_ok}
            ok = ok and deviation <= tol and mult_ok
        details = {"per_alpha": per_alpha}
        if kind == "reciprocal":
            _, _, transmissions = inst.graph.quotient.reciprocals
            rt = np.sort(transmissions[inst.graph.quotient.class_of])[::-1]
            [rt_deviation] = _max_deviations(closed.expanded[-1:], rt[None, :]).tolist()
            details["alpha_one_equals_transmissions"] = rt_deviation == 0.0
            ok = ok and rt_deviation == 0.0
        checks.append(_check(f"{kind}_alpha_spectrum", ok, **details))
    a_at, rd_at = (sweep.rows(slice(len(keys))) for sweep in (a_closed, rd_closed))
    quintic = spectra.quintic_transcription_check(inst.params, inst.alphas, a_at)
    for name, cs in (
        ("quintic_transcription", quintic),
        ("reciprocal_quotient_transcription", spectra.rd_quotient_transcription_check(rd_at)),
    ):
        passed = all(c["matches"] or c["diagnostic"] for c in cs)
        checks.append(_check(name, passed, per_alpha=dict(zip(keys, cs))))
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
    """psi and sdim against the family predictions; a refusal FAILs its check with the reason."""
    expected_psi = metric.family_metric_dimension(inst.params)
    expected_sdim = metric.family_strong_metric_dimension(inst.params)
    try:
        psi = len(inst.resolving)  # a certified witness has the twin lower bound's size
        found = {"psi": psi, "lower_bound": psi, "witness_size": psi}
    except metric.MetricSearchError as exc:
        psi, found = None, {"error": str(exc)}
    checks = [_check("metric_dimension", psi == expected_psi, expected=expected_psi, **found)]
    try:
        sdim, cover = inst.cover
        found = {
            "sdim": sdim,
            "gsr_edge_count": inst.graph.quotient.edge_count(inst.gsr),
            "cover_witness_size": len(cover),
        }
    except metric.MetricSearchError as exc:
        sdim, found = None, {"error": str(exc)}
    checks.append(
        _check("strong_metric_dimension", sdim == expected_sdim, expected=expected_sdim, **found)
    )
    return checks


def check_detour(inst: Instance) -> list[dict]:
    """The detour eccentricity and detour degree sequence checks, from one detour search.

    A refused search FAILs both, unverified, with its reason; above the oracle
    cap both PASS on the closed form alone, unverified.
    """
    names = ("detour_eccentricities", "detour_degree_sequences")
    predicted_ecc = sequences.family_detour_eccentricities(inst.params)
    try:
        computed = inst.detour
    except DetourBudgetError as exc:
        return [_check(name, False, oracle_verified=False, error=str(exc)) for name in names]
    if computed is None:
        return [
            _check(
                names[0],
                True,
                oracle_verified=False,
                note="closed-form prediction only; instance above the oracle size cap",
                predicted=predicted_ecc,
            ),
            _check(
                names[1],
                True,
                oracle_verified=False,
                note="closed-form prediction only; detour oracle not run",
            ),
        ]
    params = inst.params
    # the class matrices are over the same classes exactly when the twin classes are as predicted
    predicted = sequences.family_detour_matrix(inst.predicted_types, params)
    matrix_ok = inst.twins_as_predicted and bool(np.array_equal(computed, predicted))
    ecc, radius, diameter = inst.detour_profile
    profile_ok = radius == predicted_ecc["radius"] and diameter == predicted_ecc["diameter"]
    per_class_ok = _classes_match(inst, ecc, predicted_ecc)
    dtable = inst.detour_dds
    shape_ok = _classes_match(inst, dtable.class_rows, sequences.family_dds_detour_rows(params))
    grouping_ok = sequences.compare_groupings(
        dtable.groups, sequences.family_dds_detour_groups(params)
    )["matches"]
    return [
        _check(
            names[0],
            matrix_ok and profile_ok and per_class_ok,
            oracle_verified=True,
            matrix_matches_closed_form=matrix_ok,
            radius=radius,
            diameter=diameter,
            predicted=predicted_ecc,
        ),
        _check(
            names[1],
            shape_ok and grouping_ok,
            oracle_verified=True,
            all_shapes_match=shape_ok,
            grouping_matches=grouping_ok,
        ),
    ]


def check_degree_sequences(inst: Instance) -> dict:
    params, table = inst.params, inst.dds
    rows_ok = _classes_match(inst, table.class_rows, sequences.family_dds_rows(params))
    types = inst.predicted_types.tolist()
    # the class of the first vertex of each type, the first member of its first predicted class
    first = {
        name: table.class_of[inst.predicted.members[types.index(t)][0]]
        for t, name in enumerate(CLASS_TYPES)
    }
    multiset_diff = sequences.compare_groupings(table.groups, sequences.family_dds_groups(params))
    return _check(
        "distance_degree_sequences",
        rows_ok,
        e_row=list(table.class_rows[first["e"]]),
        u_row=list(table.class_rows[first["u"]]),
        h1_row=list(table.class_rows[first["h1"]]),
        printed_multiset_comparison=multiset_diff,
    )


def report_payload(inst: Instance, tol: float = 1e-8, seed: int = 0, version: str = "0") -> dict:
    """Run every verification on one instance, at its alphas, and collect PASS/FAIL.

    `seed` is only recorded in the config: no check is randomized.
    """
    checks: list[dict] = []
    checks.extend(check_structure(inst))
    checks.extend(check_spectra(inst, tol))
    checks.append(check_block_reduction(inst))
    checks.extend(check_metric(inst))
    eccentricities, detour_degree_sequences = check_detour(inst)
    checks += [eccentricities, check_degree_sequences(inst), detour_degree_sequences]
    return {
        "version": version,
        "config": {
            "k": inst.params.k,
            "p": inst.params.p,
            "alphas": list(inst.alphas),
            "tol": tol,
            "seed": seed,
            "detour_budget_s": inst.detour_budget_s,
            "detour_oracle_max_n": inst.detour_oracle_max_n,
        },
        "order": inst.params.order,
        "checks": checks,
        "passed": all(c["passed"] for c in checks),
        "spectra": inst.payloads,
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
    inst = Instance(GroupParams(k, p), alphas, detour_budget_s, detour_oracle_max_n)
    return report_payload(inst, tol, seed, version)
