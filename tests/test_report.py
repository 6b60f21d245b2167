"""Every report check and CLI command is a view of one Instance per (k, p)."""

import io
import json
import sys
from collections import Counter
from functools import cached_property

import numpy as np
import pytest

import powergraph
from oracles import classify_partition, edge_count, from_edges, labelled, verify_decomposition
from perfbench.workloads import WORKLOADS
from powergraph import graphs, spectra
from powergraph.cli import RunConfig, run
from powergraph.graphs import CLASS_TYPES, TwinQuotient
from powergraph.groups import MAX_VERTICES, GroupParams
from powergraph.report import (
    Instance,
    build_report,
    check_block_reduction,
    check_detour,
    check_structure,
    report_payload,
)
from powergraph.sequences import DegreeSequenceTable


@pytest.fixture
def calls(monkeypatch):
    """Count calls of library functions, wrapped at every powergraph module that holds them.

    A call whose first argument is an array is also counted under (name, its shape).
    """
    counts = Counter()

    def watch(home: str, name: str) -> None:
        original = getattr(sys.modules[f"powergraph.{home}"], name)

        def counted(*args, **kwargs):
            counts[name] += 1
            if args and isinstance(args[0], np.ndarray):
                counts[name, args[0].shape] += 1
            return original(*args, **kwargs)

        for module_name, module in list(sys.modules.items()):
            if module_name == "powergraph" or module_name.startswith("powergraph."):
                for attr, value in list(vars(module).items()):
                    if value is original:
                        monkeypatch.setattr(module, attr, counted)

    for home, name in (
        ("graphs", "build_power_graph"),
        ("graphs", "twin_classes"),
        ("matrices", "distance_matrix"),
        ("detour", "detour_matrix"),
        ("sequences", "detour_profile"),
        ("spectra", "solve_quotient"),
        ("spectra", "sym_eigenvalues"),
    ):
        watch(home, name)
    from_classes = DegreeSequenceTable.from_classes.__func__

    def counted_table(cls, *args):
        counts["from_classes"] += 1
        return from_classes(cls, *args)

    monkeypatch.setattr(DegreeSequenceTable, "from_classes", classmethod(counted_table))
    orbits = TwinQuotient.orbits.func

    def counted_orbits(quotient):
        counts["orbits"] += 1
        return orbits(quotient)

    prop = cached_property(counted_orbits)
    prop.__set_name__(TwinQuotient, "orbits")
    monkeypatch.setattr(TwinQuotient, "orbits", prop)
    return counts


def test_cli_commands_share_one_computation(calls):
    config = RunConfig(k=2, p=3, alphas=(0.0, 0.5, 1.0), commands=("detour", "dds", "report"))
    assert run(config, out=io.StringIO()) == 0
    assert calls["build_power_graph"] == 1
    assert calls["distance_matrix"] == 1
    assert calls["detour_matrix"] == 1
    assert calls["twin_classes"] == 2  # the power graph and the k-vertex class MMD graph
    # the detour view and the report read one profile and one detour table
    assert calls["detour_profile"] == 1
    assert calls["from_classes"] == 2  # the distance table and the detour table
    assert calls["orbits"] == 1  # the detour search and the block check share them


def test_report_builds_each_object_once(calls):
    payload = build_report(2, 3, (0.0, 0.25, 0.5, 0.75, 1.0))
    assert payload["passed"]
    assert calls["distance_matrix"] == 1
    assert calls["twin_classes"] == 2  # the power graph and the k-vertex class MMD graph
    assert calls["detour_matrix"] == 1
    assert calls["detour_profile"] == 1
    assert calls["from_classes"] == 2
    assert calls["orbits"] == 1


def test_default_report_calls_twins_three_times(monkeypatch):
    # the power graph, its orbits and the k-vertex class MMD graph; the cotree calls none
    counted = []
    twins = graphs._twins

    def counting(adj, labels=None):
        counted.append(len(adj))
        return twins(adj, labels)

    monkeypatch.setattr(graphs, "_twins", counting)
    inst = Instance(GroupParams(3, 5))
    payload = report_payload(inst, (0.5,))
    assert payload["passed"] and inst.detour is not None
    assert len(counted) <= 3 and counted[0] == inst.graph.n


def test_report_solves_each_quotient_once_whatever_the_seed(calls):
    alphas = (0.0, 0.25, 0.5, 0.75, 1.0)
    assert build_report(2, 3, alphas, seed=0)["passed"]
    # one sweep per kind and side, which the spectrum, twin-eigenvalue and transcription
    # checks share: one stacked solve of the graph's quotients of both kinds, and one of
    # each closed form's
    assert calls["solve_quotient"] == 1
    assert calls["sym_eigenvalues"] == 3
    calls.clear()
    assert build_report(2, 3, alphas, seed=12345)["passed"]
    assert calls["solve_quotient"] == 1
    assert calls["sym_eigenvalues"] == 3


def test_report_without_alphas_still_checks_the_transmissions(calls):
    payload = build_report(2, 3, ())
    assert payload["passed"] and payload["spectra"] == {"adjacency": [], "reciprocal": []}
    [reciprocal] = [c for c in payload["checks"] if c["name"] == "reciprocal_alpha_spectrum"]
    assert reciprocal["details"] == {"per_alpha": {}, "alpha_one_equals_transmissions": True}
    assert calls["solve_quotient"] == 1


def test_every_eigensolve_of_a_family_report_is_at_most_5_by_5(calls):
    # the twin quotient has k = 44 classes at (5, 5); its 5 orbits are what is solved
    assert build_report(5, 5, (0.0, 0.25, 0.5, 0.75, 1.0))["passed"]
    shapes = [key[1] for key in calls if isinstance(key, tuple) and key[0] == "sym_eigenvalues"]
    assert shapes and max(max(shape[-2:]) for shape in shapes) == 5


@pytest.mark.parametrize("alphas", [(0.5,), (0.0, 0.25, 1.0)])
def test_spectra_and_report_views_make_three_eigensolves(calls, alphas):
    # alpha = 1, which the transmission check reads, rides in the sweeps
    config = RunConfig(k=3, p=5, alphas=alphas, commands=("spectra", "report"))
    assert run(config, out=io.StringIO()) == 0
    assert calls["sym_eigenvalues"] == 3


def test_detour_budget_error_is_searched_once(calls):
    payload = build_report(2, 3, (0.5,), detour_budget_s=1e-9)
    checks = {c["name"]: c for c in payload["checks"]}
    assert not checks["detour_eccentricities"]["passed"]
    # the search ran and failed: both detour checks FAIL with its error, neither says "not run"
    error = {"oracle_verified": False, "error": "detour search exceeded its time budget"}
    for name in ("detour_eccentricities", "detour_degree_sequences"):
        assert checks[name]["passed"] is False and checks[name]["details"] == error
    assert calls["detour_matrix"] == 1


def test_a_non_cograph_fails_both_detour_checks_as_a_limit(calls, monkeypatch):
    # with no cotree the search is refused: both checks FAIL, unverified, with the refusal
    monkeypatch.setattr(TwinQuotient, "cotree", None)
    payload = build_report(2, 3, (0.5,))
    checks = {c["name"]: c for c in payload["checks"]}
    error = {"oracle_verified": False, "error": "graph is not a cograph; the detour search needs its cotree"}
    for name in ("detour_eccentricities", "detour_degree_sequences"):
        assert checks[name]["passed"] is False and checks[name]["details"] == error
    assert not payload["passed"] and calls["detour_matrix"] == 1


def test_detour_oracle_cap_skips_the_search(calls):
    inst = Instance(GroupParams(2, 5), detour_oracle_max_n=24)
    assert inst.detour is None and inst.detour_search == (None, None)
    assert calls["detour_matrix"] == 0


def test_default_detour_oracle_cap_covers_n160():
    payload = build_report(4, 5, (0.5,))
    checks = {c["name"]: c for c in payload["checks"]}
    assert payload["config"]["detour_oracle_max_n"] == MAX_VERTICES
    assert checks["detour_eccentricities"]["passed"]
    assert checks["detour_eccentricities"]["details"]["oracle_verified"] is True


def test_default_report_is_oracle_verified_at_n640():
    payload = build_report(6, 5, (0.5,))
    checks = {c["name"]: c for c in payload["checks"]}
    assert payload["passed"]
    for name in ("detour_eccentricities", "detour_degree_sequences"):
        assert checks[name]["passed"]
        assert checks[name]["details"]["oracle_verified"] is True


def test_spectra_command_matches_report_payload(tmp_path):
    alphas = (0.0, 0.25, 1.0)
    config = RunConfig(k=2, p=3, alphas=alphas, commands=("spectra",), out_dir=tmp_path)
    assert run(config, out=io.StringIO()) == 0
    report = build_report(2, 3, alphas, version=powergraph.__version__)
    for kind in ("adjacency", "reciprocal"):
        for alpha, entry in zip(alphas, report["spectra"][kind]):
            artifact = tmp_path / f"k2-p3-alpha{alpha!r}-{kind}-spectrum.json"
            assert json.loads(artifact.read_text(encoding="utf-8")) == entry


@pytest.mark.parametrize("dropped", [0, 1, 2])
def test_twin_check_fails_when_the_closed_form_drops_a_family(monkeypatch, dropped):
    families = spectra.a_alpha_families

    def without_one(params, alpha):
        lines = families(params, alpha)
        return lines[:dropped] + lines[dropped + 1 :]

    monkeypatch.setattr(spectra, "a_alpha_families", without_one)
    payload = build_report(2, 3, (0.25, 0.5))
    checks = {c["name"]: c for c in payload["checks"]}
    assert not checks["twin_eigenvalues_in_spectrum"]["passed"]
    assert not checks["adjacency_alpha_spectrum"]["passed"]
    assert checks["reciprocal_alpha_spectrum"]["passed"]
    assert not payload["passed"]


def test_default_detour_check_is_oracle_verified_at_n1280():
    check = check_detour(Instance(GroupParams(7, 5)))
    assert check["passed"]
    assert check["details"]["oracle_verified"] is True
    assert check["details"]["matrix_matches_closed_form"] is True


def test_partition_sizes_fails_when_the_twin_classes_differ_from_the_closed_forms():
    checks = {c["name"]: c for c in check_structure(Instance(GroupParams(2, 3)))}
    assert checks["partition_sizes"] == {"name": "partition_sizes", "passed": True, "details": {}}
    # one extra edge between two involutions: the labels, and so the partition, are unchanged
    inst = Instance(GroupParams(2, 3))
    adj = inst.graph.adj.copy()
    v, w = sorted(classify_partition(inst.graph, inst.params).h2)[:2]
    adj[v, w] = adj[w, v] = True
    inst.graph = labelled(adj, inst.graph.labels)
    checks = {c["name"]: c for c in check_structure(inst)}
    assert not checks["partition_sizes"]["passed"]
    assert not checks["structure_decomposition"]["passed"]
    detour = check_detour(inst)
    assert not detour["passed"] and not detour["details"]["matrix_matches_closed_form"]


def test_report_lifts_no_class_matrix(monkeypatch):
    def refuse(self, matrix):
        raise AssertionError("a report lifted a class matrix to n x n")

    monkeypatch.setattr(TwinQuotient, "lift", refuse)
    payload = build_report(3, 5, (0.0, 0.5, 1.0))
    checks = {c["name"]: c for c in payload["checks"]}
    assert payload["passed"]
    assert checks["detour_eccentricities"]["details"]["oracle_verified"]


def assert_structure_matches_the_oracle(inst: Instance) -> None:
    """check_structure's verdict, edge lists, edge count and degrees against n x n references."""
    graph = inst.graph
    checks = {c["name"]: c for c in check_structure(inst)}
    missing, extra = verify_decomposition(graph, classify_partition(graph, inst.params), inst.params)
    decomposition = checks["structure_decomposition"]
    assert decomposition["passed"] == (not missing and not extra)
    assert decomposition["details"]["missing"] == missing[:10]
    assert decomposition["details"]["extra"] == extra[:10]
    assert decomposition["details"]["edge_count"] == edge_count(graph)
    computed = checks["degree_multiset"]["details"]["computed"]
    assert list(computed.items()) == list(Counter(graph.degrees().tolist()).items())


@pytest.mark.parametrize("k,p", [(2, 3), (3, 3), (2, 5), (2, 7), (3, 5), (4, 5), (5, 5)])
def test_structure_check_matches_the_decomposition_oracle_on_the_family(k, p):
    inst = Instance(GroupParams(k, p))
    assert_structure_matches_the_oracle(inst)
    assert all(c["passed"] for c in check_structure(inst))


def test_structure_check_matches_the_decomposition_oracle_on_broken_graphs():
    inst = Instance(GroupParams(2, 3))
    classes, edges = classify_partition(inst.graph, inst.params), inst.graph.edges()
    v, w = sorted(classes.h2)[:2]
    for changed in (
        edges[1:],  # one missing edge
        edges + [tuple(sorted((classes.u, v)))],  # an extra u - h2 edge
        edges + [(v, w)],  # an extra edge between two involutions
    ):
        broken = Instance(GroupParams(2, 3))
        broken.graph = from_edges(inst.graph.n, changed, labels=inst.graph.labels)
        assert_structure_matches_the_oracle(broken)
        assert not check_structure(broken)[0]["passed"]


@pytest.mark.parametrize(
    "kp", sorted({kp for workload in WORKLOADS.values() for kp in workload.instances})
)
def test_orbits_are_the_predicted_type_groups_at_every_benchmark_order(kp):
    inst = Instance(GroupParams(*kp))
    types = inst.predicted_types
    grouped = {tuple(np.flatnonzero(types == t)) for t in range(len(CLASS_TYPES))}
    assert inst.twins_as_predicted and set(inst.graph.quotient.orbits) == grouped
    check = check_block_reduction(inst)
    assert check["passed"] and check["details"]["copies"] == inst.params.rotation_order // 4


def test_block_reduction_check_fails_on_broken_graphs():
    inst = Instance(GroupParams(2, 3))
    classes, edges = classify_partition(inst.graph, inst.params), inst.graph.edges()
    types = inst.predicted_types.tolist()
    blade = set(inst.predicted.members[types.index(CLASS_TYPES.index("h3"))])
    v, w = sorted(classes.h2)[:2]
    for changed, reason in (
        # no blade edges to u: the twin classes are unchanged, but that blade is no copy
        ([e for e in edges if not (classes.u in e and blade & set(e))], "not identical copies"),
        # an extra edge between two involutions: the twin classes differ from the prediction
        (edges + [(v, w)], "not the predicted ones"),
    ):
        broken = Instance(GroupParams(2, 3))
        broken.graph = from_edges(inst.graph.n, changed, labels=inst.graph.labels)
        checks = {c["name"]: c for c in report_payload(broken, (0.25, 0.5))["checks"]}
        block = checks["block_reduction_random"]
        assert not block["passed"]
        assert reason in block["details"]["reason"]
