"""Every report check and CLI command is a view of one Instance per (k, p)."""

import io
import json
import sys
from collections import Counter

import pytest

import powergraph
from oracles import verify_decomposition
from powergraph import spectra
from powergraph.cli import RunConfig, _Writer, run
from powergraph.graphs import Graph, TwinQuotient
from powergraph.groups import MAX_VERTICES, GroupParams
from powergraph.report import Instance, build_report, check_detour, check_structure
from powergraph.sequences import DegreeSequenceTable


@pytest.fixture
def calls(monkeypatch):
    """Count calls of library functions, wrapped at every powergraph module that holds them."""
    counts = Counter()

    def watch(home: str, name: str) -> None:
        original = getattr(sys.modules[f"powergraph.{home}"], name)

        def counted(*args, **kwargs):
            counts[name] += 1
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
    ):
        watch(home, name)
    from_classes = DegreeSequenceTable.from_classes.__func__

    def counted_table(cls, *args):
        counts["from_classes"] += 1
        return from_classes(cls, *args)

    monkeypatch.setattr(DegreeSequenceTable, "from_classes", classmethod(counted_table))
    return counts


def test_cli_commands_share_one_computation(calls):
    config = RunConfig(k=2, p=3, alphas=(0.0, 0.5, 1.0), commands=("detour", "dds", "report"))
    assert run(config, writer=_Writer(None), out=io.StringIO()) == 0
    assert calls["build_power_graph"] == 1
    assert calls["distance_matrix"] == 1
    assert calls["detour_matrix"] == 1
    assert calls["twin_classes"] == 2  # the power graph and the k-vertex class MMD graph
    # the detour view and the report read one profile and one detour table
    assert calls["detour_profile"] == 1
    assert calls["from_classes"] == 2  # the distance table and the detour table


def test_report_builds_each_object_once(calls):
    payload = build_report(2, 3, (0.0, 0.25, 0.5, 0.75, 1.0))
    assert payload["passed"]
    assert calls["distance_matrix"] == 1
    assert calls["twin_classes"] == 2  # the power graph and the k-vertex class MMD graph
    assert calls["detour_matrix"] == 1
    assert calls["detour_profile"] == 1
    assert calls["from_classes"] == 2


def test_detour_budget_error_is_searched_once(calls):
    payload = build_report(2, 3, (0.5,), detour_budget_s=1e-9)
    checks = {c["name"]: c for c in payload["checks"]}
    assert not checks["detour_eccentricities"]["passed"]
    assert not checks["detour_degree_sequences"]["details"]["oracle_verified"]
    assert calls["detour_matrix"] == 1


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


def test_spectra_command_matches_report_payload():
    alphas = (0.0, 0.25, 1.0)
    writer = _Writer(None)
    config = RunConfig(k=2, p=3, alphas=alphas, commands=("spectra",))
    assert run(config, writer=writer, out=io.StringIO()) == 0
    report = build_report(2, 3, alphas, version=powergraph.__version__)
    for kind in ("adjacency", "reciprocal"):
        for alpha, entry in zip(alphas, report["spectra"][kind]):
            artifact = writer.artifacts[f"k2-p3-alpha{alpha!r}-{kind}-spectrum.json"]
            assert json.loads(artifact) == entry


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
    v, w = sorted(inst.partition.h2)[:2]
    adj[v, w] = adj[w, v] = True
    inst.graph = Graph(adj, labels=inst.graph.labels)
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
    missing, extra = verify_decomposition(graph, inst.partition, inst.params)
    decomposition = checks["structure_decomposition"]
    assert decomposition["passed"] == (not missing and not extra)
    assert decomposition["details"]["missing"] == missing[:10]
    assert decomposition["details"]["extra"] == extra[:10]
    assert decomposition["details"]["edge_count"] == graph.edge_count()
    computed = checks["degree_multiset"]["details"]["computed"]
    assert list(computed.items()) == list(Counter(graph.degrees().tolist()).items())


@pytest.mark.parametrize("k,p", [(2, 3), (3, 3), (2, 5), (2, 7), (3, 5), (4, 5), (5, 5)])
def test_structure_check_matches_the_decomposition_oracle_on_the_family(k, p):
    inst = Instance(GroupParams(k, p))
    assert_structure_matches_the_oracle(inst)
    assert all(c["passed"] for c in check_structure(inst))


def test_structure_check_matches_the_decomposition_oracle_on_broken_graphs():
    inst = Instance(GroupParams(2, 3))
    classes, edges = inst.partition, inst.graph.edges()
    v, w = sorted(classes.h2)[:2]
    for changed in (
        edges[1:],  # one missing edge
        edges + [tuple(sorted((classes.u, v)))],  # an extra u - h2 edge
        edges + [(v, w)],  # an extra edge between two involutions
    ):
        broken = Instance(GroupParams(2, 3))
        broken.graph = Graph.from_edges(inst.graph.n, changed, labels=inst.graph.labels)
        assert_structure_matches_the_oracle(broken)
        assert not check_structure(broken)[0]["passed"]
