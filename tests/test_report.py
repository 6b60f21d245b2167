"""Every report check and CLI command is a view of one Instance per (k, p)."""

import io
import json
import sys
from collections import Counter

import pytest

import powergraph
from powergraph.cli import RunConfig, _Writer, run
from powergraph.groups import GroupParams
from powergraph.report import Instance, build_report


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
    ):
        watch(home, name)
    return counts


def test_cli_commands_share_one_computation(calls):
    config = RunConfig(k=2, p=3, alphas=(0.0, 0.5, 1.0), commands=("detour", "dds", "report"))
    assert run(config, writer=_Writer(None), out=io.StringIO()) == 0
    assert calls["build_power_graph"] == 1
    assert calls["distance_matrix"] == 1
    assert calls["detour_matrix"] == 1
    assert calls["twin_classes"] == 1


def test_report_builds_each_object_once(calls):
    payload = build_report(2, 3, (0.0, 0.25, 0.5, 0.75, 1.0))
    assert payload["passed"]
    assert calls["distance_matrix"] == 1
    assert calls["twin_classes"] == 1
    assert calls["detour_matrix"] == 1


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
