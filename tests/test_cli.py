import io
import json

import pytest

from powergraph.cli import RunConfig, UsageError, ingest_graph, main, parse_args, run, _Writer


def run_collect(config):
    writer = _Writer(None)
    out = io.StringIO()
    code = run(config, writer=writer, out=out)
    return code, writer.artifacts, out.getvalue()


def test_parse_minimal():
    config = parse_args(["report", "--k", "2", "--p", "3", "--alpha", "0.5"])
    assert (config.k, config.p) == (2, 3)
    assert config.alphas == (0.5,)
    assert config.commands == ("report",)


def test_main_end_to_end(capsys):
    assert main(["report", "--k", "2", "--p", "3", "--alpha", "0.5"]) == 0
    assert "all checks passed" in capsys.readouterr().out


def test_usage_errors_exit_2(capsys):
    assert main(["report", "--k", "2", "--p", "4"]) == 2
    assert "odd prime" in capsys.readouterr().err
    assert main(["report", "--alpha", "1.5"]) == 2
    assert main(["frobnicate"]) == 2


def test_parse_rejects_bad_command():
    with pytest.raises(UsageError):
        parse_args(["explode", "--k", "2", "--p", "3"]).validate()


def test_report_passes_and_exits_zero(tmp_path):
    config = RunConfig(k=2, p=3, alphas=(0.0, 0.5, 1.0), commands=("report",), seed=1)
    code, artifacts, output = run_collect(config)
    assert code == 0
    assert "all checks passed" in output
    payload = json.loads(artifacts["k2-p3-report.json"])
    assert payload["passed"]
    names = {c["name"] for c in payload["checks"]}
    assert {
        "structure_decomposition",
        "twin_eigenvalues_in_spectrum",
        "adjacency_alpha_spectrum",
        "reciprocal_alpha_spectrum",
        "block_reduction_random",
        "metric_dimension",
        "strong_metric_dimension",
        "detour_eccentricities",
        "distance_degree_sequences",
        "detour_degree_sequences",
    } <= names
    assert output.count("PASS") == len(payload["checks"])


def test_reports_are_byte_identical():
    config = RunConfig(k=2, p=3, alphas=(0.25, 0.75), commands=("report",), seed=42)
    _, first, _ = run_collect(config)
    _, second, _ = run_collect(config)
    assert first == second


def test_spectra_sweep_artifacts():
    config = RunConfig(k=3, p=3, alphas=(0.0, 1.0), commands=("spectra",))
    code, artifacts, _ = run_collect(config)
    assert code == 0
    assert "k3-p3-alpha0.0-adjacency-spectrum.json" in artifacts
    assert "k3-p3-alpha1.0-adjacency-spectrum.json" in artifacts
    assert "k3-p3-alpha0.0-reciprocal-spectrum.json" in artifacts
    payload = json.loads(artifacts["k3-p3-alpha0.0-adjacency-spectrum.json"])
    assert payload["max_deviation"] <= 1e-8
    assert payload["params"] == {"k": 3, "p": 3, "alpha": 0.0}


def test_spectra_csv_rendering():
    config = RunConfig(k=2, p=3, alphas=(0.5,), commands=("spectra",), fmt="csv")
    _, artifacts, _ = run_collect(config)
    csv = artifacts["k2-p3-adjacency-spectra.csv"]
    assert csv.splitlines()[0] == "alpha,value,multiplicity,source"


def test_detour_csv_rendering():
    config = RunConfig(k=2, p=3, alphas=(0.5,), commands=("detour",), fmt="csv")
    _, artifacts, _ = run_collect(config)
    matrix = artifacts["k2-p3-detour-matrix.csv"]
    assert len(matrix.splitlines()) == 24


def test_build_and_metric_and_dds_commands(tmp_path):
    config = RunConfig(
        k=2, p=3, alphas=(0.5,), commands=("build", "metric", "dds", "detour"), out_dir=tmp_path
    )
    code, artifacts, _ = run_collect(config)
    assert code == 0
    graph = json.loads(artifacts["k2-p3-graph.json"])
    assert graph["n"] == 24 and len(graph["edges"]) == 87
    metric = json.loads(artifacts["k2-p3-metric.json"])
    assert metric["psi"]["value"] == 17 and metric["psi"]["certified"]
    assert metric["sdim"]["value"] == 21
    detour = json.loads(artifacts["k2-p3-detour.json"])
    assert detour["oracle_verified"] and detour["radius"] == 13 and detour["diameter"] == 15
    dds = json.loads(artifacts["k2-p3-dds.json"])
    assert not dds["printed_comparison"]["matches"]
    assert dds["printed_detour_comparison"]["matches"]


def test_out_dir_files_written(tmp_path):
    config = RunConfig(k=2, p=3, alphas=(0.5,), commands=("build",), out_dir=tmp_path)
    writer = _Writer(tmp_path)
    assert run(config, writer=writer, out=io.StringIO()) == 0
    assert (tmp_path / "k2-p3-graph.json").exists()


def test_ingest_round_trip(tmp_path):
    path = tmp_path / "triangle.txt"
    path.write_text("0 1\n1 2\n0 2\n", encoding="utf-8")
    graph = ingest_graph(path, "edge-list")
    assert graph.n == 3 and graph.edge_count() == 3
    json_path = tmp_path / "triangle.json"
    json_path.write_text(json.dumps(graph.to_json_dict()), encoding="utf-8")
    again = ingest_graph(json_path, "json")
    assert again.edges() == graph.edges()


def test_ingest_command_and_errors(tmp_path, capsys):
    path = tmp_path / "bad.txt"
    path.write_text("0 x\n", encoding="utf-8")
    assert main(["ingest", "--graph", str(path)]) == 2
    assert "line 1" in capsys.readouterr().err
    good = tmp_path / "good.txt"
    good.write_text("0 1\n", encoding="utf-8")
    assert main(["ingest", "--graph", str(good)]) == 0
    assert main(["ingest"]) == 2  # --graph required


def test_config_file_and_env_precedence(tmp_path, monkeypatch):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("k=3\np=3\nalpha=0.25,0.75\nseed=9\n", encoding="utf-8")
    config = parse_args(["report", "--config", str(cfg)])
    assert (config.k, config.p) == (3, 3)
    assert config.alphas == (0.25, 0.75)
    monkeypatch.setenv("POWERGRAPH_P", "5")
    config = parse_args(["report", "--config", str(cfg)])
    assert config.p == 5  # env beats config file
    config = parse_args(["report", "--config", str(cfg), "--p", "3"])
    assert config.p == 3  # flag beats env


def test_report_detour_budget_exhaustion_fails_cleanly():
    from powergraph.report import build_report

    payload = build_report(2, 3, (0.5,), detour_budget_s=1e-9)
    detour = next(c for c in payload["checks"] if c["name"] == "detour_eccentricities")
    assert not detour["passed"]
    assert "budget" in detour["details"]["error"]
    assert not payload["passed"]


def test_report_failure_exits_one():
    # negative control: an unattainably tight tolerance must flip the exit code
    config = RunConfig(k=2, p=3, alphas=(0.5,), commands=("report",), tol=1e-300)
    code, artifacts, output = run_collect(config)
    assert code == 1
    assert "FAIL adjacency_alpha_spectrum" in output
    assert "verification failed" in output
    payload = json.loads(artifacts["k2-p3-report.json"])
    assert not payload["passed"]


def test_detour_budget_config_key(tmp_path):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("detour_time_budget_s=12.5\n", encoding="utf-8")
    config = parse_args(["report", "--config", str(cfg)])
    assert config.detour_budget_s == 12.5


def test_build_payload_has_element_pairs():
    config = RunConfig(k=2, p=3, alphas=(0.5,), commands=("build",))
    _, artifacts, _ = run_collect(config)
    payload = json.loads(artifacts["k2-p3-graph.json"])
    assert payload["elements"][0] == [0, 0]
    assert len(payload["elements"]) == 24


def test_config_file_errors(tmp_path):
    cfg = tmp_path / "broken.cfg"
    cfg.write_text("k 3\n", encoding="utf-8")
    with pytest.raises(UsageError, match="key=value"):
        parse_args(["report", "--config", str(cfg)])
    with pytest.raises(UsageError, match="not found"):
        parse_args(["report", "--config", str(tmp_path / "missing.cfg")])


def test_metric_past_the_cover_cap_is_an_error_not_a_traceback(capsys):
    # (3, 5) has n = 80, above the exact vertex-cover search cap of 64
    assert main(["metric", "--k", "3", "--p", "5"]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "capped at 64" in err


def test_ingest_missing_graph_file_is_a_usage_error(tmp_path, capsys):
    assert main(["ingest", "--graph", str(tmp_path / "missing.txt")]) == 2
    err = capsys.readouterr().err
    assert err.startswith("usage error: ") and "missing.txt" in err
    with pytest.raises(UsageError):
        run(RunConfig(commands=("ingest",), graph_path=tmp_path / "missing.txt"))
