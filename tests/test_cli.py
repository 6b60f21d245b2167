import io
import json
import subprocess
import sys
from pathlib import Path

import pytest

import powergraph
from oracles import matrix_to_csv
from powergraph.cli import RunConfig, UsageError, ingest_graph, main, parse_args, run, _Writer
from powergraph.groups import GroupParams
from powergraph.metric import MetricSearchError
from powergraph.report import Instance, build_report


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


@pytest.mark.parametrize("source", ["flag", "config", "env"])
@pytest.mark.parametrize(
    "key, value",
    [
        ("detour_budget", "nan"),
        ("detour_budget", "inf"),
        ("tol", "nan"),
        ("detour_oracle_max_n", "-1"),
        ("seed", "-1"),
    ],
)
def test_non_finite_or_negative_settings_are_usage_errors(
    tmp_path, capsys, monkeypatch, source, key, value
):
    argv = ["report"]
    if source == "flag":
        argv += [f"--{key.replace('_', '-')}", value]
    elif source == "config":
        (tmp_path / "run.cfg").write_text(f"{key}={value}\n", encoding="utf-8")
        argv += ["--config", str(tmp_path / "run.cfg")]
    else:
        monkeypatch.setenv(f"POWERGRAPH_{key.upper()}", value)
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("usage error: ") and captured.err.count("\n") == 1


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


@pytest.mark.parametrize("k,p", [(2, 3), (3, 5), (5, 5)])
def test_detour_csv_equals_the_formatted_lift(k, p):
    config = RunConfig(k=k, p=p, alphas=(0.5,), commands=("detour",), fmt="csv")
    _, artifacts, _ = run_collect(config)
    inst = Instance(GroupParams(k, p))
    expected = matrix_to_csv(inst.graph.quotient.lift(inst.detour))
    assert artifacts[f"k{k}-p{p}-detour-matrix.csv"] == expected


def test_streamed_detour_csv_equals_the_collected_one(tmp_path):
    config = RunConfig(k=3, p=5, alphas=(0.5,), commands=("detour",), fmt="csv")
    _, artifacts, _ = run_collect(config)
    config.out_dir = tmp_path
    assert run(config, writer=_Writer(tmp_path), out=io.StringIO()) == 0
    for name, text in artifacts.items():
        assert (tmp_path / name).read_bytes() == text.encode("utf-8")


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
    assert writer.artifacts == {}  # a written artifact is not also kept in memory


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


@pytest.mark.parametrize(
    "text",
    [
        '{"n": 3, "edges": [[0, 0]]}',
        '{"n": 3, "edges": [[0, 9]]}',
        '{"n": 3, "edges": [[-1, 0]]}',
        '{"n": 3, "edges": [[0.5, 2]]}',
        '{"n": 3, "labels": ["a", "b"], "edges": [[0, 1]]}',
        "not json",
        '{"n": 100000, "edges": [[0, 1]]}',
    ],
    ids=[
        "self-loop",
        "id-out-of-range",
        "negative-id",
        "non-integer-id",
        "label-count",
        "not-json",
        "too-many-vertices",
    ],
)
def test_malformed_json_graph_is_a_usage_error(tmp_path, capsys, text):
    path = tmp_path / "bad.json"
    path.write_text(text, encoding="utf-8")
    assert main(["ingest", "--graph", str(path), "--graph-format", "json"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("usage error: ") and captured.err.count("\n") == 1
    assert "Traceback" not in captured.err


def _main_in_subprocess(argv):
    """(exit code, ru_maxrss in KiB, stderr) of `main(argv)` in a fresh interpreter."""
    src = str(Path(powergraph.__file__).resolve().parents[1])
    done = subprocess.run(
        [sys.executable, "-c", _MAIN_PEAK_RSS, json.dumps(argv)],
        capture_output=True,
        text=True,
        timeout=120,
        env={"PYTHONPATH": src, "OPENBLAS_NUM_THREADS": "1"},
    )
    code, peak_kib = map(int, done.stdout.split()[-2:])
    return code, peak_kib, done.stderr


_MAIN_PEAK_RSS = (
    "import json, resource, sys\n"
    "from powergraph.cli import main\n"
    "code = main(json.loads(sys.argv[1]))\n"
    "print(code, resource.getrusage(resource.RUSAGE_SELF).ru_maxrss)\n"
)


def test_oversized_edge_list_is_refused_before_allocating(tmp_path):
    def ingest(text):
        path = tmp_path / "graph.txt"
        path.write_text(text, encoding="utf-8")
        return _main_in_subprocess(["ingest", "--graph", str(path)])

    small_code, small_peak, _ = ingest("0 1\n")
    code, peak, err = ingest("0 100000\n")
    assert small_code == 0 and code == 2
    assert err.startswith("usage error: ") and err.count("\n") == 1
    assert "Traceback" not in err and "8192" in err
    assert peak - small_peak < 4 * 1024  # ru_maxrss is in KiB on Linux


def test_negative_seed_is_a_usage_error_not_a_traceback():
    code, _, err = _main_in_subprocess(["report", "--seed", "-1"])
    assert code == 2
    assert err.startswith("usage error: ") and err.count("\n") == 1
    assert "seed" in err and "Traceback" not in err


def test_family_order_above_the_vertex_cap_is_refused_before_building():
    small_code, small_peak, _ = _main_in_subprocess(["build", "--k", "2", "--p", "3"])
    assert small_code == 0
    for argv in (
        ["build", "--k", "20"],
        ["report", "--k", "11", "--p", "5"],
        ["report", "--k", "100000000"],  # 2^(k+1) alone would take 12 MB
    ):
        code, peak, err = _main_in_subprocess(argv)
        assert code == 2, argv
        assert err.startswith("usage error: ") and err.count("\n") == 1
        assert "Traceback" not in err and "8192" in err
        assert peak - small_peak < 4 * 1024  # ru_maxrss is in KiB on Linux


def test_huge_prime_p_is_refused_before_the_primality_check():
    # a prime near 10^19: trial division up to sqrt(p) would take minutes
    code, _, err = _main_in_subprocess(["report", "--p", "10000000000000000051"])
    assert code == 2
    assert err.startswith("usage error: ") and "8192" in err


def test_default_detour_is_oracle_verified_past_n1000(tmp_path):
    # (7, 5), n = 1280: paths longer than the interpreter's default frame limit
    src = str(Path(powergraph.__file__).resolve().parents[1])
    done = subprocess.run(
        [sys.executable, "-m", "powergraph", "detour", "--k", "7", "--p", "5",
         "--out", str(tmp_path)],
        capture_output=True,
        text=True,
        timeout=120,
        env={"PYTHONPATH": src, "OPENBLAS_NUM_THREADS": "1"},
    )
    assert done.returncode == 0 and done.stderr == ""
    payload = json.loads((tmp_path / "k7-p5-detour.json").read_text(encoding="utf-8"))
    assert payload["oracle_verified"] is True
    assert (payload["radius"], payload["diameter"]) == (641, 643)
    assert len(payload["eccentricities"]) == 1280


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


def test_env_accepts_every_config_key(monkeypatch):
    monkeypatch.setenv("POWERGRAPH_DETOUR_ORACLE_MAX_N", "48")
    monkeypatch.setenv("POWERGRAPH_DETOUR_TIME_BUDGET_S", "12.5")
    config = parse_args(["report"])
    assert config.detour_oracle_max_n == 48
    assert config.detour_budget_s == 12.5


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


@pytest.mark.parametrize("line", ["alpah=0.3", "graph=g.txt", "graph_format=json"])
def test_unknown_config_key_is_a_usage_error(tmp_path, capsys, line):
    cfg = tmp_path / "run.cfg"
    cfg.write_text(f"k=2\n{line}\n", encoding="utf-8")
    assert main(["report", "--config", str(cfg)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("usage error: ") and captured.err.count("\n") == 1
    key = line.partition("=")[0]
    assert f"{cfg}:2: unknown config key {key!r}" in captured.err


@pytest.mark.parametrize("case", ["config-is-a-directory", "config-not-utf8", "out-is-a-file"])
def test_unreadable_input_or_unwritable_output_is_a_usage_error(tmp_path, capsys, case):
    target = tmp_path / "target"
    if case == "config-is-a-directory":
        target.mkdir()
        argv = ["build", "--config", str(target)]
    elif case == "config-not-utf8":
        target.write_bytes(b"k=2\n\xff\xfe\n")
        argv = ["build", "--config", str(target)]
    else:
        target.write_text("", encoding="utf-8")
        argv = ["build", "--out", str(target)]
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert err.startswith("usage error: ") and err.count("\n") == 1
    assert "Traceback" not in err


def test_metric_past_the_cover_cap_is_an_error_not_a_traceback(capsys, monkeypatch):
    # (3, 5) has n = 80 > 64; its strong resolving graph collapses to 4 vertices
    assert main(["metric", "--k", "3", "--p", "5"]) == 0
    assert "strong metric dimension 77" in capsys.readouterr().out

    def refuse(graph):
        raise MetricSearchError("independent-set search capped at 64 vertices")

    monkeypatch.setattr("powergraph.metric.min_vertex_cover", refuse)
    assert main(["metric", "--k", "3", "--p", "5"]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "capped at 64" in err


def test_metric_dimension_search_error_is_a_fail_not_a_traceback(capsys, monkeypatch):
    def refuse(graph):
        raise MetricSearchError("twin witness does not resolve and n=24 exceeds the exhaustive cap 12")

    monkeypatch.setattr("powergraph.metric.metric_dimension", refuse)
    payload = build_report(2, 3, (0.5,))
    check = next(c for c in payload["checks"] if c["name"] == "metric_dimension")
    assert not check["passed"] and "exhaustive cap" in check["details"]["error"]
    assert not payload["passed"]
    assert main(["report", "--k", "2", "--p", "3", "--alpha", "0.5"]) == 1
    captured = capsys.readouterr()
    assert "FAIL metric_dimension" in captured.out
    assert "Traceback" not in captured.err


def test_ingest_missing_graph_file_is_a_usage_error(tmp_path, capsys):
    assert main(["ingest", "--graph", str(tmp_path / "missing.txt")]) == 2
    err = capsys.readouterr().err
    assert err.startswith("usage error: ") and "missing.txt" in err
    with pytest.raises(UsageError):
        run(RunConfig(commands=("ingest",), graph_path=tmp_path / "missing.txt"))
