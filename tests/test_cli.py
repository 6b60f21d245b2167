import dataclasses
import io
import json
import subprocess
import sys
import tempfile
from pathlib import Path

import numpy as np
import pytest

import powergraph
from oracles import (
    build_payload,
    dds_rows_bincount,
    edge_count,
    graph_json_dict,
    labelled,
    matrix_to_csv,
    metric_payload,
)
from powergraph import cli
from powergraph.cli import RunConfig, UsageError, main, parse_args, run
from powergraph.graphs import Graph, TwinQuotient
from powergraph.groups import GroupParams
from powergraph.metric import MetricSearchError
from powergraph.report import Instance, build_report


def run_collect(config):
    """(exit code, {file name: text} of what `run` wrote under a temporary --out, stdout)."""
    out = io.StringIO()
    with tempfile.TemporaryDirectory() as tmp:
        code = run(dataclasses.replace(config, out_dir=Path(tmp)), out=out)
        artifacts = {path.name: path.read_text(encoding="utf-8") for path in Path(tmp).iterdir()}
    return code, artifacts, out.getvalue()


def lift(artifact: dict, matrix) -> np.ndarray:
    """The n x n vertex matrix of a k x k class matrix, `m[class_of][:, class_of]`, diagonal cleared."""
    class_of = np.array(artifact["class_of"])
    out = np.array(matrix)[np.ix_(class_of, class_of)]
    np.fill_diagonal(out, 0)
    return out


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


@pytest.mark.parametrize("source", ["flag", "config", "env"])
def test_a_repeated_alpha_is_a_usage_error(tmp_path, capsys, monkeypatch, source):
    argv = ["report", "spectra"]
    if source == "flag":
        argv += ["--alpha", "0.5", "--alpha", "0.5"]
    elif source == "config":
        (tmp_path / "run.cfg").write_text("alpha=0.5,0.25,0.5\n", encoding="utf-8")
        argv += ["--config", str(tmp_path / "run.cfg")]
    else:
        monkeypatch.setenv("POWERGRAPH_ALPHA", "0.5,0.5")
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "usage error: alpha 0.5 is given twice\n"


@pytest.mark.parametrize(
    "source, lines",
    [
        ("config", "detour_time_budget_s=5\ndetour_budget=7\n"),
        ("config", "detour_budget=7\ndetour_time_budget_s=5\n"),
        ("env", "detour_budget=7\ndetour_time_budget_s=5\n"),
    ],
)
def test_one_source_setting_both_budget_keys_is_a_usage_error(
    tmp_path, capsys, monkeypatch, source, lines
):
    argv = ["report"]
    if source == "config":
        (tmp_path / "run.cfg").write_text(lines, encoding="utf-8")
        argv += ["--config", str(tmp_path / "run.cfg")]
    else:
        for key, _, value in (line.partition("=") for line in lines.split()):
            monkeypatch.setenv(f"POWERGRAPH_{key.upper()}", value)
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("usage error: ") and captured.err.count("\n") == 1
    assert "'detour_budget'" in captured.err and "'detour_time_budget_s'" in captured.err


def test_the_budget_alias_in_another_source_follows_the_precedence(tmp_path, monkeypatch):
    (tmp_path / "run.cfg").write_text("detour_budget=7\n", encoding="utf-8")
    monkeypatch.setenv("POWERGRAPH_DETOUR_TIME_BUDGET_S", "5")
    assert parse_args(["report", "--config", str(tmp_path / "run.cfg")]).detour_budget_s == 5.0


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
    # one row per twin class: e, h1, u, h2 and three blades
    assert matrix.splitlines()[:4] == ["0,13,11,1,13,13,13", "13,13,13,14,15,15,15",
                                       "11,13,0,12,13,13,13", "1,14,12,2,14,14,14"]
    assert len(matrix.splitlines()) == 7


@pytest.mark.parametrize("k,p", [(2, 3), (3, 5), (5, 5)])
def test_detour_csv_equals_the_formatted_lift(k, p):
    # the class rows, lifted through detour.json's class_of, are the n x n matrix's bytes
    config = RunConfig(k=k, p=p, alphas=(0.5,), commands=("detour",), fmt="csv")
    _, artifacts, _ = run_collect(config)
    inst = Instance(GroupParams(k, p))
    detour = json.loads(artifacts[f"k{k}-p{p}-detour.json"])
    rows = [line.split(",") for line in artifacts[f"k{k}-p{p}-detour-matrix.csv"].splitlines()]
    lifted = lift(detour, np.array(rows, dtype=np.int64))
    assert matrix_to_csv(lifted) == matrix_to_csv(inst.graph.quotient.lift(inst.detour))
    assert detour["closed"] == inst.graph.quotient.closed
    ecc = np.array(detour["eccentricities"])[detour["class_of"]]
    assert ecc.tolist() == lifted.max(axis=1).tolist()


@pytest.mark.parametrize("k,p", [(2, 3), (3, 5), (5, 5)])
def test_dds_artifacts_lift_to_the_vertex_rows(k, p):
    # dds.json's groups through group_of and class_of, and dds.csv's class rows through
    # class_of, are each vertex's distance and detour count rows
    config = RunConfig(k=k, p=p, alphas=(0.5,), commands=("dds", "detour"), fmt="csv")
    _, artifacts, _ = run_collect(config)
    inst = Instance(GroupParams(k, p))
    payload = json.loads(artifacts[f"k{k}-p{p}-dds.json"])

    def vertex_rows(table):
        return [tuple(table["groups"][table["group_of"][a]]["sequence"]) for a in payload["class_of"]]

    expected = dds_rows_bincount(inst.graph)
    assert vertex_rows(payload["dds"]) == list(expected)
    detour = inst.graph.quotient.lift(inst.detour)
    assert vertex_rows(payload["dds_detour"]) == [tuple(np.bincount(row).tolist()) for row in detour]
    class_rows = artifacts[f"k{k}-p{p}-dds.csv"].splitlines()
    lifted_csv = "".join(class_rows[a] + "\n" for a in payload["class_of"])
    assert lifted_csv == "".join(",".join(map(str, row)) + "\n" for row in expected)


def test_detour_csv_written_by_main_equals_the_collected_one(tmp_path):
    config = RunConfig(k=3, p=5, alphas=(0.5,), commands=("detour",), fmt="csv")
    _, artifacts, _ = run_collect(config)
    argv = ["detour", "--k", "3", "--p", "5", "--format", "csv", "--out", str(tmp_path)]
    assert main(argv) == 0
    assert sorted(path.name for path in tmp_path.iterdir()) == sorted(artifacts)
    for name, text in artifacts.items():
        assert (tmp_path / name).read_bytes() == text.encode("utf-8")


def test_run_without_out_writes_nothing_and_renders_no_artifact(tmp_path, monkeypatch):
    def unread(payload):
        raise AssertionError("an artifact was serialised without --out")

    (tmp_path / "cwd").mkdir()
    monkeypatch.setattr(cli, "_dump", unread)
    monkeypatch.chdir(tmp_path / "cwd")
    for fmt in ("json", "csv", "text"):  # every view, in every format
        config = RunConfig(commands=cli.COMMANDS, fmt=fmt)
        assert run(config, out=io.StringIO()) == 0
    assert list((tmp_path / "cwd").iterdir()) == []


def test_a_run_makes_its_output_directory_once(tmp_path, monkeypatch):
    made = []
    mkdir = Path.mkdir

    def counting(self, *args, **kwargs):
        made.append(self)
        return mkdir(self, *args, **kwargs)

    monkeypatch.setattr(Path, "mkdir", counting)
    out_dir = tmp_path / "out"
    config = RunConfig(k=2, p=3, alphas=(0.0, 1.0), commands=cli.COMMANDS, fmt="csv", out_dir=out_dir)
    assert run(config, out=io.StringIO()) == 0
    assert made == [out_dir] and len(list(out_dir.iterdir())) == 12
    assert run(config, out=io.StringIO()) == 0  # the directory is there now
    assert made == [out_dir]


def test_dump_renders_with_one_encoder(monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("_dump built an encoder for one value")

    payload = {"rows": [[1, 2], [3, 4]], "b": {"y": 1.5, "x": "\u00e9"}, "a": [True, None]}
    expected = cli._dump(payload)
    monkeypatch.setattr(json, "dumps", refuse)
    assert cli._dump(payload) == expected
    assert expected == '{\n  "a": [true, null],\n  "b": {"x": "\\u00e9", "y": 1.5},\n  "rows": [\n    [1, 2],\n    [3, 4]\n  ]\n}\n'


@pytest.mark.parametrize("k,p", [(2, 3), (3, 5)])
def test_dump_parses_back_to_every_views_payload(monkeypatch, k, p):
    payloads = {}
    emit = cli._emit

    def keep(out_dir, name, content):
        if isinstance(content, dict):
            payloads[name] = content
        emit(out_dir, name, content)

    monkeypatch.setattr(cli, "_emit", keep)
    commands = ("build", "spectra", "metric", "detour", "dds", "report")
    config = RunConfig(k=k, p=p, alphas=(0.0, 0.3, 1.0), commands=commands, fmt="csv")
    _, artifacts, _ = run_collect(config)
    assert len(payloads) == 11  # graph, 6 spectra, metric, detour, dds and report
    for name, payload in payloads.items():
        text = cli._dump(payload)
        assert text == artifacts[name]
        # the report's degree counts have int keys, which JSON writes as strings
        assert json.loads(text) == json.loads(json.dumps(payload))
        # one line per top-level key, and one per row of a list of lists
        tables = [v for v in payload.values() if isinstance(v, list) and v and type(v[0]) is list]
        assert text.count("\n") == 2 + len(payload) + sum(len(table) + 1 for table in tables)
    numeric = [payloads[name]["numeric"] for name in payloads if name.endswith("spectrum.json")]
    assert len(numeric) == 6 and all(isinstance(x, float) for values in numeric for x in values)


@pytest.mark.parametrize("k,p", [(2, 3), (3, 5), (5, 5)])
def test_metric_json_lifts_to_the_vertex_level_payload(k, p):
    # metric.json's class MMD graph, lifted through class_of, is the vertex-level file's edge list
    config = RunConfig(k=k, p=p, alphas=(0.5,), commands=("metric",))
    _, artifacts, _ = run_collect(config)
    inst = Instance(GroupParams(k, p))
    payload = json.loads(artifacts[f"k{k}-p{p}-metric.json"])
    gsr = Graph(lift(payload, payload["gsr"]).astype(bool))
    lifted = {"psi": payload["psi"], "sdim": payload["sdim"], "gsr_edges": graph_json_dict(gsr)["edges"]}
    assert cli._dump(lifted) == cli._dump(metric_payload(inst))
    assert payload["closed"] == inst.graph.quotient.closed


@pytest.mark.parametrize("k,p", [(2, 3), (3, 5), (5, 5)])
def test_build_writes_the_eager_renderings(family, k, p):
    # graph.json's class adjacency, lifted through class_of, renders the vertex-level files
    params, graph, _ = family(k, p)
    config = RunConfig(k=k, p=p, alphas=(0.5,), commands=("build",), fmt="text")
    _, artifacts, output = run_collect(config)
    assert sorted(artifacts) == [f"k{k}-p{p}-graph.json"]
    payload = json.loads(artifacts[f"k{k}-p{p}-graph.json"])
    lifted = labelled(lift(payload, payload["adjacency"]).astype(bool), graph.labels)
    vertex_level = {key: payload[key] for key in ("n", "labels", "elements", "partition")}
    vertex_level["edges"] = graph_json_dict(lifted)["edges"]
    assert cli._dump(vertex_level) == cli._dump(build_payload(graph, params))
    assert cli._dump(build_payload(lifted, params)) == cli._dump(build_payload(graph, params))
    assert payload["closed"] == graph.quotient.closed
    assert f"n={graph.n}, edges={edge_count(graph)}\n" in output


def test_build_and_metric_and_dds_commands(tmp_path):
    config = RunConfig(
        k=2, p=3, alphas=(0.5,), commands=("build", "metric", "dds", "detour"), out_dir=tmp_path
    )
    code, artifacts, _ = run_collect(config)
    assert code == 0
    graph = json.loads(artifacts["k2-p3-graph.json"])
    assert graph["n"] == 24 and lift(graph, graph["adjacency"]).sum() == 2 * 87
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
    assert run(config, out=io.StringIO()) == 0
    assert (tmp_path / "k2-p3-graph.json").exists()


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


def test_metric_view_writes_its_class_matrix_at_n1792(tmp_path):
    # (7, 7): the MMD graph joins almost every vertex pair (56 MB as a vertex edge list),
    # but metric.json holds its 228 x 228 class matrix
    small_code, small_peak, _ = _main_in_subprocess(["build", "--k", "2", "--p", "3"])
    argv = ["metric", "--k", "7", "--p", "7", "--out", str(tmp_path)]
    code, peak, err = _main_in_subprocess(argv)
    assert small_code == 0 and code == 0 and err == ""
    assert (tmp_path / "k7-p7-metric.json").stat().st_size < 1_000_000
    assert peak - small_peak < 64 * 1024  # ru_maxrss is in KiB on Linux


def test_build_view_writes_its_class_adjacency_at_n1792(tmp_path):
    # (7, 7): 402 528 edges (13.7 MB as a vertex edge list), a 228 x 228 class adjacency
    small_code, small_peak, _ = _main_in_subprocess(["build", "--k", "2", "--p", "3"])
    argv = ["build", "--k", "7", "--p", "7", "--out", str(tmp_path)]
    code, peak, err = _main_in_subprocess(argv)
    assert small_code == 0 and code == 0 and err == ""
    assert (tmp_path / "k7-p7-graph.json").stat().st_size < 1_000_000
    assert peak - small_peak < 64 * 1024  # ru_maxrss is in KiB on Linux


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
    assert len(payload["class_of"]) == 1280
    assert len(payload["eccentricities"]) == len(payload["closed"]) == 164


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


def test_detour_view_prints_a_summary_line():
    config = RunConfig(k=2, p=3, alphas=(0.5,), commands=("detour",))
    _, _, output = run_collect(config)
    assert output == "detour profile: {'oracle_verified': True, 'radius': 13, 'diameter': 15}\n"
    _, _, output = run_collect(dataclasses.replace(config, detour_oracle_max_n=0))
    assert output == (
        "detour profile: {'oracle_verified': False, 'predicted': {'e': 13, 'u': 13, "
        "'h1': 15, 'h2': 14, 'h3': 15, 'radius': 13, 'diameter': 15}}\n"
    )


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


def test_a_repeated_config_key_is_a_usage_error(tmp_path, capsys):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("k=3\np=5\n# k=4\nk=2\n", encoding="utf-8")
    assert main(["report", "--config", str(cfg)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"usage error: {cfg}: config key 'k' is set on lines 1 and 4\n"


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


@pytest.mark.parametrize(
    "argv, message",
    [
        (["ingest"], "usage error: unknown command 'ingest'"),
        (["report", "--graph", "g.txt"], "usage error: unrecognized arguments: --graph g.txt"),
        (
            ["report", "--graph-format", "json"],
            "usage error: unrecognized arguments: --graph-format json",
        ),
        (["report", "--k", "x"], "usage error: argument --k: invalid int value: 'x'"),
    ],
    ids=["ingest", "graph", "graph-format", "k-not-an-int"],
)
def test_external_graph_input_is_a_usage_error(argv, message):
    # the CLI reads no graph file: the command and its two flags are unknown; these and a
    # flag value that does not parse are each one usage-error line, as every usage error is
    src = str(Path(powergraph.__file__).resolve().parents[1])
    done = subprocess.run(
        [sys.executable, "-m", "powergraph", *argv],
        capture_output=True,
        text=True,
        timeout=120,
        env={"PYTHONPATH": src, "OPENBLAS_NUM_THREADS": "1"},
    )
    assert done.returncode == 2 and done.stdout == ""
    assert done.stderr.startswith(message) and done.stderr.count("\n") == 1


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


def test_a_non_cograph_detour_is_an_error_not_a_traceback(capsys, monkeypatch):
    monkeypatch.setattr(TwinQuotient, "cotree", None)
    assert main(["detour", "--k", "2", "--p", "3"]) == 1
    captured = capsys.readouterr()
    assert captured.err == "error: graph is not a cograph; the detour search needs its cotree\n"


def test_metric_dimension_search_error_is_a_fail_not_a_traceback(capsys, monkeypatch):
    def refuse(graph):
        raise MetricSearchError("twin witness does not resolve the graph (n=24)")

    monkeypatch.setattr("powergraph.metric.metric_dimension", refuse)
    payload = build_report(2, 3, (0.5,))
    check = next(c for c in payload["checks"] if c["name"] == "metric_dimension")
    assert not check["passed"] and "does not resolve" in check["details"]["error"]
    assert not payload["passed"]
    assert main(["report", "--k", "2", "--p", "3", "--alpha", "0.5"]) == 1
    captured = capsys.readouterr()
    assert "FAIL metric_dimension" in captured.out
    assert "Traceback" not in captured.err

