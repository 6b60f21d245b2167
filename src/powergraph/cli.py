"""Command-line front end: reproducible reports and parameter sweeps.

Settings resolve in precedence order: built-in defaults, then the --config
key=value file, then POWERGRAPH_* environment variables, then flags.  All
artifacts are JSON with sorted keys so identical config + seed reproduces
byte-identical files; csv/text formats add renderings next to the JSON.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
from collections.abc import Iterable, Iterator
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from . import __version__, report, sequences
from .detour import DetourBudgetError
from .graphs import Graph, GraphFormatError, TwinQuotient
from .groups import MAX_VERTICES, GroupParams, ParameterError
from .metric import MetricSearchError

COMMANDS = ("build", "spectra", "metric", "detour", "dds", "report", "ingest")
ENV_PREFIX = "POWERGRAPH_"


class UsageError(ValueError):
    """Invalid configuration; maps to exit code 2."""


@dataclass
class RunConfig:
    k: int = 2
    p: int = 3
    alphas: tuple[float, ...] = (0.5,)
    commands: tuple[str, ...] = ("report",)
    fmt: str = "json"
    out_dir: Path | None = None
    detour_budget_s: float = 60.0
    detour_oracle_max_n: int = MAX_VERTICES
    tol: float = 1e-8
    seed: int = 0
    graph_path: Path | None = None
    graph_format: str = "edge-list"

    def validate(self) -> None:
        try:
            GroupParams(self.k, self.p)
        except ParameterError as exc:
            raise UsageError(str(exc)) from None
        if not self.alphas:
            raise UsageError("at least one --alpha is required")
        for alpha in self.alphas:
            if not 0.0 <= alpha <= 1.0:
                raise UsageError(f"alpha must lie in [0, 1], got {alpha}")
        for command in self.commands:
            if command not in COMMANDS:
                raise UsageError(f"unknown command {command!r}; choose from {COMMANDS}")
        if self.fmt not in ("json", "csv", "text"):
            raise UsageError(f"format must be json, csv or text, got {self.fmt!r}")
        if not (math.isfinite(self.tol) and self.tol > 0):
            raise UsageError(f"tol must be finite and > 0, got {self.tol}")
        if not (math.isfinite(self.detour_budget_s) and self.detour_budget_s > 0):
            raise UsageError(f"detour budget must be finite and > 0, got {self.detour_budget_s}")
        if self.detour_oracle_max_n < 0:
            raise UsageError(f"detour oracle cap must be >= 0, got {self.detour_oracle_max_n}")
        if self.seed < 0:
            raise UsageError(f"seed must be >= 0, got {self.seed}")
        if "ingest" in self.commands and self.graph_path is None:
            raise UsageError("ingest requires --graph PATH")
        if self.graph_format not in ("edge-list", "json"):
            raise UsageError("graph format must be edge-list or json")


def ingest_graph(path: str | Path, fmt: str = "edge-list") -> Graph:
    """Load an external graph as edge-list text or canonical JSON."""
    try:
        text = Path(path).read_text(encoding="utf-8")
    except (OSError, UnicodeDecodeError) as exc:
        raise UsageError(f"cannot read graph file: {exc}") from None
    if fmt == "edge-list":
        return Graph.from_edge_list(text)
    if fmt == "json":
        try:
            data = json.loads(text)
        except json.JSONDecodeError as exc:
            raise GraphFormatError(f"bad graph JSON: {exc}") from None
        return Graph.from_json_dict(data)
    raise UsageError(f"unknown graph format {fmt!r}")


def _read_config_file(path: Path) -> dict[str, str]:
    try:
        text = path.read_text(encoding="utf-8")
    except (OSError, UnicodeDecodeError) as exc:
        raise UsageError(f"cannot read config file: {exc}") from None
    values: dict[str, str] = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        if "=" not in line:
            raise UsageError(f"{path}:{lineno}: expected key=value, got {raw!r}")
        key, _, value = line.partition("=")
        key = key.strip()
        if key not in _KEYS:
            raise UsageError(f"{path}:{lineno}: unknown config key {key!r}")
        values[key] = value.strip()
    return values


# config-file and environment keys: RunConfig field and value parser
_KEYS = {
    "k": ("k", int),
    "p": ("p", int),
    "alpha": ("alphas", lambda v: tuple(float(x) for x in v.split(",") if x)),
    "format": ("fmt", str),
    "out": ("out_dir", Path),
    "detour_budget": ("detour_budget_s", float),
    "detour_time_budget_s": ("detour_budget_s", float),
    "detour_oracle_max_n": ("detour_oracle_max_n", int),
    "tol": ("tol", float),
    "seed": ("seed", int),
}


def _env_overrides() -> dict[str, str]:
    """The config keys set as POWERGRAPH_<KEY> environment variables."""
    env = {key: os.environ.get(ENV_PREFIX + key.upper()) for key in _KEYS}
    return {key: value for key, value in env.items() if value is not None}


# flags whose argparse name differs from their RunConfig field
_FLAG_FIELDS = {
    "alpha": "alphas",
    "out": "out_dir",
    "detour_budget": "detour_budget_s",
    "graph": "graph_path",
}


def _apply_kv(config: RunConfig, values: dict[str, str]) -> None:
    try:
        for key, (name, parse) in _KEYS.items():
            if key in values:
                setattr(config, name, parse(values[key]))
    except ValueError as exc:
        raise UsageError(f"bad config value: {exc}") from None


def parse_args(argv: list[str]) -> RunConfig:
    parser = argparse.ArgumentParser(
        prog="powergraph",
        description="Power-graph spectra, metric dimensions and detour distances "
        "for the two-generator group family, verified against oracles.",
    )
    parser.add_argument("commands", nargs="+", metavar="COMMAND", help=f"one or more of {COMMANDS}")
    parser.add_argument("--k", type=int, help="exponent k >= 2")
    parser.add_argument("--p", type=int, help="odd prime p")
    parser.add_argument("--alpha", type=float, action="append", help="repeatable; in [0, 1]")
    parser.add_argument("--format", dest="fmt", choices=("json", "csv", "text"))
    parser.add_argument("--out", type=Path, help="output directory (default: stdout summary only)")
    parser.add_argument("--detour-budget", type=float, help="detour search budget in seconds")
    parser.add_argument("--detour-oracle-max-n", type=int, help="largest n the detour oracle runs on")
    parser.add_argument("--tol", type=float, help="spectrum comparison tolerance")
    parser.add_argument("--seed", type=int, help="recorded in the report config; no check reads it")
    parser.add_argument("--config", type=Path, help="key=value config file")
    parser.add_argument("--graph", type=Path, help="external graph file for ingest")
    parser.add_argument("--graph-format", choices=("edge-list", "json"), default=None)
    args = parser.parse_args(argv)

    config = RunConfig()
    if args.config is not None:
        if not args.config.exists():
            raise UsageError(f"config file not found: {args.config}")
        _apply_kv(config, _read_config_file(args.config))
    _apply_kv(config, _env_overrides())
    # flags override both; list-valued flags (commands, --alpha) become tuples
    for name, value in vars(args).items():
        if value is not None and name != "config":
            value = tuple(value) if isinstance(value, list) else value
            setattr(config, _FLAG_FIELDS.get(name, name), value)
    config.validate()
    return config


class _Writer:
    """Writes artifacts under the output directory when given, else collects them in `artifacts`.

    An artifact is a string or an iterable of lines; lines are streamed to
    the file, so a large artifact is never held whole.
    """

    def __init__(self, out_dir: Path | None):
        self.out_dir = out_dir
        self.artifacts: dict[str, str] = {}

    def emit(self, name: str, content: str | Iterable[str]) -> None:
        if isinstance(content, str):
            content = (content,)  # one write, not one per character
        if self.out_dir is None:
            self.artifacts[name] = "".join(content)
            return
        try:
            self.out_dir.mkdir(parents=True, exist_ok=True)
            with open(self.out_dir / name, "w", encoding="utf-8") as f:
                f.writelines(content)
        except OSError as exc:
            raise UsageError(f"cannot write output: {exc}") from None


def _dump(payload: dict) -> str:
    return json.dumps(payload, sort_keys=True, indent=2) + "\n"


def _spectra_csv(payloads: list[dict]) -> str:
    lines = ["alpha,value,multiplicity,source"]
    for payload in payloads:
        alpha = payload["params"]["alpha"]
        for fam in payload["families"]:
            lines.append(f"{alpha!r},{fam['value']!r},{fam['mult']},{fam['source']}")
    return "\n".join(lines) + "\n"


def _lifted_csv(quotient: TwinQuotient, matrix: np.ndarray) -> Iterator[str]:
    """`quotient.lift(matrix)` as CSV lines, one per vertex, without forming the n x n lift.

    Each class row's entries are formatted once; a vertex's line gathers its
    class row through `class_of` (kept while the next vertex is in the same
    class) and clears its own entry.
    """
    cells = np.array([[repr(float(x)) for x in row] for row in matrix], dtype=object)
    last = -1
    for v, a in enumerate(quotient.class_of.tolist()):
        if a != last:
            row, last = cells[a, quotient.class_of].tolist(), a
        row[v] = "0.0"
        yield ",".join(row) + "\n"
        row[v] = cells[a, a]


def run(config: RunConfig, writer: _Writer | None = None, out=None) -> int:
    """Execute the configured commands; 0 on success, 1 on verification failure."""
    config.validate()
    out = out if out is not None else sys.stdout
    writer = writer or _Writer(config.out_dir)
    stem = f"k{config.k}-p{config.p}"

    if "ingest" in config.commands:
        graph = ingest_graph(config.graph_path, config.graph_format)
        writer.emit("ingested-graph.json", _dump(graph.to_json_dict()))
        if config.fmt == "text":
            writer.emit("ingested-graph.edges.txt", graph.to_edge_list())
        print(f"ingested graph: n={graph.n}, edges={graph.edge_count()}", file=out)

    if not set(config.commands) - {"ingest"}:
        return 0

    inst = report.Instance(
        GroupParams(config.k, config.p), config.detour_budget_s, config.detour_oracle_max_n
    )
    graph, classes = inst.graph, inst.partition

    if "build" in config.commands:
        payload = graph.to_json_dict()
        payload["elements"] = [[label.eps, label.i] for label in graph.labels]
        payload["partition"] = {
            "e": classes.e,
            "u": classes.u,
            "h1": sorted(classes.h1),
            "h2": sorted(classes.h2),
            "h3": sorted(classes.h3),
        }
        writer.emit(f"{stem}-graph.json", _dump(payload))
        if config.fmt == "text":
            writer.emit(f"{stem}-graph.edges.txt", graph.to_edge_list())
        print(f"built power graph: n={graph.n}, edges={graph.edge_count()}", file=out)

    if "spectra" in config.commands:
        adjacency = []
        for alpha in config.alphas:
            for kind in report.SPECTRUM_KINDS:
                closed, numeric = inst.spectrum(kind, alpha)
                payload = report.spectrum_payload(inst.params, alpha, closed, numeric.values())
                writer.emit(f"{stem}-alpha{alpha!r}-{kind}-spectrum.json", _dump(payload))
                if kind == "adjacency":
                    adjacency.append(payload)
        if config.fmt == "csv":
            writer.emit(f"{stem}-adjacency-spectra.csv", _spectra_csv(adjacency))
        print(f"spectra computed for alphas {list(config.alphas)}", file=out)

    if "metric" in config.commands:
        psi_report = inst.resolving
        cover_size, cover = inst.cover
        payload = {
            "psi": {
                "bound": psi_report.lower_bound,
                "witness": list(psi_report.witness),
                "certified": psi_report.resolved,
                "value": psi_report.psi,
            },
            "sdim": {"value": cover_size, "cover_witness": list(cover)},
            "gsr_edges": [[i, j] for i, j in Graph(graph.quotient.lift(inst.gsr)).edges()],
        }
        writer.emit(f"{stem}-metric.json", _dump(payload))
        print(f"metric dimension {psi_report.psi}, strong metric dimension {cover_size}", file=out)

    if "detour" in config.commands:
        mat = inst.detour
        if mat is not None:
            ecc, radius, diameter = inst.detour_profile
            payload = {
                "oracle_verified": True,
                "radius": radius,
                "diameter": diameter,
                "eccentricities": ecc[graph.quotient.class_of].tolist(),
            }
            if config.fmt == "csv":
                writer.emit(f"{stem}-detour-matrix.csv", _lifted_csv(graph.quotient, mat))
        else:
            payload = {
                "oracle_verified": False,
                "note": "closed-form prediction only; instance above the oracle size cap",
                "predicted": sequences.family_detour_eccentricities(inst.params),
            }
        writer.emit(f"{stem}-detour.json", _dump(payload))
        print(f"detour profile: {payload}", file=out)

    if "dds" in config.commands:
        table = inst.dds
        payload = {
            "dds": table.to_json_dict(),
            "printed_comparison": sequences.compare_groupings(
                table.groups, sequences.family_dds_groups(inst.params)
            ),
        }
        if inst.detour is not None:
            dtable = inst.detour_dds
            payload["dds_detour"] = dtable.to_json_dict()
            payload["printed_detour_comparison"] = sequences.compare_groupings(
                dtable.groups, sequences.family_dds_detour_groups(inst.params)
            )
        writer.emit(f"{stem}-dds.json", _dump(payload))
        if config.fmt == "text":
            writer.emit(f"{stem}-dds.txt", table.to_text())
        if config.fmt == "csv":
            writer.emit(f"{stem}-dds.csv", table.to_csv())
        print("distance degree sequences computed", file=out)

    if "report" in config.commands:
        payload = report.report_payload(
            inst, config.alphas, tol=config.tol, seed=config.seed, version=__version__
        )
        payload["config"].update({"format": config.fmt})
        writer.emit(f"{stem}-report.json", _dump(payload))
        for check in payload["checks"]:
            print(f"{'PASS' if check['passed'] else 'FAIL'} {check['name']}", file=out)
        if not payload["passed"]:
            failing = [c["name"] for c in payload["checks"] if not c["passed"]]
            print(f"verification failed: {failing}", file=out)
            return 1
        print("all checks passed", file=out)
    return 0


def main(argv: list[str] | None = None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    try:
        config = parse_args(argv)
    except UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return 2
    try:
        return run(config)
    except (UsageError, ParameterError, GraphFormatError) as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return 2
    except (DetourBudgetError, MetricSearchError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
