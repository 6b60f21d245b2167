"""Command-line front end: reproducible reports and parameter sweeps.

Settings resolve in precedence order: built-in defaults, then the --config
key=value file, then POWERGRAPH_* environment variables, then flags.  All
artifacts are JSON with sorted keys so identical config + seed reproduces
byte-identical files; csv/text formats add renderings next to the JSON.
The `build`, `metric`, `detour` and `dds` artifacts are class-level: the
twin classes as `class_of` (n ints) and `closed` (k bools), and k x k class
matrices or class rows, never a per-vertex lift.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from . import __version__, report, sequences
from .detour import DetourBudgetError
from .graphs import CLASS_TYPES, TwinQuotient
from .groups import MAX_VERTICES, GroupParams, ParameterError
from .metric import MetricSearchError

COMMANDS = ("build", "spectra", "metric", "detour", "dds", "report")
ENV_PREFIX = "POWERGRAPH_"
_encode = json.JSONEncoder(sort_keys=True).encode  # one encoder for every value of `_dump`


class UsageError(ValueError):
    """Invalid configuration; maps to exit code 2."""


class _Parser(argparse.ArgumentParser):
    """An argument parser whose parse errors are `UsageError`s, one stderr line each."""

    def error(self, message):
        raise UsageError(message)


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

    def validate(self) -> None:
        try:
            GroupParams(self.k, self.p)
        except ParameterError as exc:
            raise UsageError(str(exc)) from None
        if not self.alphas:
            raise UsageError("at least one --alpha is required")
        for idx, alpha in enumerate(self.alphas):
            if not 0.0 <= alpha <= 1.0:
                raise UsageError(f"alpha must lie in [0, 1], got {alpha}")
            if alpha in self.alphas[:idx]:
                raise UsageError(f"alpha {alpha} is given twice")
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


def _read_config_file(path: Path) -> dict[str, str]:
    try:
        text = path.read_text(encoding="utf-8")
    except (OSError, UnicodeDecodeError) as exc:
        raise UsageError(f"cannot read config file: {exc}") from None
    values: dict[str, str] = {}
    linenos: dict[str, int] = {}
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
        first = linenos.setdefault(key, lineno)
        if first != lineno:
            raise UsageError(f"{path}: config key {key!r} is set on lines {first} and {lineno}")
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
}


def _apply_kv(config: RunConfig, values: dict[str, str]) -> None:
    """Set the config keys in `values`."""
    try:
        for key, (name, parse) in _KEYS.items():
            if key in values:
                setattr(config, name, parse(values[key]))
    except ValueError as exc:
        raise UsageError(f"bad config value: {exc}") from None


def parse_args(argv: list[str]) -> RunConfig:
    parser = _Parser(
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


def _emit(out_dir: Path | None, name: str, content: str | dict) -> None:
    """Write an artifact, a string or a dict (as `_dump` renders it), to `out_dir / name`.

    Without an output directory nothing is written and a dict is never rendered.
    """
    if out_dir is None:
        return
    if isinstance(content, dict):
        content = _dump(content)
    try:
        if not out_dir.is_dir():  # made on the first artifact of a run, not before each
            out_dir.mkdir(parents=True, exist_ok=True)
        (out_dir / name).write_text(content, encoding="utf-8")
    except OSError as exc:
        raise UsageError(f"cannot write output: {exc}") from None


def _dump(payload: dict) -> str:
    """A payload as JSON: sorted keys, one top-level key per line at a 2-space indent.

    Each value is one line from one shared `JSONEncoder(sort_keys=True)`, and a
    list of lists one row per line.  Without `indent`, the encoder runs in C,
    and a k x k class matrix takes k lines, not k^2.
    """
    lines = []
    for key in sorted(payload):
        value = payload[key]
        if isinstance(value, list) and value and all(isinstance(row, list) for row in value):
            rows = ",\n".join("    " + _encode(row) for row in value)
            text = f"[\n{rows}\n  ]"
        else:
            text = _encode(value)
        lines.append(f"  {_encode(key)}: {text}")
    return "{\n" + ",\n".join(lines) + "\n}\n"


def _spectra_csv(payloads: list[dict]) -> str:
    lines = ["alpha,value,multiplicity,source"]
    for payload in payloads:
        alpha = payload["params"]["alpha"]
        for fam in payload["families"]:
            lines.append(f"{alpha!r},{fam['value']!r},{fam['mult']},{fam['source']}")
    return "\n".join(lines) + "\n"


def _classes(quotient: TwinQuotient) -> dict:
    """The twin classes every class-level artifact carries: `class_of` and `closed`."""
    return {"class_of": quotient.class_of.tolist(), "closed": quotient.closed}


def run(config: RunConfig, out=None) -> int:
    """Execute the configured commands; 0 on success, 1 on verification failure."""
    config.validate()
    out = out if out is not None else sys.stdout
    stem = f"k{config.k}-p{config.p}"

    budget, cap = config.detour_budget_s, config.detour_oracle_max_n
    inst = report.Instance(GroupParams(config.k, config.p), config.alphas, budget, cap)
    graph = inst.graph

    if "build" in config.commands:
        quotient, types = graph.quotient, inst.vertex_types
        partition = {c: np.flatnonzero(types == t).tolist() for t, c in enumerate(CLASS_TYPES)}
        partition.update(e=partition["e"][0], u=partition["u"][0])
        payload = {
            "n": graph.n,
            "labels": graph.labels,
            "elements": np.stack(graph.elements, axis=1).tolist(),
            "partition": partition,
            "adjacency": quotient.adj.astype(int).tolist(),
            **_classes(quotient),
        }
        _emit(config.out_dir, f"{stem}-graph.json", payload)
        print(f"built power graph: n={graph.n}, edges={quotient.edge_count(quotient.adj)}", file=out)

    if "spectra" in config.commands:
        for kind, payloads in inst.payloads.items():
            for alpha, payload in zip(config.alphas, payloads):
                _emit(config.out_dir, f"{stem}-alpha{alpha!r}-{kind}-spectrum.json", payload)
        if config.fmt == "csv":
            csv = _spectra_csv(inst.payloads["adjacency"])
            _emit(config.out_dir, f"{stem}-adjacency-spectra.csv", csv)
        print(f"spectra computed for alphas {list(config.alphas)}", file=out)

    if "metric" in config.commands:
        witness = inst.resolving
        cover_size, cover = inst.cover
        payload = {
            "psi": {
                "bound": len(witness),
                "witness": list(witness),
                "certified": True,
                "value": len(witness),
            },
            "sdim": {"value": cover_size, "cover_witness": list(cover)},
            "gsr": inst.gsr.astype(int).tolist(),
            **_classes(graph.quotient),
        }
        _emit(config.out_dir, f"{stem}-metric.json", payload)
        print(f"metric dimension {len(witness)}, strong metric dimension {cover_size}", file=out)

    if "detour" in config.commands:
        mat = inst.detour
        if mat is not None:
            ecc, radius, diameter = inst.detour_profile
            summary = {"oracle_verified": True, "radius": radius, "diameter": diameter}
            payload = {**summary, "eccentricities": ecc.tolist(), **_classes(graph.quotient)}
            if config.fmt == "csv":
                csv = "".join(",".join(map(str, row)) + "\n" for row in mat.tolist())
                _emit(config.out_dir, f"{stem}-detour-matrix.csv", csv)
        else:
            predicted = sequences.family_detour_eccentricities(inst.params)
            summary = {"oracle_verified": False, "predicted": predicted}
            note = "closed-form prediction only; instance above the oracle size cap"
            payload = {**summary, "note": note}
        _emit(config.out_dir, f"{stem}-detour.json", payload)
        print(f"detour profile: {summary}", file=out)

    if "dds" in config.commands:
        table = inst.dds
        payload = {
            "dds": table.to_json_dict(),
            "printed_comparison": sequences.compare_groupings(
                table.groups, sequences.family_dds_groups(inst.params)
            ),
            **_classes(graph.quotient),
        }
        if config.fmt == "text":
            _emit(config.out_dir, f"{stem}-dds.txt", table.to_text())
        if config.fmt == "csv":
            _emit(config.out_dir, f"{stem}-dds.csv", table.to_csv())
        try:  # a refused detour search still leaves the distance tables, without the detour half
            if inst.detour is not None:
                dtable = inst.detour_dds
                payload["dds_detour"] = dtable.to_json_dict()
                payload["printed_detour_comparison"] = sequences.compare_groupings(
                    dtable.groups, sequences.family_dds_detour_groups(inst.params)
                )
        finally:
            _emit(config.out_dir, f"{stem}-dds.json", payload)
        print("distance degree sequences computed", file=out)

    if "report" in config.commands:
        payload = report.report_payload(inst, config.tol, config.seed, __version__)
        payload["config"].update({"format": config.fmt})
        _emit(config.out_dir, f"{stem}-report.json", payload)
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
    except (UsageError, ParameterError) as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return 2
    except (DetourBudgetError, MetricSearchError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
