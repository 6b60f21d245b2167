"""Output correctness gate, independent of the report's own PASS/FAIL verdict.

It checks the program's outputs against the paper's closed forms directly:
every report carries the full set of checks, the metric dimension
``7 * 2^(k-2) p - 4``, the expected strong metric dimension ``2^(k+1) p - 3``
(and, where one was computed, that value), and, wherever the detour oracle
ran, radius ``2^k p + 1`` and diameter ``2^k p + 3``.  Every artifact the CLI
writes must parse.  A failed operation is allowed only with exit code 1 or an
error class of powergraph's own: the known defects (the strong metric
dimension FAIL for n > 64, ``MetricSearchError`` from ``metric``) are counted
as failures by the caller, not hidden here.
"""

from __future__ import annotations

import csv
import io
import json

CHECK_NAMES = frozenset(
    {
        "structure_decomposition",
        "degree_multiset",
        "partition_sizes",
        "twin_eigenvalues_in_spectrum",
        "adjacency_alpha_spectrum",
        "reciprocal_alpha_spectrum",
        "quintic_transcription",
        "reciprocal_quotient_transcription",
        "block_reduction_random",
        "metric_dimension",
        "strong_metric_dimension",
        "detour_eccentricities",
        "distance_degree_sequences",
        "detour_degree_sequences",
    }
)


def closed_forms(k: int, p: int) -> dict[str, int]:
    return {
        "order": 2 ** (k + 1) * p,
        "psi": 7 * 2 ** (k - 2) * p - 4,
        "sdim": 2 ** (k + 1) * p - 3,
        "detour_radius": 2**k * p + 1,
        "detour_diameter": 2**k * p + 3,
    }


def _check_detour(payload: dict, expect: dict[str, int], where: str) -> list[str]:
    if not payload.get("oracle_verified"):
        return []
    got = (payload.get("radius"), payload.get("diameter"))
    want = (expect["detour_radius"], expect["detour_diameter"])
    return [] if got == want else [f"{where}: detour radius/diameter {got} != {want}"]


def check_report(payload: dict, k: int, p: int, alphas, where: str) -> list[str]:
    expect = closed_forms(k, p)
    problems = []
    names = [c["name"] for c in payload.get("checks", [])]
    if len(names) != len(set(names)) or set(names) != CHECK_NAMES:
        problems.append(f"{where}: check names {sorted(names)}")
    if payload.get("order") != expect["order"]:
        problems.append(f"{where}: order {payload.get('order')} != {expect['order']}")
    if payload.get("config", {}).get("alphas") != list(alphas):
        problems.append(f"{where}: alphas {payload.get('config', {}).get('alphas')}")
    for kind in ("adjacency", "reciprocal"):
        sweep = payload.get("spectra", {}).get(kind, [])
        if len(sweep) != len(alphas) or any(len(s.get("numeric", ())) != expect["order"] for s in sweep):
            problems.append(f"{where}: {kind} spectra do not cover every alpha and vertex")
    details = {c["name"]: c["details"] for c in payload.get("checks", [])}
    psi = details.get("metric_dimension", {})
    if (psi.get("psi"), psi.get("expected")) != (expect["psi"], expect["psi"]):
        problems.append(f"{where}: metric dimension {psi.get('psi')} != {expect['psi']}")
    sdim = details.get("strong_metric_dimension", {})
    if sdim.get("expected") != expect["sdim"] or sdim.get("sdim", expect["sdim"]) != expect["sdim"]:
        problems.append(f"{where}: strong metric dimension {sdim} != {expect['sdim']}")
    if "sdim" not in sdim and "error" not in sdim:
        problems.append(f"{where}: strong metric dimension has neither a value nor a refusal")
    problems += _check_detour(details.get("detour_eccentricities", {}), expect, where)
    return problems


def _parse(name: str, content: bytes) -> object:
    text = content.decode("utf-8")
    if name.endswith(".json"):
        return json.loads(text)
    if name.endswith(".csv"):
        rows = list(csv.reader(io.StringIO(text)))
        if not rows or not all(rows):
            raise ValueError("empty csv or csv row")
        return rows
    raise ValueError("unexpected artifact type")


def check_artifacts(artifacts: dict[str, bytes], k: int, p: int, alphas, where: str) -> list[str]:
    expect = closed_forms(k, p)
    problems = []
    for name, content in artifacts.items():
        try:
            parsed = _parse(name, content)
        except ValueError as exc:  # json/csv/unicode errors are all ValueErrors
            problems.append(f"{where}/{name}: does not parse ({exc})")
            continue
        if name.endswith("-report.json"):
            problems += check_report(parsed, k, p, alphas, f"{where}/{name}")
        elif name.endswith("-metric.json"):
            dims = (parsed.get("psi", {}).get("value"), parsed.get("sdim", {}).get("value"))
            if dims != (expect["psi"], expect["sdim"]):
                problems.append(f"{where}/{name}: dimensions {dims}")
        elif name.endswith("-detour.json"):
            problems += _check_detour(parsed, expect, f"{where}/{name}")
    return problems


def expected_artifacts(commands, k: int, p: int, alphas, oracle: bool) -> set[str]:
    """Files a successful cli.run with fmt=csv writes."""
    stem = f"k{k}-p{p}"
    names = set()
    for command in commands:
        if command == "build":
            names.add(f"{stem}-graph.json")
        elif command == "spectra":
            for alpha in alphas:
                names.add(f"{stem}-alpha{alpha!r}-adjacency-spectrum.json")
                names.add(f"{stem}-alpha{alpha!r}-reciprocal-spectrum.json")
            names.add(f"{stem}-adjacency-spectra.csv")
        elif command == "metric":
            names.add(f"{stem}-metric.json")
        elif command == "detour":
            names.add(f"{stem}-detour.json")
            if oracle:
                names.add(f"{stem}-detour-matrix.csv")
        elif command == "dds":
            names |= {f"{stem}-dds.json", f"{stem}-dds.csv"}
        elif command == "report":
            names.add(f"{stem}-report.json")
    return names


def check_pass(results, inputs) -> list[str]:
    """Every problem found in one pass; an empty list means the outputs are correct."""
    problems = []
    max_n = inputs.workload.detour_oracle_max_n
    for result in results:
        op = result.operation
        where = op.label
        if result.error is not None and not result.error.startswith("powergraph."):
            problems.append(f"{where}: raised {result.error}")
        if result.exit_code not in (None, 0, 1):
            problems.append(f"{where}: exit code {result.exit_code}")
        if op.commands is None:
            if result.report is None:
                problems.append(f"{where}: no report")
            else:
                problems += check_report(result.report, op.k, op.p, inputs.alphas, where)
            continue
        if result.error is None:  # exit code 1 still writes every artifact
            oracle = closed_forms(op.k, op.p)["order"] <= max_n
            missing = expected_artifacts(op.commands, op.k, op.p, inputs.alphas, oracle)
            missing -= set(result.artifacts)
            if missing:
                problems.append(f"{where}: missing artifacts {sorted(missing)}")
        problems += check_artifacts(result.artifacts, op.k, op.p, inputs.alphas, where)
    return problems
