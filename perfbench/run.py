"""Run one benchmark workload and print its metrics.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run it from the root of a source checkout; powergraph is imported from
``src/``.  The seed picks the interior alphas, the report seed and the order of
the operations.  Passes over the workload's operations repeat while one more
pass is expected to end within ``S`` seconds.  With ``--trace 0`` the
end-to-end metrics are printed; with ``--trace 1`` passes alternate untraced
and traced and the per-layer metrics are printed.  The last line of standard
output is one JSON object: ``{"correct", "attempted", "failed", "metrics"}``.
Metric names and units are those declared in ``BENCHMARK.json``.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import tempfile
import time
from collections import Counter
from dataclasses import dataclass
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
sys.path[:0] = [str(ROOT), str(SRC)]

from perfbench import gate, spans  # noqa: E402  (needs the checkout on sys.path)

FINGERPRINTS = ROOT / "perfbench" / "fingerprints.json"
WORK_ROOT = ROOT / "perfbench" / ".work"
SETUP_PROBES = 6  # fresh processes; the run's own set-up is one more sample
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
THREADS = "1"  # the program is single-threaded; BLAS gets one of the nproc cores
PROBE = (
    "import time\n"
    "t0 = time.perf_counter()\n"
    "from perfbench import workloads\n"
    "workloads.make_inputs({name!r}, {seed!r})\n"
    "print(time.perf_counter() - t0)\n"
)


@dataclass
class Pass:
    """What one pass leaves once its outputs are checked and dropped."""

    traced: bool
    wall: float
    max_op: float
    counts: Counter
    problems: list[str]
    failures: list[str]  # "label: error or exit code" per failed operation
    digests: dict[str, str]
    layers: dict[str, float] | None = None  # per-layer metrics of a traced pass
    op_lines: list[str] | None = None  # calls and time per traced function, per operation


def probe_setup(name: str, seed: int) -> float:
    """Set-up time (imports and inputs) measured in a fresh interpreter."""
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([str(ROOT), str(SRC)]))
    done = subprocess.run(
        [sys.executable, "-c", PROBE.format(name=name, seed=seed)],
        cwd=ROOT,
        env=env,
        capture_output=True,
        text=True,
        timeout=120,
        check=True,
    )
    return float(done.stdout.strip().splitlines()[-1])


def reports_of(result) -> list[dict]:
    if result.report is not None:
        return [result.report]
    out = []
    for name, content in result.artifacts.items():
        if name.endswith("-report.json"):
            try:
                out.append(json.loads(content))
            except ValueError:
                pass  # the gate reports it
    return out


def outcome_counts(results) -> Counter:
    """Operations and checks attempted and failed; oracle-verified items."""
    counts = Counter()
    for result in results:
        counts["ops"] += 1
        counts["ops_failed"] += result.failed
        for payload in reports_of(result):
            for check in payload.get("checks", []):
                counts["checks"] += 1
                counts["checks_failed"] += not check["passed"]
                counts["items"] += 1
                counts["unverified"] += check["details"].get("oracle_verified") is False
        for name, content in result.artifacts.items():
            if name.endswith("-detour.json"):
                counts["items"] += 1
                counts["unverified"] += json.loads(content).get("oracle_verified") is False
    return counts


def digests(results) -> dict[str, str]:
    """sha256 per operation: of the report, or of the manifest of artifact sha256s."""
    out = {}
    for result in results:
        if result.report is not None:
            data = json.dumps(result.report, sort_keys=True).encode()
        else:
            data = "".join(
                f"{name} {hashlib.sha256(content).hexdigest()}\n"
                for name, content in sorted(result.artifacts.items())
            ).encode()
        out[result.operation.label] = hashlib.sha256(data).hexdigest()
    return out


def summarise(inputs, wall: float, results, tracer, detour_budget_s: float) -> Pass:
    """Check and reduce one pass; `tracer` is None for an untraced pass."""
    done = Pass(
        traced=tracer is not None,
        wall=wall,
        max_op=max(r.seconds for r in results),
        counts=outcome_counts(results),
        problems=gate.check_pass(results, inputs),
        failures=[
            f"{r.operation.label}: {r.error or f'exit {r.exit_code}'}" for r in results if r.failed
        ],
        digests=digests(results),
    )
    if tracer is not None:
        done.layers = spans.layer_metrics(tracer.spans, detour_budget_s)
        done.layers["cli.bytes_written"] = sum(len(c) for r in results for c in r.artifacts.values())
        done.layers["cli.artifacts"] = sum(len(r.artifacts) for r in results)
        summary = spans.op_summary(tracer.spans)
        done.op_lines = [
            f"{r.operation.label}: {r.seconds:.4f} s; calls/time "
            + " ".join(f"{n}={c}/{s:.4f}s" for n, (c, s) in sorted(summary[op_id].items()))
            for op_id, r in enumerate(results)
        ]
    return done


def measure(workloads, inputs, seconds: float, trace: bool) -> list[Pass]:
    """Repeat passes while another one, as long as the last, still ends within `seconds`.

    There is at least one pass, and with `trace` at least one untraced and one
    traced pass, alternating.  Each pass's outputs are checked and dropped
    before the next, so what the harness keeps does not grow with the count.
    """
    WORK_ROOT.mkdir(exist_ok=True)
    passes: list[Pass] = []
    start = time.perf_counter()
    traced = False
    while True:
        tracer = spans.Tracer() if traced else None
        with tempfile.TemporaryDirectory(dir=WORK_ROOT) as tmp, tracer or contextlib.nullcontext():
            wall, results = workloads.run_pass(inputs, Path(tmp), tracer)
        passes.append(summarise(inputs, wall, results, tracer, workloads.DETOUR_BUDGET_S))
        del results, tracer
        kinds = {p.traced for p in passes}
        if time.perf_counter() - start + wall > seconds and len(kinds) == (2 if trace else 1):
            break
        traced = trace and not traced
    try:
        WORK_ROOT.rmdir()
    except OSError:
        pass
    return passes


def fingerprint_status(workload: str, seed: int, passes: list[Pass], record: bool) -> str:
    current = passes[0].digests
    baseline = json.loads(FINGERPRINTS.read_text()) if FINGERPRINTS.is_file() else {}
    recorded = baseline.get(workload, {}).get(str(seed))
    if any(p.digests != current for p in passes[1:]):
        status = "nondeterministic (passes differ)"
    elif recorded is None:
        status = f"no baseline recorded for seed {seed}"
    elif recorded == current:
        status = "unchanged"
    else:
        differ = sorted(k for k in current.keys() | recorded.keys() if current.get(k) != recorded.get(k))
        status = f"changed ({len(differ)} of {len(current)} operations: {', '.join(differ[:5])})"
    if record:
        baseline.setdefault(workload, {})[str(seed)] = current
        FINGERPRINTS.write_text(json.dumps(baseline, sort_keys=True, indent=1) + "\n")
        status += "; recorded"
    return status


def environment(caller_threads: dict) -> dict:
    import numpy

    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas_version = f"{blas['name']} {blas['version']}"
    except (TypeError, KeyError):
        blas_version = "unknown"
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "blas": blas_version,
        "nproc": len(os.sched_getaffinity(0)),
        "threads": {v: os.environ.get(v) for v in THREAD_VARS},
        "caller_threads": caller_threads,
    }


def end_to_end(setup: list[float], passes: list[Pass], counts: Counter) -> dict[str, float]:
    timed = [p for p in passes if not p.traced]
    attempted = counts["ops"] + counts["checks"]
    failed = counts["ops_failed"] + counts["checks_failed"]
    return {
        "setup_s": statistics.median(setup),
        "wall_s": statistics.median(p.wall for p in timed),
        "max_op_s": statistics.median(p.max_op for p in timed),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "ok_share": 1.0 - failed / attempted,
        "oracle_share": 1.0 - counts["unverified"] / counts["items"],
    }


def per_layer(passes: list[Pass]) -> dict[str, float]:
    rows = [p.layers for p in passes if p.traced]
    # median_low picks a measured value, so counts stay whole numbers
    out = {name: statistics.median_low(row[name] for row in rows) for name in rows[0]}
    untraced = statistics.median(p.wall for p in passes if not p.traced)
    traced = statistics.median(p.wall for p in passes if p.traced)
    out["trace_overhead_share"] = traced / untraced - 1.0
    return out


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    parser.add_argument(
        "--record-fingerprints",
        action="store_true",
        help="store this run's output digests as the baseline for its workload and seed",
    )
    args = parser.parse_args(argv)
    if not (SRC / "powergraph" / "__init__.py").is_file():
        print(f"perfbench: no powergraph sources in {SRC}; run from a checkout root", file=sys.stderr)
        return 2
    declared = json.loads((ROOT / "BENCHMARK.json").read_text())
    if args.workload not in {w["name"] for w in declared["workloads"]}:
        print(f"perfbench: unknown workload {args.workload!r}", file=sys.stderr)
        return 2

    caller_threads = {v: os.environ.get(v) for v in THREAD_VARS}
    for var in THREAD_VARS:
        os.environ[var] = THREADS
    setup = [probe_setup(args.workload, args.seed) for _ in range(SETUP_PROBES)]
    t0 = time.perf_counter()
    from perfbench import workloads

    inputs = workloads.make_inputs(args.workload, args.seed)
    setup.append(time.perf_counter() - t0)
    if not Path(workloads.powergraph.__file__).resolve().is_relative_to(SRC):
        print(f"perfbench: powergraph imported from outside {SRC}", file=sys.stderr)
        return 2

    passes = measure(workloads, inputs, args.seconds, bool(args.trace))
    problems = sorted({msg for p in passes for msg in p.problems})
    counts = sum((p.counts for p in passes), Counter())
    if args.trace:
        values, wanted = per_layer(passes), declared["per_layer"]
    else:
        values, wanted = end_to_end(setup, passes, counts), declared["end_to_end"]

    print("env:", json.dumps(environment(caller_threads), sort_keys=True))
    print(f"inputs: alphas {list(inputs.alphas)}, report seed {inputs.report_seed}")
    print(f"passes: {sum(not p.traced for p in passes)} untraced, {sum(p.traced for p in passes)} traced")
    for failure in passes[0].failures:
        print("failed operation", failure)
    attempted = counts["ops"] + counts["checks"]
    failed = counts["ops_failed"] + counts["checks_failed"]
    print(f"checks and operations: attempted {attempted}, failed {failed}, fail_share {failed / attempted:.6f}")
    print("fingerprint:", fingerprint_status(args.workload, args.seed, passes, args.record_fingerprints))
    for msg in problems[:20]:
        print("gate:", msg)
    print("gate:", "FAILED" if problems else "ok")
    for line in next((p.op_lines for p in passes if p.traced), []):
        print("trace op", line)
    metrics = {}
    for metric in wanted:
        name, unit = metric["name"], metric["unit"]
        metrics[name] = {"value": values[name], "unit": unit}
        print(f"{name} = {values[name]!r} {unit}")
    print(
        json.dumps(
            {
                "correct": not problems,
                "attempted": counts["ops"],
                "failed": counts["ops_failed"],
                "metrics": metrics,
            }
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
