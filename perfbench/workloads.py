"""Workloads: their inputs, made from a seed, and one timed pass over them.

The program is driven only through its public calls, ``report.build_report``
and ``cli.run`` with a ``cli.RunConfig``.  Every setting that shapes the load
(detour oracle cap, detour budget, tolerance) is passed explicitly, so a later
change to a default cannot shift it.  Importing this module imports numpy and
powergraph, which is part of the measured set-up.
"""

from __future__ import annotations

import io
import random
import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy  # noqa: F401  (imported here so its import counts as set-up)

import powergraph
from powergraph import cli, report

DETOUR_BUDGET_S = 60.0
TOL = 1e-8
# interior alphas are j / 32 for distinct j in 1..31: dyadic, so repr is exact
DYADIC_DENOMINATOR = 32
INTERIOR_ALPHAS = 3


@dataclass(frozen=True)
class Workload:
    name: str
    instances: tuple[tuple[int, int], ...]
    detour_oracle_max_n: int
    # empty: one report.build_report per instance; else one cli.run per command set
    cli_commands: tuple[tuple[str, ...], ...] = ()


WORKLOADS = {
    w.name: w
    for w in (
        Workload("family-oracle", ((2, 3), (3, 3), (2, 5), (2, 7), (3, 5)), 80),
        Workload("family-scale", ((4, 5), (4, 7), (5, 5)), 24),
        Workload(
            "cli-views",
            ((2, 3), (3, 3), (2, 5), (3, 5)),
            48,
            (
                ("build",),
                ("spectra",),
                ("metric",),
                ("detour",),
                ("dds",),
                ("report",),
                ("detour", "dds", "report"),
            ),
        ),
    )
}


@dataclass(frozen=True)
class Operation:
    k: int
    p: int
    commands: tuple[str, ...] | None  # None: report.build_report

    @property
    def label(self) -> str:
        what = "build_report" if self.commands is None else "+".join(self.commands)
        return f"k{self.k}-p{self.p}/{what}"


@dataclass(frozen=True)
class Inputs:
    workload: Workload
    alphas: tuple[float, ...]
    report_seed: int
    operations: tuple[Operation, ...]


def make_inputs(name: str, seed: int) -> Inputs:
    """Alphas 0, 1 and three seeded dyadic interior values; seeded operation order."""
    workload = WORKLOADS[name]
    rng = random.Random(seed)
    interior = sorted(rng.sample(range(1, DYADIC_DENOMINATOR), INTERIOR_ALPHAS))
    alphas = (0.0, *(j / DYADIC_DENOMINATOR for j in interior), 1.0)
    report_seed = rng.randrange(2**31)
    operations = [
        Operation(k, p, commands)
        for k, p in workload.instances
        for commands in (workload.cli_commands or (None,))
    ]
    rng.shuffle(operations)
    return Inputs(workload, alphas, report_seed, tuple(operations))


@dataclass
class OpResult:
    operation: Operation
    seconds: float
    error: str | None = None  # "module.Class: message" of a raised exception
    exit_code: int | None = None  # cli.run's return value
    report: dict | None = None  # build_report payload
    artifacts: dict[str, bytes] = field(default_factory=dict)  # files cli.run wrote

    @property
    def failed(self) -> bool:
        return self.error is not None or bool(self.exit_code)


def _execute(op: Operation, inputs: Inputs, out_dir: Path) -> tuple[int | None, dict | None]:
    max_n = inputs.workload.detour_oracle_max_n
    if op.commands is None:
        payload = report.build_report(
            op.k,
            op.p,
            inputs.alphas,
            tol=TOL,
            seed=inputs.report_seed,
            detour_budget_s=DETOUR_BUDGET_S,
            detour_oracle_max_n=max_n,
            version=powergraph.__version__,
        )
        return None, payload
    config = cli.RunConfig(
        k=op.k,
        p=op.p,
        alphas=inputs.alphas,
        commands=op.commands,
        fmt="csv",
        out_dir=out_dir,
        detour_budget_s=DETOUR_BUDGET_S,
        detour_oracle_max_n=max_n,
        tol=TOL,
        seed=inputs.report_seed,
    )
    return cli.run(config, out=io.StringIO()), None


def run_pass(inputs: Inputs, work_dir: Path, tracer=None) -> tuple[float, list[OpResult]]:
    """Run every operation once, in the seeded order; returns (wall seconds, results).

    Artifacts are read back after the timed loop.  `tracer`, when given, is
    told the index of the operation in progress so its spans carry it.
    """
    results = []
    start = time.perf_counter()
    for op_id, op in enumerate(inputs.operations):
        if tracer is not None:
            tracer.op_id = op_id
        t0 = time.perf_counter()
        result = OpResult(op, 0.0)
        try:
            result.exit_code, result.report = _execute(op, inputs, work_dir / f"op{op_id}")
        except Exception as exc:  # benchmark boundary: a raised error is a failed operation
            result.error = f"{type(exc).__module__}.{type(exc).__qualname__}: {exc}"
        result.seconds = time.perf_counter() - t0
        results.append(result)
    wall = time.perf_counter() - start
    for op_id, result in enumerate(results):
        out_dir = work_dir / f"op{op_id}"
        if out_dir.is_dir():
            result.artifacts = {f.name: f.read_bytes() for f in sorted(out_dir.iterdir())}
    return wall, results
