"""Spans around the calls into each powergraph layer, and the per-layer metrics.

The tracer replaces each traced function at every powergraph module that
holds it (``distance_matrix`` in ``matrices``, ``metric`` and ``sequences``;
``detour_matrix`` in ``report`` and ``cli``; ...) with a wrapper that records
a span: name, start, end, parent span and operation id.  A module's own calls
look the name up in its globals, so they are traced as well.  Spans stay in
memory; ``layer_metrics`` reduces one pass of them.  Everything runs in one
thread, so there is no waiting time to record.
"""

from __future__ import annotations

import functools
import sys
import time
from collections import defaultdict
from dataclasses import dataclass

TRACED = {
    "graphs": ("build_power_graph", "twin_classes"),
    "matrices": ("distance_matrix", "a_alpha", "rd_alpha", "reciprocal_distance"),
    "spectra": (
        "sym_eigenvalues",
        "twin_eigenvalues",
        "a_alpha_closed_form",
        "rd_alpha_closed_form",
        "quintic_transcription_check",
        "rd_quotient_transcription_check",
    ),
    "metric": ("metric_dimension", "mmd_graph", "min_vertex_cover"),
    "detour": ("detour_matrix",),
    "sequences": (
        "dds",
        "family_detour_eccentricities",
        "family_detour_matrix",
        "family_dds_rows",
        "family_dds_groups",
        "family_dds_detour_rows",
        "family_dds_detour_groups",
    ),
    "report": ("build_report",),
    "cli": ("run",),
}

ASSEMBLE = ("matrices.a_alpha", "matrices.rd_alpha", "matrices.reciprocal_distance")
MATRIX_OUT = ("matrices.distance_matrix", *ASSEMBLE)
CLOSED_FORM = tuple(
    f"spectra.{name}" for name in TRACED["spectra"] if name != "sym_eigenvalues"
)
FAMILY = tuple(f"sequences.{name}" for name in TRACED["sequences"] if name.startswith("family_"))


@dataclass
class Span:
    name: str
    start: float
    parent: int | None
    op_id: int | None
    end: float = 0.0
    error: str | None = None  # exception class name when the call raised
    nbytes: int = 0  # size of a returned numpy array

    @property
    def seconds(self) -> float:
        return self.end - self.start


class Tracer:
    """Context manager: while active, calls into the traced functions record spans."""

    def __init__(self):
        self.spans: list[Span] = []
        self.op_id: int | None = None
        self._stack: list[int] = []
        self._patches: list[tuple[object, str, object]] = []

    def _wrap(self, name: str, fn):
        spans, stack = self.spans, self._stack

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = Span(name, time.perf_counter(), stack[-1] if stack else None, self.op_id)
            stack.append(len(spans))
            spans.append(span)
            try:
                result = fn(*args, **kwargs)
            except BaseException as exc:
                span.error = type(exc).__name__
                raise
            finally:
                span.end = time.perf_counter()
                stack.pop()
            span.nbytes = int(getattr(result, "nbytes", 0))
            return result

        return traced

    def __enter__(self) -> "Tracer":
        modules = [
            m for n, m in list(sys.modules.items()) if n == "powergraph" or n.startswith("powergraph.")
        ]
        for short, names in TRACED.items():
            home = sys.modules[f"powergraph.{short}"]
            for fname in names:
                original = getattr(home, fname)
                wrapper = self._wrap(f"{short}.{fname}", original)
                for module in modules:
                    for attr, value in list(vars(module).items()):
                        if value is original:
                            self._patches.append((module, attr, original))
                            setattr(module, attr, wrapper)
        return self

    def __exit__(self, *exc_info) -> None:
        for module, attr, original in reversed(self._patches):
            setattr(module, attr, original)
        self._patches.clear()


def layer_metrics(spans: list[Span], detour_budget_s: float) -> dict[str, float]:
    """Per-layer counts and times of one pass.

    ``.s`` is the time inside the call, ``.self_s`` that time minus the time
    of the traced calls it made (its child spans).
    """
    child_seconds = [0.0] * len(spans)
    for span in spans:
        if span.parent is not None:
            child_seconds[span.parent] += span.seconds
    by_name: dict[str, list[int]] = defaultdict(list)
    for idx, span in enumerate(spans):
        by_name[span.name].append(idx)

    def calls(name: str) -> int:
        return len(by_name[name])

    def total(*names: str) -> float:
        return sum(spans[i].seconds for n in names for i in by_name[n])

    def self_total(*names: str) -> float:
        return sum(spans[i].seconds - child_seconds[i] for n in names for i in by_name[n])

    detour = [spans[i].seconds for i in by_name["detour.detour_matrix"]]
    return {
        "graphs.build_power_graph.s": total("graphs.build_power_graph"),
        "graphs.twin_classes.calls": calls("graphs.twin_classes"),
        "graphs.twin_classes.s": total("graphs.twin_classes"),
        "matrices.distance_matrix.calls": calls("matrices.distance_matrix"),
        "matrices.distance_matrix.s": total("matrices.distance_matrix"),
        "matrices.assemble.s": self_total(*ASSEMBLE),
        "matrices.bytes_out": sum(spans[i].nbytes for n in MATRIX_OUT for i in by_name[n]),
        "spectra.sym_eigenvalues.calls": calls("spectra.sym_eigenvalues"),
        "spectra.sym_eigenvalues.s": total("spectra.sym_eigenvalues"),
        "spectra.closed_form.s": self_total(*CLOSED_FORM),
        "metric.metric_dimension.self_s": self_total("metric.metric_dimension"),
        "metric.mmd_graph.self_s": self_total("metric.mmd_graph"),
        "metric.min_vertex_cover.s": total("metric.min_vertex_cover"),
        "metric.min_vertex_cover.refused": sum(
            spans[i].error == "MetricSearchError" for i in by_name["metric.min_vertex_cover"]
        ),
        "detour.detour_matrix.calls": len(detour),
        "detour.detour_matrix.s": sum(detour),
        "detour.budget_used": max(detour, default=0.0) / detour_budget_s,
        "sequences.dds.self_s": self_total("sequences.dds"),
        "sequences.family.s": self_total(*FAMILY),
        "report.build_report.self_s": self_total("report.build_report"),
        "cli.run.self_s": self_total("cli.run"),
    }


def op_summary(spans: list[Span]) -> dict[int, dict[str, list]]:
    """[calls, seconds inside] per traced function, per operation id."""
    out: dict[int, dict[str, list]] = defaultdict(lambda: defaultdict(lambda: [0, 0.0]))
    for span in spans:
        entry = out[span.op_id][span.name]
        entry[0] += 1
        entry[1] += span.seconds
    return out
