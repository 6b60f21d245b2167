"""The benchmark's per-layer tracer still finds every function it wraps."""

import importlib
import subprocess
import sys
from pathlib import Path

import pytest

from perfbench.spans import TRACED, Tracer
from powergraph import cli, graphs, report  # noqa: F401  (the tracer needs every traced module)
from powergraph.groups import GroupParams


@pytest.mark.parametrize(
    "module, name", [(module, name) for module, names in TRACED.items() for name in names]
)
def test_traced_function_exists(module, name):
    assert callable(getattr(importlib.import_module(f"powergraph.{module}"), name, None))


_TRACED_MODULES_LOADED = (
    "import sys\n"
    "from powergraph import cli, report\n"
    "loaded = set(sys.modules)\n"
    "from perfbench.spans import TRACED\n"
    "print(sorted(m for m in TRACED if f'powergraph.{m}' not in loaded))\n"
)


def test_the_benchmarks_imports_load_every_traced_module():
    # perfbench/workloads.py imports only `cli` and `report`, and the tracer finds
    # each traced module in sys.modules, so those two must import all of them
    root = Path(__file__).resolve().parents[1]
    done = subprocess.run(
        [sys.executable, "-c", _TRACED_MODULES_LOADED],
        capture_output=True,
        text=True,
        timeout=120,
        env={"PYTHONPATH": f"{root / 'src'}:{root}", "OPENBLAS_NUM_THREADS": "1"},
    )
    assert done.returncode == 0, done.stderr
    assert done.stdout == "[]\n"


def test_tracer_sees_the_graphs_own_distances_and_quotient():
    with Tracer() as tracer:
        graph = graphs.build_power_graph(GroupParams(2, 3))
        graph.quotient.dist
    names = [span.name for span in tracer.spans]
    # the quotient is built first: the distances are a BFS on its classes
    assert names == ["graphs.build_power_graph", "graphs.twin_classes", "matrices.distance_matrix"]


def test_benchmark_selftest_passes():
    # a subprocess: the self-test rewrites os.environ and workloads.WORKLOADS
    root = Path(__file__).resolve().parents[1]
    done = subprocess.run(
        [sys.executable, "perfbench/selftest.py"],
        cwd=root,
        capture_output=True,
        text=True,
        timeout=300,
    )
    assert done.returncode == 0, done.stdout + done.stderr
    assert done.stdout.splitlines()[-1] == "selftest: ok"
