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


_IMPORTS_AFTER_NUMPY = (
    "import sys\n"
    "import numpy\n"
    "before = set(sys.modules)\n"
    "from powergraph import cli, report\n"
    "print('\\n'.join(sorted(set(sys.modules) - before)))\n"
)
# what importing `cli` and `report` may load once numpy is loaded, besides powergraph.*
# and json.*; the benchmark's
# setup_s times this import, so a new module-level import is a deliberate edit here
PINNED_IMPORTS = {"argparse", "gettext", "copy", "_json", "dataclasses", "__future__"}


def test_the_benchmarks_imports_load_only_the_pinned_modules():
    root = Path(__file__).resolve().parents[1]
    done = subprocess.run(
        [sys.executable, "-c", _IMPORTS_AFTER_NUMPY],
        capture_output=True,
        text=True,
        timeout=120,
        env={"PYTHONPATH": f"{root / 'src'}:{root}", "OPENBLAS_NUM_THREADS": "1"},
    )
    assert done.returncode == 0, done.stderr
    loaded = done.stdout.split()
    assert "powergraph.cli" in loaded and "powergraph.report" in loaded
    extra = [
        name
        for name in loaded
        if name.split(".")[0] not in ("powergraph", "json") and name not in PINNED_IMPORTS
    ]
    assert extra == []


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
