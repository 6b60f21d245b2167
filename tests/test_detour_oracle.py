"""Cross-check the histogram-state detour search against the per-vertex oracle,
the search without quotient symmetry, and the family closed form.

The search gives a k x k class matrix; `lifted` turns it into the vertex
matrix the oracles give."""

import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from oracles import (
    blown_up_graphs,
    complete_graph,
    cycle_graph,
    detour_matrix_unreduced,
    family_detour_matrix_loop,
    is_connected,
    naive_detour,
    random_graphs,
    star_graph,
)
import powergraph
from powergraph.graphs import Graph, TwinQuotient, predicted_quotient
from powergraph.detour import detour_matrix
from powergraph.sequences import DegreeSequenceTable, family_detour_matrix
from powergraph.metric import strong_metric_dimension


def lifted(graph: Graph) -> np.ndarray:
    return graph.quotient.lift(detour_matrix(graph))


def predicted_detour(graph, classes, params) -> tuple[TwinQuotient, np.ndarray]:
    """(predicted twin quotient, predicted class detour matrix over its classes)."""
    predicted, types = predicted_quotient(graph.labels, classes)
    return predicted, family_detour_matrix(types, params)


def random_connected_graph(rng: np.random.Generator, n: int) -> Graph:
    while True:
        prob = rng.uniform(0.25, 0.8)
        pairs = [(i, j) for i in range(n) for j in range(i + 1, n)]
        g = Graph.from_edges(n, [pair for pair in pairs if rng.random() < prob])
        if is_connected(g):
            return g


def test_detour_matches_naive_on_random_graphs():
    rng = np.random.default_rng(99)
    for _ in range(30):
        n = int(rng.integers(2, 9))
        g = random_connected_graph(rng, n)
        assert np.array_equal(lifted(g), naive_detour(g)), g.edges()


def test_detour_matches_naive_on_the_random_corpus():
    # up to 12 vertices, twins of every kind; disconnected graphs are left out
    connected = [g for g in random_graphs(seed=7, count=300, max_n=12) if is_connected(g)]
    assert len(connected) >= 140
    for g in connected:
        assert np.array_equal(lifted(g), naive_detour(g)), g.edges()


def test_detour_matches_naive_on_twin_heavy_graphs():
    # unions of cliques through a hub: many closed twins, several classes
    rng = np.random.default_rng(7)
    for _ in range(10):
        sizes = [int(rng.integers(1, 4)) for _ in range(3)]
        edges = []
        offset = 1
        for size in sizes:
            block = list(range(offset, offset + size))
            for a_pos, a in enumerate(block):
                edges.append((0, a))
                edges.extend((a, b) for b in block[a_pos + 1 :])
            offset += size
        g = Graph.from_edges(1 + sum(sizes), edges)
        assert np.array_equal(lifted(g), naive_detour(g))


def test_detour_matches_naive_on_open_twin_graphs():
    # complete bipartite graphs and stars of stars: open classes, pairs inside one class
    graphs = []
    for a in range(1, 4):
        for b in range(a, 5):
            edges = [(i, j) for i in range(a) for j in range(a, a + b)]
            graphs.append(Graph.from_edges(a + b, edges))
    for leaves in ([1, 2], [2, 2], [3, 1, 2], [2, 3, 3]):
        edges = []
        nxt = 1 + len(leaves)
        for centre, count in enumerate(leaves, start=1):
            edges.append((0, centre))
            edges.extend((centre, leaf) for leaf in range(nxt, nxt + count))
            nxt += count
        graphs.append(Graph.from_edges(nxt, edges))
    for g in graphs:
        assert np.array_equal(lifted(g), naive_detour(g)), g.edges()


def test_detour_matches_the_family_closed_form_at_n56(family):
    params, graph, classes = family(2, 7)
    _, predicted = predicted_detour(graph, classes, params)
    assert np.array_equal(detour_matrix(graph), predicted)
    assert np.array_equal(lifted(graph), family_detour_matrix_loop(graph, classes, params))


@pytest.mark.parametrize("kp", [(2, 3), (3, 3), (2, 5), (2, 7), (3, 5)])
def test_detour_equals_the_unreduced_search_on_the_family(family, kp):
    params, graph, classes = family(*kp)
    detour = lifted(graph)
    assert np.array_equal(detour, detour_matrix_unreduced(graph))
    assert np.array_equal(detour, family_detour_matrix_loop(graph, classes, params))


@pytest.mark.parametrize("kp", [(3, 7), (4, 5), (5, 5), (6, 5), (7, 5), (7, 7)])
def test_detour_equals_the_family_closed_form_past_the_unreduced_search(family, kp):
    params, graph, classes = family(*kp)
    assert np.array_equal(detour_matrix(graph), predicted_detour(graph, classes, params)[1])
    assert np.array_equal(lifted(graph), family_detour_matrix_loop(graph, classes, params))


_SEARCH_UNDER_A_LOW_FRAME_LIMIT = (
    "import sys\n"
    "import numpy as np\n"
    "from powergraph.detour import detour_matrix\n"
    "from powergraph.groups import GroupParams\n"
    "from powergraph.report import Instance\n"
    "from powergraph.sequences import family_detour_matrix\n"
    "inst = Instance(GroupParams(6, 5))\n"
    "sys.setrecursionlimit(200)\n"
    "matrix = detour_matrix(inst.graph)\n"
    "print(np.array_equal(matrix, family_detour_matrix(inst.predicted_types, inst.params)))\n"
)


def test_detour_search_does_not_depend_on_the_recursion_limit():
    # (6, 5): paths of 640 vertices against a limit of 200 interpreter frames
    src = str(Path(powergraph.__file__).resolve().parents[1])
    done = subprocess.run(
        [sys.executable, "-c", _SEARCH_UNDER_A_LOW_FRAME_LIMIT],
        capture_output=True,
        text=True,
        timeout=120,
        env={"PYTHONPATH": src, "OPENBLAS_NUM_THREADS": "1"},
    )
    assert (done.returncode, done.stdout, done.stderr) == (0, "True\n", "")


@pytest.mark.parametrize("kp", [(2, 3), (2, 5), (3, 3), (3, 5), (4, 5), (5, 5), (6, 5)])
def test_family_detour_matrix_equals_the_pair_loop(family, kp):
    params, graph, classes = family(*kp)
    predicted, matrix = predicted_detour(graph, classes, params)
    assert np.array_equal(predicted.lift(matrix), family_detour_matrix_loop(graph, classes, params))


def test_family_orbits_are_the_blade_classes(family):
    params, graph, classes = family(3, 5)
    quotient = graph.quotient
    orbits = [orbit for orbit in quotient.orbits if len(orbit) > 1]
    blades = sorted(frozenset(quotient.members[c]) for c in orbits[0])
    expected = {frozenset((v, w)) for v in classes.h3 for w in classes.h3 if graph.adj[v, w]}
    assert len(orbits) == 1 and len(orbits[0]) == params.rotation_order // 4
    assert set(blades) == expected


def test_detour_matches_naive_on_graphs_with_quotient_symmetry():
    # blown-up twins: interchangeable twin classes, so the orbit reduction is exercised
    symmetric = 0
    for g in blown_up_graphs(8, 200):
        classes, oracle = detour_matrix(g), naive_detour(g)
        detour = g.quotient.lift(classes)
        assert np.array_equal(detour, oracle), g.edges()
        assert np.array_equal(detour, detour_matrix_unreduced(g)), g.edges()
        # the detour degree sequences from class rows equal the oracle's per-vertex counts
        rows = tuple(tuple(np.bincount(row).tolist()) for row in oracle)
        assert DegreeSequenceTable.from_classes(g.quotient, classes).rows == rows
        symmetric += any(len(orbit) > 1 for orbit in g.quotient.orbits)
    assert symmetric >= 40


def test_detour_small_named_graphs():
    for g in [
        complete_graph(2),
        complete_graph(5),
        cycle_graph(5),
        cycle_graph(6),
        star_graph(4),
    ]:
        assert np.array_equal(lifted(g), naive_detour(g))


@pytest.mark.parametrize("n", [4, 5, 6, 7, 8])
def test_strong_metric_dimension_cycles(n):
    # classical value: ceil(n / 2)
    assert strong_metric_dimension(cycle_graph(n)) == (n + 1) // 2
