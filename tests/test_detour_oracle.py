"""Cross-check the cotree detour search against the per-vertex oracle, the
search without quotient symmetry, the orbit state search and the family
closed form.

`detour_matrix` refuses a graph that is not a cograph; there the orbit state
search, the cotree search's oracle, is checked against the per-vertex oracle
instead.  The searches give a k x k class matrix; `lifted` turns it into the
vertex matrix the oracles give."""

import itertools
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from oracles import (
    alternating_threshold_graph,
    blown_up_graphs,
    by_target_orbits,
    class_level_cotree,
    complete_graph,
    cycle_graph,
    detour_matrix_unreduced,
    family_detour_matrix_loop,
    from_edges,
    is_connected,
    naive_detour,
    orbit_search,
    path_graph,
    random_cographs,
    random_graphs,
    star_graph,
    strong_metric_dimension,
    vertex_rows,
    with_cotree,
)
import powergraph
from powergraph.graphs import Graph, TwinQuotient, build_power_graph, predicted_quotient
from powergraph import detour
from powergraph.detour import NotACographError, _cotree_longest, cotree_search, detour_matrix
from powergraph.groups import GroupParams
from powergraph.sequences import DegreeSequenceTable, family_detour_matrix


def class_detour(graph: Graph) -> np.ndarray:
    """`detour_matrix` of a cograph; the orbit state search on any other graph."""
    if graph.quotient.cotree is None:
        return orbit_search(graph.quotient)
    return detour_matrix(graph)


def lifted(graph: Graph) -> np.ndarray:
    return graph.quotient.lift(class_detour(graph))


def predicted_detour(graph, params) -> tuple[TwinQuotient, np.ndarray]:
    """(predicted twin quotient, predicted class detour matrix over its classes)."""
    predicted, types = predicted_quotient(graph.elements, params)
    return predicted, family_detour_matrix(types, params)


def random_connected_graph(rng: np.random.Generator, n: int) -> Graph:
    while True:
        prob = rng.uniform(0.25, 0.8)
        pairs = [(i, j) for i in range(n) for j in range(i + 1, n)]
        g = from_edges(n, [pair for pair in pairs if rng.random() < prob])
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


def twin_heavy_graphs(count: int = 10):
    """Unions of cliques through a hub: many closed twins, several classes."""
    rng = np.random.default_rng(7)
    for _ in range(count):
        sizes = [int(rng.integers(1, 4)) for _ in range(3)]
        edges = []
        offset = 1
        for size in sizes:
            block = list(range(offset, offset + size))
            for a_pos, a in enumerate(block):
                edges.append((0, a))
                edges.extend((a, b) for b in block[a_pos + 1 :])
            offset += size
        yield from_edges(1 + sum(sizes), edges)


def test_detour_matches_naive_on_twin_heavy_graphs():
    for g in twin_heavy_graphs():
        assert np.array_equal(lifted(g), naive_detour(g))


def test_detour_matches_naive_on_open_twin_graphs():
    # complete bipartite graphs and stars of stars: open classes, pairs inside one class
    graphs = []
    for a in range(1, 4):
        for b in range(a, 5):
            edges = [(i, j) for i in range(a) for j in range(a, a + b)]
            graphs.append(from_edges(a + b, edges))
    for leaves in ([1, 2], [2, 2], [3, 1, 2], [2, 3, 3]):
        edges = []
        nxt = 1 + len(leaves)
        for centre, count in enumerate(leaves, start=1):
            edges.append((0, centre))
            edges.extend((centre, leaf) for leaf in range(nxt, nxt + count))
            nxt += count
        graphs.append(from_edges(nxt, edges))
    for g in graphs:
        assert np.array_equal(lifted(g), naive_detour(g)), g.edges()


def test_detour_matches_the_family_closed_form_at_n56(family):
    params, graph, classes = family(2, 7)
    _, predicted = predicted_detour(graph, params)
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
    assert np.array_equal(detour_matrix(graph), predicted_detour(graph, params)[1])
    assert np.array_equal(lifted(graph), family_detour_matrix_loop(graph, classes, params))


_ORBIT_SEARCH_UNDER_A_LOW_FRAME_LIMIT = (
    "import sys\n"
    "import numpy as np\n"
    "from oracles import orbit_search\n"
    "from powergraph.groups import GroupParams\n"
    "from powergraph.report import Instance\n"
    "from powergraph.sequences import family_detour_matrix\n"
    "inst = Instance(GroupParams(6, 5))\n"
    "sys.setrecursionlimit(200)\n"
    "matrix = orbit_search(inst.graph.quotient)\n"
    "print(np.array_equal(matrix, family_detour_matrix(inst.predicted_types, inst.params)))\n"
)

_COTREE_SEARCH_UNDER_A_LOW_FRAME_LIMIT = (
    "import sys\n"
    "from oracles import alternating_threshold_graph\n"
    "from powergraph.detour import detour_matrix\n"
    "graph = alternating_threshold_graph(40)\n"
    "sys.setrecursionlimit(30)\n"
    "print(detour_matrix(graph).tolist())\n"
)


def run_under_a_low_frame_limit(script: str) -> tuple[int, str, str]:
    paths = [Path(powergraph.__file__).resolve().parents[1], Path(__file__).resolve().parent]
    done = subprocess.run(
        [sys.executable, "-c", script],
        capture_output=True,
        text=True,
        timeout=120,
        env={"PYTHONPATH": os.pathsep.join(map(str, paths)), "OPENBLAS_NUM_THREADS": "1"},
    )
    return done.returncode, done.stdout, done.stderr


def test_detour_search_does_not_depend_on_the_recursion_limit():
    # (6, 5) by the orbit state search, the cotree search's oracle on the family:
    # paths of 640 vertices against a limit of 200 interpreter frames
    assert run_under_a_low_frame_limit(_ORBIT_SEARCH_UNDER_A_LOW_FRAME_LIMIT) == (0, "True\n", "")


def test_cotree_search_does_not_depend_on_the_recursion_limit():
    # a cotree 38 nodes deep against a limit of 30 interpreter frames
    graph = alternating_threshold_graph(40)
    assert graph.quotient.cotree is not None and len(graph.quotient.cotree) == 38
    expected = f"{detour_matrix(graph).tolist()}\n"
    assert run_under_a_low_frame_limit(_COTREE_SEARCH_UNDER_A_LOW_FRAME_LIMIT) == (0, expected, "")


@pytest.mark.parametrize("kp", [(2, 3), (2, 5), (3, 3), (3, 5), (4, 5), (5, 5), (6, 5)])
def test_family_detour_matrix_equals_the_pair_loop(family, kp):
    params, graph, classes = family(*kp)
    predicted, matrix = predicted_detour(graph, params)
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
        classes, oracle = class_detour(g), naive_detour(g)
        detour = g.quotient.lift(classes)
        assert np.array_equal(detour, oracle), g.edges()
        assert np.array_equal(detour, detour_matrix_unreduced(g)), g.edges()
        # the detour degree sequences from class rows equal the oracle's per-vertex counts
        rows = tuple(tuple(np.bincount(row).tolist()) for row in oracle)
        assert vertex_rows(DegreeSequenceTable.from_classes(g.quotient, classes)) == rows
        symmetric += any(len(orbit) > 1 for orbit in g.quotient.orbits)
    assert symmetric >= 40


def test_cotree_search_matches_naive_on_every_small_cograph():
    # every connected cograph of up to 12 vertices in the corpora
    corpora = itertools.chain(
        random_graphs(seed=7, count=300, max_n=12),
        blown_up_graphs(8, 200),
        random_cographs(seed=5, count=100, min_n=2, max_n=12),
        (alternating_threshold_graph(n) for n in range(2, 13)),
    )
    checked = 0
    for g in corpora:
        if g.quotient.cotree is not None and is_connected(g):
            detour = g.quotient.lift(cotree_search(g.quotient, math.inf))
            assert np.array_equal(detour, naive_detour(g)), g.edges()
            checked += 1
    assert checked >= 400


def test_cotree_search_matches_the_orbit_search_on_larger_cographs():
    # 13 .. 30 vertices; the orbit search is exponential in the orbits, so at most 5
    checked = 0
    for g in random_cographs(seed=11, count=120, min_n=13, max_n=30, split=0.8):
        quotient = g.quotient
        if len(quotient.orbits) <= 5:
            assert np.array_equal(cotree_search(quotient, math.inf), orbit_search(quotient))
            checked += len(quotient.sizes) >= 4
    assert checked >= 25


@pytest.mark.parametrize("kp", [(2, 3), (3, 3), (2, 5), (3, 5), (4, 5), (5, 5), (6, 5), (7, 7)])
def test_cotree_search_matches_the_orbit_search_on_the_family(family, kp):
    quotient = family(*kp)[1].quotient
    assert quotient.cotree is not None
    assert np.array_equal(cotree_search(quotient, math.inf), orbit_search(quotient))


@pytest.mark.parametrize("kp", [(8, 7), (9, 7)])
def test_cotree_search_matches_the_family_closed_form_at_the_largest_orders(kp):
    params = GroupParams(*kp)
    graph = build_power_graph(params)
    _, predicted = predicted_detour(graph, params)
    assert np.array_equal(cotree_search(graph.quotient, math.inf), predicted)


def test_non_cographs_take_the_orbit_search():
    # `detour_matrix` refuses them; the orbit state search, its oracle, still agrees with naive
    circulant = from_edges(40, [(i, (i + step) % 40) for i in range(40) for step in (1, 3, 7)])
    assert circulant.quotient.cotree is None
    for g in (path_graph(4), cycle_graph(5)):
        assert g.quotient.cotree is None
        with pytest.raises(NotACographError, match="not a cograph"):
            detour_matrix(g)
        assert np.array_equal(g.quotient.lift(orbit_search(g.quotient)), naive_detour(g))


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


def assert_driver_equals_the_column_oracle(quotient) -> bool:
    """The cotree search against its pairs filled in per target and against the orbit state search.

    The orbit state search runs where the quotient has at most 5 orbits;
    returns whether the cotree search ran (the graph is a cograph).
    """
    if quotient.cotree is None:
        return False
    longest = _cotree_longest(quotient, math.inf)

    def column(target: int, sources: list[int]) -> list[int]:
        return [longest(source, target) for source in sources]

    searched = cotree_search(quotient, math.inf)
    assert np.array_equal(searched, by_target_orbits(quotient, column))
    if len(quotient.orbits) <= 5:
        assert np.array_equal(searched, orbit_search(quotient))
    return True


def test_orbit_pair_driver_equals_the_column_oracle_on_the_corpora():
    corpora = itertools.chain(
        random_cographs(seed=5, count=100, min_n=2, max_n=14),
        twin_heavy_graphs(30),
        blown_up_graphs(8, 200),
    )
    cographs = symmetric = 0
    for g in corpora:
        cographs += assert_driver_equals_the_column_oracle(g.quotient)
        symmetric += any(len(orbit) > 1 for orbit in g.quotient.orbits)
    assert cographs >= 150 and symmetric >= 100


@pytest.mark.parametrize("kp", [(2, 3), (3, 3), (2, 5), (2, 7), (3, 5), (4, 5), (5, 5), (7, 7)])
def test_orbit_pair_driver_equals_the_column_oracle_on_the_family(family, kp):
    assert assert_driver_equals_the_column_oracle(family(*kp)[1].quotient)


def test_cotree_search_equals_the_search_on_the_class_level_cotree():
    # the orbit cotree against the twin rounds over every class, on cographs with symmetric quotients
    checked = 0
    for g in itertools.chain(blown_up_graphs(8, 200), random_cographs(seed=5, count=60, min_n=2, max_n=14)):
        quotient = g.quotient
        if quotient.cotree is not None:
            rounds = with_cotree(quotient, class_level_cotree(quotient))
            assert np.array_equal(cotree_search(quotient, math.inf), cotree_search(rounds, math.inf))
            checked += 1
    assert checked >= 100


def record_pair_searches(monkeypatch) -> list[tuple[int, int]]:
    """The list that every (source, target) pair the cotree search takes is appended to."""
    searched = []
    pairs = detour._cotree_longest

    def counted(quotient, deadline):
        longest = pairs(quotient, deadline)

        def counting(source, target):
            searched.append((source, target))
            return longest(source, target)

        return counting

    monkeypatch.setattr(detour, "_cotree_longest", counted)
    return searched


@pytest.mark.parametrize("kp", [(2, 3), (3, 3), (2, 5), (2, 7), (3, 5), (4, 5), (5, 5), (7, 7)])
def test_the_family_takes_one_search_per_pair_of_orbits(monkeypatch, family, kp):
    # m = 5 orbits: 10 pairs of orbits, two classes of the blade orbit, two members of h1, h2 and a blade
    graph = family(*kp)[1]
    searched = record_pair_searches(monkeypatch)
    detour_matrix(graph)
    quotient = graph.quotient
    m = len(quotient.orbits)
    assert m == 5 and len(searched) == 14 <= m * (m - 1) // 2 + 2 * m
    # every unordered pair of orbits is searched once
    orbit_of = quotient.orbit_of
    pairs = {frozenset((orbit_of[s], orbit_of[t])) for s, t in searched if orbit_of[s] != orbit_of[t]}
    assert len(pairs) == 10


def test_pair_searches_stay_within_the_orbit_bound_on_the_corpora(monkeypatch):
    searched = record_pair_searches(monkeypatch)
    corpora = itertools.chain(blown_up_graphs(8, 100), random_cographs(seed=5, count=50, min_n=2, max_n=14))
    cographs = [g for g in corpora if g.quotient.cotree is not None]
    assert len(cographs) >= 100
    for g in cographs:
        before = len(searched)
        detour_matrix(g)
        m = len(g.quotient.orbits)
        assert len(searched) - before <= m * (m - 1) // 2 + 2 * m
