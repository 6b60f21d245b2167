import numpy as np
import pytest

from oracles import (
    blown_up_graphs,
    complete_graph,
    cycle_graph,
    edge_count,
    exhaustive_metric_dimension,
    from_edges,
    is_connected,
    mmd_graph_loop,
    path_graph,
    random_graphs,
    resolve_check_unique,
    star_graph,
    strong_metric_dimension,
)
from powergraph.graphs import Graph, twin_classes
from powergraph.metric import (
    SEARCH_CAP,
    MetricSearchError,
    max_independent_set,
    metric_dimension,
    min_vertex_cover,
    mmd_graph,
    resolve_check,
    strong_cover,
    twin_lower_bound,
    twin_witness,
)


def lifted_mmd(graph: Graph) -> Graph:
    """The strong resolving graph on the vertices, lifted from its class matrix."""
    return Graph(graph.quotient.lift(mmd_graph(graph)))


def test_resolve_check_path_end():
    assert resolve_check(path_graph(4), {0})
    assert not resolve_check(cycle_graph(5), {0})


def test_full_vertex_set_always_resolves(family):
    _, graph, _ = family(2, 3)
    assert resolve_check(graph, set(range(graph.n)))
    for g in (path_graph(5), cycle_graph(6), star_graph(4)):
        assert resolve_check(g, set(range(g.n)))


def test_resolve_check_matches_the_sorting_oracle_on_random_graphs():
    rng = np.random.default_rng(19)
    connected = [graph for graph in random_graphs(seed=23, count=300) if is_connected(graph)]
    # blown-up graphs have closed and open twin classes side by side
    connected += list(blown_up_graphs(seed=29, count=100))
    verdicts = []
    for graph in connected:
        for _ in range(5):
            size = int(rng.integers(0, graph.n + 1))
            subset = rng.choice(graph.n, size=size, replace=False).tolist()
            verdict = resolve_check(graph, subset)
            assert verdict == resolve_check_unique(graph, subset)
            verdicts.append(verdict)
    assert len(connected) > 100 and 100 < sum(verdicts) < len(verdicts) - 100


def test_twin_lower_bound_values(family):
    _, graph, _ = family(2, 3)
    assert twin_lower_bound(graph) == (10 - 1) + (6 - 1) + 3 * (2 - 1) == 17
    assert twin_lower_bound(complete_graph(5)) == 4
    assert twin_lower_bound(path_graph(4)) == 0


def test_family_witness_resolves(family):
    _, graph, _ = family(2, 3)
    witness = twin_witness(graph)
    assert len(witness) == 17
    assert resolve_check(graph, witness)
    # no 16-element set can resolve: the twin bound already exceeds it
    assert twin_lower_bound(graph) > 16


@pytest.mark.parametrize("k,p,expected", [(2, 3, 17), (2, 5, 31), (3, 3, 38)])
def test_family_metric_dimension(family, k, p, expected):
    _, graph, _ = family(k, p)
    report = metric_dimension(graph)
    assert report.resolved
    assert report.psi == expected == report.lower_bound == len(report.witness)


def test_metric_dimension_corpus():
    # the exhaustive oracle; the twin witness certifies the complete graphs and stars alike
    for n in range(2, 9):
        assert exhaustive_metric_dimension(path_graph(n)) == 1
    for n in range(4, 9):
        assert exhaustive_metric_dimension(cycle_graph(n)) == 2
    for n in range(2, 9):
        g = complete_graph(n)
        assert exhaustive_metric_dimension(g) == metric_dimension(g).psi == n - 1
    for leaves in range(2, 8):
        g = star_graph(leaves)
        assert exhaustive_metric_dimension(g) == metric_dimension(g).psi == leaves - 1


def test_twin_bound_is_lower_bound_on_corpus():
    for g in [path_graph(6), cycle_graph(7), complete_graph(6), star_graph(5)]:
        assert twin_lower_bound(g) <= exhaustive_metric_dimension(g)


def test_metric_dimension_refuses_large_uncertified():
    # at any order: P5 has metric dimension 1, but its twin witness is empty
    for graph in (cycle_graph(13), path_graph(5)):
        with pytest.raises(MetricSearchError, match="twin witness does not resolve"):
            metric_dimension(graph)


def test_mmd_complete():
    g = complete_graph(5)
    assert np.array_equal(lifted_mmd(g).adj, g.adj)


def test_mmd_path():
    gsr = lifted_mmd(path_graph(3))
    assert gsr.edges() == [(0, 2)]


def test_mmd_graph_matches_the_loop_oracle_on_random_graphs():
    connected = [graph for graph in random_graphs(seed=7, count=300) if is_connected(graph)]
    connected += blown_up_graphs(seed=7, count=100)
    assert len(connected) > 100
    for graph in connected:
        assert np.array_equal(graph.quotient.lift(mmd_graph(graph)), mmd_graph_loop(graph).adj)


@pytest.mark.parametrize("k,p", [(2, 3), (3, 3), (2, 5), (4, 5), (5, 5)])
def test_mmd_graph_matches_the_loop_oracle_on_the_family(family, k, p):
    _, graph, _ = family(k, p)
    assert np.array_equal(graph.quotient.lift(mmd_graph(graph)), mmd_graph_loop(graph).adj)


def test_mmd_family_structure(family):
    _, graph, classes = family(2, 3)
    gsr = lifted_mmd(graph)
    # e takes part in no mutually-maximally-distant pair
    assert not gsr.adj[classes.e].any()
    # clique on everything except e and u, plus the star from u to the pendants
    others = sorted(set(range(graph.n)) - {classes.e, classes.u})
    for a_pos, a in enumerate(others):
        for b in others[a_pos + 1 :]:
            assert gsr.adj[a, b]
    assert set(np.nonzero(gsr.adj[classes.u])[0].tolist()) == classes.h2
    assert edge_count(gsr) == graph.quotient.edge_count(mmd_graph(graph)) == 22 * 21 // 2 + 6


def test_mmd_invariant_under_relabeling(family):
    _, graph, _ = family(2, 3)
    rng = np.random.default_rng(5)
    perm = rng.permutation(graph.n)
    relabeled = from_edges(graph.n, [(int(perm[i]), int(perm[j])) for i, j in graph.edges()])
    gsr = lifted_mmd(graph)
    gsr_perm = lifted_mmd(relabeled)
    expected = {(min(perm[i], perm[j]), max(perm[i], perm[j])) for i, j in gsr.edges()}
    assert expected == set(gsr_perm.edges())


def test_vertex_cover_values(family):
    for n in range(2, 8):
        size, cover = min_vertex_cover(complete_graph(n))
        assert size == n - 1
    assert min_vertex_cover(star_graph(6))[0] == 1
    _, graph, _ = family(2, 3)
    assert min_vertex_cover(lifted_mmd(graph))[0] == 21
    assert strong_cover(graph.quotient, mmd_graph(graph))[0] == 21


def test_vertex_cover_witness_covers(family):
    _, graph, _ = family(2, 3)
    gsr = lifted_mmd(graph)
    _, cover = strong_cover(graph.quotient, mmd_graph(graph))
    chosen = set(cover)
    assert all(i in chosen or j in chosen for i, j in gsr.edges())


def test_strong_cover_matches_the_cover_of_the_loop_oracle():
    connected = [graph for graph in random_graphs(seed=7, count=300) if is_connected(graph)]
    connected += blown_up_graphs(seed=7, count=100)
    assert len(connected) > 100
    for graph in connected:
        oracle = mmd_graph_loop(graph)
        assert oracle.n <= SEARCH_CAP
        gsr = mmd_graph(graph)
        assert strong_cover(graph.quotient, gsr) == min_vertex_cover(oracle)
        assert graph.quotient.edge_count(gsr) == edge_count(oracle)


def test_max_independent_set_cap():
    with pytest.raises(MetricSearchError):
        max_independent_set(path_graph(65))


@pytest.mark.parametrize("k,p,expected", [(2, 3, 21), (2, 5, 37)])
def test_family_strong_metric_dimension(family, k, p, expected):
    _, graph, _ = family(k, p)
    assert strong_metric_dimension(graph) == expected


def test_strong_metric_dimension_small():
    for n in range(2, 7):
        assert strong_metric_dimension(path_graph(n)) == 1
        assert strong_metric_dimension(complete_graph(n)) == n - 1


def test_explicit_proof_witness_resolves(family):
    # the printed 17-element set: <r> minus {e, u, r^11}, the pendants minus s,
    # and one order-4 element per pair (odd exponents below 2^(k-1)p)
    _, graph, _ = family(2, 3)
    idx = {str(lbl): i for i, lbl in enumerate(graph.labels)}
    witness = (
        [idx[f"s^0 r^{i}"] for i in range(1, 11) if i != 6]
        + [idx[f"s^1 r^{i}"] for i in range(2, 11, 2)]
        + [idx[f"s^1 r^{i}"] for i in (1, 3, 5)]
    )
    assert len(witness) == 17
    assert resolve_check(graph, witness)


def test_twin_witness_matches_proof_shape(family):
    # all of <r> minus {e, u, one rotation}, all pendants minus one, one per pair
    _, graph, classes = family(2, 3)
    witness = set(twin_witness(graph))
    assert len(witness & classes.h1) == 9
    assert len(witness & classes.h2) == 5
    assert len(witness & classes.h3) == 3
    per_pair = [members for members, _ in twin_classes(graph) if len(members) == 2]
    for pair in per_pair:
        assert len(witness & set(pair)) == 1


def test_collapsed_cover_matches_the_plain_search_on_random_graphs():
    # closed twins are added on purpose, so the collapse has classes to merge
    rng = np.random.default_rng(11)
    for _ in range(300):
        base = int(rng.integers(1, 9))
        n = int(rng.integers(base, 13))
        adj = np.zeros((n, n), dtype=bool)
        prob = rng.uniform(0.1, 0.9)
        for i in range(base):
            for j in range(i + 1, base):
                adj[i, j] = adj[j, i] = rng.random() < prob
        for v in range(base, n):
            twin = int(rng.integers(0, v))
            adj[v, :v] = adj[:v, v] = adj[twin, :v]
            if rng.random() < 0.7:
                adj[v, twin] = adj[twin, v] = True
        g = Graph(adj)
        size, cover = min_vertex_cover(g)
        assert size == len(cover) == g.n - len(max_independent_set(g))
        rest = sorted(set(range(g.n)) - set(cover))
        assert not g.adj[np.ix_(rest, rest)].any()


@pytest.mark.parametrize("k,p", [(3, 5), (4, 5)])
def test_strong_metric_dimension_past_the_search_cap(family, k, p):
    params, graph, _ = family(k, p)
    assert graph.n > 64
    assert strong_metric_dimension(graph) == params.order - 3
