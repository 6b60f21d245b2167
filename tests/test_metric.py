import numpy as np
import pytest

from powergraph.graphs import (
    Graph,
    TwinQuotient,
    complete_graph,
    cycle_graph,
    path_graph,
    star_graph,
    twin_classes,
)
from powergraph.matrices import distance_matrix
from powergraph.metric import (
    MetricSearchError,
    max_independent_set,
    metric_dimension,
    min_vertex_cover,
    mmd_graph,
    resolve_check,
    strong_metric_dimension,
    twin_lower_bound,
    twin_witness,
)


def test_resolve_check_path_end():
    assert resolve_check(path_graph(4), {0})
    assert not resolve_check(cycle_graph(5), {0})


def test_full_vertex_set_always_resolves(family):
    _, graph, _ = family(2, 3)
    assert resolve_check(graph, set(range(graph.n)))
    for g in (path_graph(5), cycle_graph(6), star_graph(4)):
        assert resolve_check(g, set(range(g.n)))


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
    for n in range(2, 9):
        assert metric_dimension(path_graph(n)).psi == 1
    for n in range(4, 9):
        assert metric_dimension(cycle_graph(n)).psi == 2
    for n in range(2, 9):
        assert metric_dimension(complete_graph(n)).psi == n - 1
    for leaves in range(2, 8):
        assert metric_dimension(star_graph(leaves)).psi == leaves - 1


def test_twin_bound_is_lower_bound_on_corpus():
    for g in [path_graph(6), cycle_graph(7), complete_graph(6), star_graph(5)]:
        report = metric_dimension(g)
        assert twin_lower_bound(g) <= report.psi


def test_metric_dimension_refuses_large_uncertified():
    with pytest.raises(MetricSearchError):
        metric_dimension(cycle_graph(13))


def test_mmd_complete():
    g = complete_graph(5)
    assert np.array_equal(mmd_graph(g).adj, g.adj)


def test_mmd_path():
    gsr = mmd_graph(path_graph(3))
    assert gsr.edges() == [(0, 2)]


def test_mmd_family_structure(family):
    _, graph, classes = family(2, 3)
    gsr = mmd_graph(graph)
    # e takes part in no mutually-maximally-distant pair
    assert gsr.degree(classes.e) == 0
    # clique on everything except e and u, plus the star from u to the pendants
    others = sorted(set(range(graph.n)) - {classes.e, classes.u})
    for a_pos, a in enumerate(others):
        for b in others[a_pos + 1 :]:
            assert gsr.has_edge(a, b)
    assert set(gsr.neighbors(classes.u)) == classes.h2
    assert gsr.edge_count() == 22 * 21 // 2 + 6


def test_mmd_invariant_under_relabeling(family):
    _, graph, _ = family(2, 3)
    rng = np.random.default_rng(5)
    perm = rng.permutation(graph.n)
    relabeled = Graph(graph.n)
    for i, j in graph.edges():
        relabeled.add_edge(int(perm[i]), int(perm[j]))
    gsr = mmd_graph(graph)
    gsr_perm = mmd_graph(relabeled)
    expected = {(min(perm[i], perm[j]), max(perm[i], perm[j])) for i, j in gsr.edges()}
    assert expected == set(gsr_perm.edges())


def test_vertex_cover_values(family):
    for n in range(2, 8):
        size, cover = min_vertex_cover(complete_graph(n))
        assert size == n - 1
    assert min_vertex_cover(star_graph(6))[0] == 1
    _, graph, _ = family(2, 3)
    assert min_vertex_cover(mmd_graph(graph))[0] == 21


def test_vertex_cover_witness_covers(family):
    _, graph, _ = family(2, 3)
    gsr = mmd_graph(graph)
    _, cover = min_vertex_cover(gsr)
    chosen = set(cover)
    assert all(i in chosen or j in chosen for i, j in gsr.edges())


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
    per_pair = [cls for cls in twin_classes(graph) if cls.size == 2]
    for pair in per_pair:
        assert len(witness & pair.vertices) == 1


def test_shared_distances_and_quotient_give_the_same_answers(family):
    _, graph, _ = family(2, 3)
    dist = distance_matrix(graph)
    quotient = TwinQuotient(graph)
    assert metric_dimension(graph, dist=dist, quotient=quotient) == metric_dimension(graph)
    assert np.array_equal(mmd_graph(graph, dist).adj, mmd_graph(graph).adj)
    assert twin_lower_bound(graph, quotient) == twin_lower_bound(graph)
    assert twin_witness(graph, quotient) == twin_witness(graph)
