import numpy as np
import pytest

from oracles import (
    blown_up_graphs,
    complete_graph,
    dds_rows_bincount,
    is_connected,
    path_graph,
    random_graphs,
    vertex_rows,
)
from powergraph.detour import detour_matrix
from powergraph.matrices import distance_matrix
from powergraph.sequences import (
    DegreeSequenceTable,
    compare_groupings,
    dds,
    detour_profile,
    family_dds_detour_groups,
    family_dds_detour_rows,
    family_dds_groups,
    family_dds_rows,
    family_detour_eccentricities,
)


def test_eccentricities_family(family):
    _, graph, classes = family(2, 3)
    ecc, radius, diameter = detour_profile(distance_matrix(graph))  # any distance matrix
    assert ecc[classes.e] == 1
    assert all(ecc[v] == 2 for v in range(graph.n) if v != classes.e)
    assert (radius, diameter) == (1, 2)


def test_eccentricities_small():
    ecc, radius, diameter = detour_profile(distance_matrix(complete_graph(4)))
    assert set(ecc) == {1}
    ecc, radius, diameter = detour_profile(distance_matrix(path_graph(3)))
    assert (radius, diameter) == (1, 2)


def test_detour_profile_family(family):
    params, graph, classes = family(2, 3)
    ecc, radius, diameter = detour_profile(detour_matrix(graph))
    ecc = ecc[graph.quotient.class_of]  # class rows to vertices
    predicted = family_detour_eccentricities(params)
    assert (radius, diameter) == (13, 15) == (predicted["radius"], predicted["diameter"])
    assert ecc[classes.e] == ecc[classes.u] == 13
    assert all(ecc[v] == 15 for v in classes.h1)
    assert all(ecc[v] == 14 for v in classes.h2)
    assert all(ecc[v] == 15 for v in classes.h3)


def test_detour_profile_small():
    ecc, _, _ = detour_profile(detour_matrix(complete_graph(4)))
    assert set(ecc) == {3}
    path = path_graph(3)
    assert np.array_equal(path.quotient.lift(detour_matrix(path)), distance_matrix(path))


def test_dds_rows_family(family):
    params, graph, classes = family(2, 3)
    got = vertex_rows(dds(graph))
    rows = family_dds_rows(params)
    assert got[classes.e] == (1, 23) == rows["e"]
    assert got[classes.u] == (1, 17, 6) == rows["u"]
    assert all(got[v] == (1, 11, 12) == rows["h1"] for v in classes.h1)
    # shapes the printed multiset does not list
    assert all(got[v] == (1, 1, 22) for v in classes.h2)
    assert all(got[v] == (1, 3, 20) for v in classes.h3)


def test_dds_row_invariants(family):
    _, graph, _ = family(2, 3)
    for v, row in enumerate(vertex_rows(dds(graph))):
        assert sum(row) == graph.n
        assert row[0] == 1
        assert row[1] == graph.degrees()[v]


def test_dds_multiset_discrepancy_reported(family):
    params, graph, _ = family(2, 3)
    table = dds(graph)
    comparison = compare_groupings(table.groups, family_dds_groups(params))
    assert not comparison["matches"]
    assert comparison["only_computed"] == [[[1, 1, 22], 6], [[1, 3, 20], 6]]


def test_dds_detour_rows_family(family):
    params, graph, classes = family(2, 3)
    got = vertex_rows(DegreeSequenceTable.from_classes(graph.quotient, detour_matrix(graph)))
    rows = family_dds_detour_rows(params)
    assert got[classes.e] == rows["e"] == (1, 6) + (0,) * 9 + (1, 0, 16)
    assert got[classes.u] == rows["u"]
    assert all(got[v] == rows["h1"] == (1,) + (0,) * 12 + (11, 6, 6) for v in classes.h1)
    assert all(got[v] == rows["h2"] for v in classes.h2)
    assert all(got[v] == rows["h3"] == (1,) + (0,) * 12 + (3, 6, 14) for v in classes.h3)


def test_dds_detour_grouping_matches(family):
    params, graph, _ = family(2, 3)
    table = DegreeSequenceTable.from_classes(graph.quotient, detour_matrix(graph))
    comparison = compare_groupings(table.groups, family_dds_detour_groups(params))
    assert comparison["matches"]


def test_dds_detour_last_nonzero_is_eccentricity(family):
    _, graph, _ = family(2, 3)
    detour = detour_matrix(graph)
    table = DegreeSequenceTable.from_classes(graph.quotient, detour)
    ecc, _, _ = detour_profile(detour)
    for v, row in enumerate(vertex_rows(table)):
        last = max(i for i, x in enumerate(row) if x)
        assert last == ecc[graph.quotient.class_of[v]]


def test_twins_share_sequences(family):
    _, graph, classes = family(2, 3)
    table = vertex_rows(dds(graph))
    dtable = vertex_rows(DegreeSequenceTable.from_classes(graph.quotient, detour_matrix(graph)))
    for group in (classes.h1, classes.h2, classes.h3):
        rows = {table[v] for v in group}
        drows = {dtable[v] for v in group}
        assert len(rows) == 1
        # order-4 elements split into pairs but share one detour shape
        assert len(drows) == 1


def test_radius_diameter_metric_bound(family):
    _, graph, _ = family(2, 3)
    _, radius, diameter = detour_profile(graph.quotient.dist)
    assert radius <= diameter <= 2 * radius


def test_text_and_csv_renderings(family):
    _, graph, _ = family(2, 3)
    table = dds(graph)
    assert table.to_csv().count("\n") == len(graph.quotient.sizes)  # one line per class
    assert "x (1, 11, 12)" in table.to_text()


def test_dds_matches_the_bincount_oracle_on_the_random_corpora():
    graphs = [g for g in random_graphs(seed=31, count=300) if is_connected(g)]
    graphs += list(blown_up_graphs(seed=37, count=100))
    assert len(graphs) > 200
    for graph in graphs:
        assert vertex_rows(dds(graph)) == dds_rows_bincount(graph), graph.edges()


@pytest.mark.parametrize("kp", [(2, 3), (3, 3), (2, 5), (3, 5), (4, 5), (5, 5)])
def test_dds_matches_the_bincount_oracle_on_the_family(family, kp):
    _, graph, _ = family(*kp)
    assert vertex_rows(dds(graph)) == dds_rows_bincount(graph)
