import numpy as np

from powergraph.detour import detour_matrix
from powergraph.graphs import complete_graph, path_graph
from powergraph.matrices import distance_matrix
from powergraph.sequences import (
    compare_groupings,
    dds,
    dds_detour,
    detour_profile,
    eccentricity_profile,
    family_dds_detour_groups,
    family_dds_detour_rows,
    family_dds_groups,
    family_dds_rows,
    family_detour_eccentricities,
)


def test_eccentricities_family(family):
    _, graph, classes = family(2, 3)
    ecc, radius, diameter = eccentricity_profile(graph)
    assert ecc[classes.e] == 1
    assert all(ecc[v] == 2 for v in range(graph.n) if v != classes.e)
    assert (radius, diameter) == (1, 2)


def test_eccentricities_small():
    ecc, radius, diameter = eccentricity_profile(complete_graph(4))
    assert set(ecc) == {1}
    ecc, radius, diameter = eccentricity_profile(path_graph(3))
    assert (radius, diameter) == (1, 2)


def test_detour_profile_family(family):
    params, graph, classes = family(2, 3)
    ecc, radius, diameter = detour_profile(detour_matrix(graph))
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
    assert np.array_equal(detour_matrix(path), distance_matrix(path))


def test_dds_rows_family(family):
    params, graph, classes = family(2, 3)
    table = dds(graph)
    rows = family_dds_rows(params)
    assert table.rows[classes.e] == (1, 23) == rows["e"]
    assert table.rows[classes.u] == (1, 17, 6) == rows["u"]
    assert all(table.rows[v] == (1, 11, 12) == rows["h1"] for v in classes.h1)
    # shapes the printed multiset does not list
    assert all(table.rows[v] == (1, 1, 22) for v in classes.h2)
    assert all(table.rows[v] == (1, 3, 20) for v in classes.h3)


def test_dds_row_invariants(family):
    _, graph, _ = family(2, 3)
    table = dds(graph)
    for v, row in enumerate(table.rows):
        assert sum(row) == graph.n
        assert row[0] == 1
        assert row[1] == graph.degree(v)


def test_dds_multiset_discrepancy_reported(family):
    params, graph, _ = family(2, 3)
    table = dds(graph)
    comparison = compare_groupings(table.groups, family_dds_groups(params))
    assert not comparison["matches"]
    assert comparison["only_computed"] == [[[1, 1, 22], 6], [[1, 3, 20], 6]]


def test_dds_detour_rows_family(family):
    params, graph, classes = family(2, 3)
    table = dds_detour(detour_matrix(graph))
    rows = family_dds_detour_rows(params)
    assert table.rows[classes.e] == rows["e"] == (1, 6) + (0,) * 9 + (1, 0, 16)
    assert table.rows[classes.u] == rows["u"]
    assert all(table.rows[v] == rows["h1"] == (1,) + (0,) * 12 + (11, 6, 6) for v in classes.h1)
    assert all(table.rows[v] == rows["h2"] for v in classes.h2)
    assert all(table.rows[v] == rows["h3"] == (1,) + (0,) * 12 + (3, 6, 14) for v in classes.h3)


def test_dds_detour_grouping_matches(family):
    params, graph, _ = family(2, 3)
    table = dds_detour(detour_matrix(graph))
    comparison = compare_groupings(table.groups, family_dds_detour_groups(params))
    assert comparison["matches"]


def test_dds_detour_last_nonzero_is_eccentricity(family):
    _, graph, _ = family(2, 3)
    detour = detour_matrix(graph)
    table = dds_detour(detour)
    ecc, _, _ = detour_profile(detour)
    for v, row in enumerate(table.rows):
        last = max(i for i, x in enumerate(row) if x)
        assert last == ecc[v]


def test_twins_share_sequences(family):
    _, graph, classes = family(2, 3)
    table = dds(graph)
    dtable = dds_detour(detour_matrix(graph))
    for group in (classes.h1, classes.h2, classes.h3):
        rows = {table.rows[v] for v in group}
        drows = {dtable.rows[v] for v in group}
        assert len(rows) == 1
        # order-4 elements split into pairs but share one detour shape
        assert len(drows) == 1


def test_radius_diameter_metric_bound(family):
    _, graph, _ = family(2, 3)
    _, radius, diameter = eccentricity_profile(graph)
    assert radius <= diameter <= 2 * radius


def test_text_and_csv_renderings(family):
    _, graph, _ = family(2, 3)
    table = dds(graph)
    assert table.to_csv().count("\n") == graph.n
    assert "x (1, 11, 12)" in table.to_text()
