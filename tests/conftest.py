import pytest

from oracles import classify_partition
from powergraph.graphs import build_power_graph
from powergraph.groups import GroupParams

_cache = {}


@pytest.fixture(scope="session")
def family():
    """Cached (params, graph, classes) per (k, p); graphs are immutable after build."""

    def get(k, p):
        if (k, p) not in _cache:
            params = GroupParams(k, p)
            graph = build_power_graph(params)
            _cache[(k, p)] = (params, graph, classify_partition(graph, params))
        return _cache[(k, p)]

    return get
