import numpy as np
import pytest

from oracles import (
    blown_up_graphs,
    complete_graph,
    cycle_graph,
    edge_count,
    exhaustive_metric_dimension,
    bfs_distance_matrix,
    from_edges,
    has_induced_p4,
    mmd_among,
    mmd_graph_loop,
    path_graph,
    random_cographs,
    random_graphs,
    resolve_check_unique,
    star_graph,
    strong_metric_dimension,
    vertex_cover,
    with_universal_vertex,
)
from powergraph.graphs import Graph, twin_classes
from powergraph.groups import GroupParams
from powergraph.matrices import NoUniversalVertexError
from powergraph.metric import (
    MetricSearchError,
    family_metric_dimension,
    family_strong_metric_dimension,
    metric_dimension,
    min_vertex_cover,
    mmd_graph,
    resolve_check,
    twin_witness,
)


def lifted_mmd(graph: Graph) -> Graph:
    """The strong resolving graph on the vertices, lifted from its class matrix."""
    return Graph(graph.quotient.lift(mmd_graph(graph)))


def test_resolve_check_path_end():
    assert resolve_check(path_graph(3), {0})  # the end of a path, whose middle is universal
    assert not resolve_check(path_graph(3), {1})
    assert not resolve_check(complete_graph(3), {0})
    with pytest.raises(NoUniversalVertexError):
        resolve_check(path_graph(4), {0})  # distances need a universal vertex


def test_full_vertex_set_always_resolves(family):
    _, graph, _ = family(2, 3)
    assert resolve_check(graph, set(range(graph.n)))
    for g in (with_universal_vertex(path_graph(5)), complete_graph(6), star_graph(4)):
        assert resolve_check(g, set(range(g.n)))


def test_resolve_check_matches_the_sorting_oracle_on_random_graphs():
    rng = np.random.default_rng(19)
    corpus = [with_universal_vertex(graph) for graph in random_graphs(seed=23, count=300)]
    # blown-up graphs have closed and open twin classes side by side
    corpus += [with_universal_vertex(graph) for graph in blown_up_graphs(seed=29, count=100)]
    verdicts = []
    for graph in corpus:
        for _ in range(5):
            size = int(rng.integers(0, graph.n + 1))
            subset = rng.choice(graph.n, size=size, replace=False).tolist()
            verdict = resolve_check(graph, subset)
            assert verdict == resolve_check_unique(graph, subset)
            verdicts.append(verdict)
    assert 100 < sum(verdicts) < len(verdicts) - 100


def test_twin_lower_bound_values(family):
    _, graph, _ = family(2, 3)
    # the twin witness keeps all but one vertex of each twin class: the twin lower bound
    assert len(twin_witness(graph)) == (10 - 1) + (6 - 1) + 3 * (2 - 1) == 17
    assert len(twin_witness(complete_graph(5))) == 4
    assert len(twin_witness(path_graph(4))) == 0


def test_family_witness_resolves(family):
    _, graph, _ = family(2, 3)
    witness = twin_witness(graph)
    assert len(witness) == 17
    assert resolve_check(graph, witness)
    # no 16-element set can resolve: the twin bound already exceeds it
    assert sum(size - 1 for size in graph.quotient.sizes) > 16


@pytest.mark.parametrize("k,p,expected", [(2, 3, 17), (2, 5, 31), (3, 3, 38)])
def test_family_metric_dimension(family, k, p, expected):
    _, graph, _ = family(k, p)
    witness = metric_dimension(graph)
    assert resolve_check(graph, witness)
    assert len(witness) == expected == sum(size - 1 for size in graph.quotient.sizes)


def test_metric_dimension_corpus():
    # the exhaustive oracle; the twin witness certifies the complete graphs and stars alike
    for n in range(2, 9):
        assert exhaustive_metric_dimension(path_graph(n)) == 1
    for n in range(4, 9):
        assert exhaustive_metric_dimension(cycle_graph(n)) == 2
    for n in range(2, 9):
        g = complete_graph(n)
        assert exhaustive_metric_dimension(g) == len(metric_dimension(g)) == n - 1
    for leaves in range(2, 8):
        g = star_graph(leaves)
        assert exhaustive_metric_dimension(g) == len(metric_dimension(g)) == leaves - 1


def test_twin_bound_is_lower_bound_on_corpus():
    for g in [path_graph(6), cycle_graph(7), complete_graph(6), star_graph(5)]:
        assert len(twin_witness(g)) <= exhaustive_metric_dimension(g)


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
    corpus = [with_universal_vertex(graph) for graph in random_graphs(seed=7, count=300)]
    corpus += [with_universal_vertex(graph) for graph in blown_up_graphs(seed=7, count=100)]
    for graph in corpus:
        assert np.array_equal(graph.quotient.lift(mmd_graph(graph)), mmd_graph_loop(graph).adj)


@pytest.mark.parametrize("k,p", [(2, 3), (3, 3), (2, 5), (4, 5), (5, 5)])
def test_mmd_graph_matches_the_loop_oracle_on_the_family(family, k, p):
    _, graph, _ = family(k, p)
    assert np.array_equal(graph.quotient.lift(mmd_graph(graph)), mmd_graph_loop(graph).adj)


@pytest.mark.parametrize("k,p", [(5, 5), (7, 7), (9, 7)])
def test_distances_and_mmd_graph_match_the_oracles_on_two_members_of_each_class(family, k, p):
    # the oracles' rows from the first and last member of every class cover every class pair,
    # inside a class too, without an n x n matrix (n = 7200 at (9, 7))
    _, graph, _ = family(k, p)
    quotient = graph.quotient
    sources = sorted({v for members in quotient.members for v in (members[0], members[-1])})
    classes = quotient.class_of[sources]
    rows = bfs_distance_matrix(graph, sources)
    dist = quotient.dist[classes][:, quotient.class_of]
    dist[np.arange(len(sources)), sources] = 0
    assert np.array_equal(rows, dist)
    gsr = mmd_graph(graph)[np.ix_(classes, classes)]
    np.fill_diagonal(gsr, True)
    assert np.array_equal(mmd_among(graph, sources), gsr)


def test_mmd_graph_and_the_cover_refuse_a_graph_without_a_universal_vertex():
    for graph in (path_graph(4), cycle_graph(5), from_edges(4, [(0, 1), (2, 3)])):
        with pytest.raises(NoUniversalVertexError):
            mmd_graph(graph)
        with pytest.raises(NoUniversalVertexError):
            min_vertex_cover(graph)


def test_the_cover_refuses_a_non_cograph():
    graph = with_universal_vertex(path_graph(4))  # diameter two, an induced P4
    assert mmd_graph(graph).any()
    with pytest.raises(MetricSearchError, match="not a cograph"):
        min_vertex_cover(graph)


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
    # the six leaves are open twins, a clique of G_SR; one of them and the centre are left out
    assert min_vertex_cover(star_graph(6)) == (5, (2, 3, 4, 5, 6))
    _, graph, _ = family(2, 3)
    assert vertex_cover(lifted_mmd(graph))[0] == 21
    assert min_vertex_cover(graph)[0] == 21


def test_vertex_cover_witness_covers(family):
    _, graph, _ = family(2, 3)
    gsr = lifted_mmd(graph)
    _, cover = min_vertex_cover(graph)
    chosen = set(cover)
    assert all(i in chosen or j in chosen for i, j in gsr.edges())


def test_min_vertex_cover_matches_the_cover_of_the_loop_oracle():
    # random graphs with a universal vertex: a cograph's cover is as small as the branch and
    # bound's on the loop oracle's G_SR; any other graph is refused
    corpus = [with_universal_vertex(graph) for graph in random_graphs(seed=7, count=300, max_n=12)]
    corpus += [with_universal_vertex(graph) for graph in blown_up_graphs(seed=7, count=100)]
    cographs = 0
    for graph in corpus:
        oracle = mmd_graph_loop(graph)
        assert graph.quotient.edge_count(mmd_graph(graph)) == edge_count(oracle)
        if has_induced_p4(graph):
            with pytest.raises(MetricSearchError, match="not a cograph"):
                min_vertex_cover(graph)
            continue
        cographs += 1
        assert min_vertex_cover(graph)[0] == vertex_cover(oracle)[0]
    assert 100 < cographs < len(corpus) - 20  # both kinds


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
    # one vertex per class of a largest clique is kept: the plain branch and bound on the
    # loop oracle's G_SR leaves as many out, on 400 connected cographs with a universal vertex
    corpus = [
        with_universal_vertex(graph)
        for seed in range(40)
        for graph in random_cographs(seed, count=10, min_n=2, max_n=14)
    ]
    assert len(corpus) == 400
    for graph in corpus:
        oracle = mmd_graph_loop(graph)
        size, cover = min_vertex_cover(graph)
        assert size == len(cover) == strong_metric_dimension(graph) == vertex_cover(oracle)[0]
        rest = sorted(set(range(graph.n)) - set(cover))
        assert not oracle.adj[np.ix_(rest, rest)].any()


@pytest.mark.parametrize("k,p", [(3, 5), (4, 5)])
def test_strong_metric_dimension_past_the_search_cap(family, k, p):
    # n = 80 and 160: the oracle's branch and bound on the n-vertex G_SR, no twin collapse
    params, graph, _ = family(k, p)
    assert graph.n > 64
    assert strong_metric_dimension(graph) == min_vertex_cover(graph)[0] == params.order - 3


@pytest.mark.parametrize("k,p", [(2, 3), (2, 5), (3, 3), (7, 31)])
def test_family_predictions_are_the_papers_formulas(k, p):
    params = GroupParams(k, p)
    assert family_metric_dimension(params) == 7 * 2 ** (k - 2) * p - 4
    assert family_strong_metric_dimension(params) == 2 ** (k + 1) * p - 3
