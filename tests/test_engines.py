import itertools

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from exactmatching import (
    BLUE,
    RED,
    ColoredGraph,
    GraphError,
    enumerate_perfect_matchings,
    max_weight_perfect_matching,
    random_colored_graph,
)
from exactmatching.engines import (
    max_red_pm,
    min_red_pm,
    perfect_matching_on,
    perfect_matching_on_adjacency,
)


def test_min_and_max_red(c4):
    assert min_red_pm(c4).red_count == 0
    assert max_red_pm(c4).red_count == 2


def test_all_red_graph(k4_red):
    assert min_red_pm(k4_red).red_count == 2
    assert max_red_pm(k4_red).red_count == 2


def test_odd_vertex_count_has_no_pm():
    g = ColoredGraph.from_edges(3, [(0, 1, RED), (1, 2, BLUE)])
    assert min_red_pm(g) is None


def test_empty_graph_has_empty_pm():
    g = ColoredGraph.from_edges(0, [])
    pm = min_red_pm(g)
    assert pm is not None and len(pm) == 0


def test_no_pm_returns_none():
    g = ColoredGraph.from_edges(4, [(0, 1, RED), (0, 2, RED), (0, 3, RED)])
    assert min_red_pm(g) is None
    assert max_red_pm(g) is None


def test_missing_weight_rejected(c4):
    with pytest.raises(GraphError):
        max_weight_perfect_matching(c4, {(0, 1): 1})


def test_max_weight_against_enumeration():
    for seed in range(40):
        g = random_colored_graph(8, 0.6, seed)
        weights = {e: ((e[0] * 7 + e[1] * 13 + seed) % 5) - 2 for e in g.edges()}
        best = max_weight_perfect_matching(g, weights)
        pms = list(enumerate_perfect_matchings(g))
        if not pms:
            assert best is None
            continue
        optimum = max(sum(weights[e] for e in pm.edges) for pm in pms)
        assert sum(weights[e] for e in best.edges) == optimum


def test_perfect_matching_on_small():
    assert perfect_matching_on([0, 1], [(0, 1)]) == ((0, 1),)
    assert perfect_matching_on([0, 1, 2], [(0, 1), (1, 2)]) is None
    assert perfect_matching_on([], []) == ()
    assert perfect_matching_on([0, 1, 2, 3], [(0, 1)]) is None


def test_perfect_matching_on_long_path():
    # One search frame per matched pair, far past the recursion limit.
    edges = [(i, i + 1) for i in range(2399)]
    assert perfect_matching_on(range(2400), edges) == tuple(edges[::2])


def test_perfect_matching_on_ignores_outside_edges():
    got = perfect_matching_on([0, 1], [(0, 1), (2, 3), (0, 9)])
    assert got == ((0, 1),)


@settings(max_examples=60, deadline=None)
@given(seed=st.integers(0, 10_000), n=st.sampled_from([4, 6, 8, 10]),
       drop=st.integers(0, 3))
def test_adjacency_variant_matches_edge_variant(seed, n, drop):
    """Both entry points return the identical matching on every remainder."""
    g = random_colored_graph(n, 0.6, seed)
    adj = g.adjacency()
    verts = [v for v in range(n) if v >= drop]
    edges = g.edges()
    assert (perfect_matching_on(verts, edges)
            == perfect_matching_on_adjacency(adj, verts))


def test_adjacency_variant_validity():
    g = random_colored_graph(12, 0.5, 99)
    adj = g.adjacency()
    for combo in itertools.combinations(range(12), 4):
        verts = [v for v in range(12) if v not in combo]
        got = perfect_matching_on_adjacency(adj, verts)
        if got is None:
            continue
        used = [v for e in got for v in e]
        assert sorted(used) == verts
        assert all(g.has_edge(*e) for e in got)
