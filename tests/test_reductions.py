import pytest

from exactmatching import (
    BLUE,
    RED,
    ColoredGraph,
    GraphError,
    OracleLimitError,
    PerfectMatching,
    em_decide_bruteforce,
    lift_to_dense,
    lift_to_dense_bipartite,
    random_bipartite_colored_graph,
    random_colored_graph,
)
from exactmatching.reductions import distance_d_independence_number, pullback_matching


class TestGeneralLift:
    def test_shape(self, c4):
        lifted = lift_to_dense(c4)
        assert lifted.n == 6
        assert lifted.m == c4.m + 5
        assert all(lifted.color((x, 4)) == BLUE for x in range(4))
        assert lifted.color((4, 5)) == BLUE
        assert not lifted.has_edge(0, 5)

    def test_red_counts_preserved(self):
        for seed in range(30):
            g = random_colored_graph(6, 0.5, seed)
            lifted = lift_to_dense(g)
            for k in range(4):
                before = em_decide_bruteforce(g, k)
                after = em_decide_bruteforce(lifted, k)
                assert (before is None) == (after is None)
                if after is not None:
                    assert pullback_matching(g, after).red_count == k

    def test_distance3_collapse(self):
        for seed in range(10):
            g = random_colored_graph(8, 0.4, seed)
            assert distance_d_independence_number(lift_to_dense(g), 3) == 1

    def test_pullback_round_trip(self, c4):
        lifted = lift_to_dense(c4)
        pm = PerfectMatching.from_edges(lifted, [(0, 1), (2, 3), (4, 5)])
        back = pullback_matching(c4, pm)
        assert back.sorted_edges() == [(0, 1), (2, 3)]
        assert back.red_count == pm.red_count == 2

    def test_pullback_rejects_missing_forced_edge(self, c4):
        # not buildable via from_edges: the pendant forces (4, 5) in any
        # real matching, so fabricate the dataclass directly
        pm = PerfectMatching(frozenset({(0, 4), (1, 2), (3, 5)}), 0)
        with pytest.raises(GraphError):
            pullback_matching(c4, pm)

    def test_pullback_rejects_wrong_size(self, c4):
        pm = PerfectMatching.from_edges(c4, [(0, 1), (2, 3)])
        with pytest.raises(GraphError):
            pullback_matching(c4, pm)


class TestBipartiteLift:
    def test_shape(self, k33):
        lifted = lift_to_dense_bipartite(k33)
        assert lifted.n == 10
        # hub 6 on side A sees side B and pendant 9; hub 8 sees side A and 7
        assert {6, 7} <= lifted.bipartition[0]
        assert {8, 9} <= lifted.bipartition[1]
        assert all(lifted.has_edge(6, b) for b in (3, 4, 5, 9))
        assert all(lifted.has_edge(a, 8) for a in (0, 1, 2, 7))
        assert not lifted.has_edge(6, 8)
        assert not lifted.has_edge(7, 9)

    def test_requires_bipartition(self, c4):
        with pytest.raises(GraphError):
            lift_to_dense_bipartite(c4)

    def test_red_counts_preserved(self):
        for seed in range(30):
            g = random_bipartite_colored_graph(6, 0.6, seed)
            lifted = lift_to_dense_bipartite(g)
            for k in range(4):
                before = em_decide_bruteforce(g, k)
                after = em_decide_bruteforce(lifted, k)
                assert (before is None) == (after is None)
                if after is not None:
                    assert pullback_matching(g, after).red_count == k

    def test_distance3_collapse_to_two(self):
        for seed in range(10):
            g = random_bipartite_colored_graph(8, 0.5, seed)
            lifted = lift_to_dense_bipartite(g)
            assert distance_d_independence_number(lifted, 3) == 2

    def test_pullback_round_trip(self, k33):
        lifted = lift_to_dense_bipartite(k33)
        pm = PerfectMatching.from_edges(
            lifted, [(0, 3), (1, 4), (2, 5), (6, 9), (7, 8)])
        back = pullback_matching(k33, pm)
        assert back.sorted_edges() == [(0, 3), (1, 4), (2, 5)]


class TestDistanceIndependence:
    def test_matches_plain_independence_at_d2(self):
        from exactmatching import independence_number
        for seed in range(10):
            g = random_colored_graph(10, 0.4, seed)
            assert (distance_d_independence_number(g, 2)
                    == independence_number(g))

    def test_every_set_qualifies_at_d1(self):
        g = random_colored_graph(10, 0.4, 0)
        assert distance_d_independence_number(g, 1) == 10

    def test_path_graph(self):
        # path 0-1-2-3-4-5: {0, 3} is pairwise at distance 3,
        # {0, 5} at distance 5, and no pair reaches distance 6.
        g = ColoredGraph.from_edges(
            6, [(i, i + 1, RED) for i in range(5)])
        assert distance_d_independence_number(g, 2) == 3
        assert distance_d_independence_number(g, 3) == 2
        assert distance_d_independence_number(g, 5) == 2
        assert distance_d_independence_number(g, 6) == 1

    def test_rejects_bad_distance(self, c4):
        with pytest.raises(ValueError):
            distance_d_independence_number(c4, 0)

    def test_cap_enforced(self):
        g = ColoredGraph.from_edges(44, [])
        with pytest.raises(OracleLimitError):
            distance_d_independence_number(g, 3)
