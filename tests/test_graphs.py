import itertools
import re

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from exactmatching import (
    BLUE,
    RED,
    AlternatingCycle,
    ColoredGraph,
    CycleSet,
    GraphError,
    PerfectMatching,
    apply_cycles,
    edge_key,
    edge_weight,
    enumerate_perfect_matchings,
    random_bipartite_colored_graph,
    random_colored_graph,
    symmetric_difference,
    validate_matching,
)


def test_edge_key_orders_endpoints():
    assert edge_key(3, 1) == (1, 3)
    assert edge_key(1, 3) == (1, 3)


def test_edge_key_rejects_loops():
    with pytest.raises(GraphError):
        edge_key(2, 2)


class TestColoredGraph:
    def test_basic_queries(self, c4):
        assert c4.n == 4
        assert c4.m == 4
        assert c4.has_edge(1, 0)
        assert not c4.has_edge(0, 2)
        assert not c4.has_edge(0, 0)
        assert c4.color((0, 1)) == RED
        assert c4.colors[(0, 1)] == RED
        assert c4.edges() == sorted(c4.edges())

    def test_unknown_edge_color_raises(self, c4):
        with pytest.raises(GraphError):
            c4.color((0, 2))

    def test_negative_vertex_count_rejected(self):
        with pytest.raises(GraphError, match="vertex count must be >= 0, got -1"):
            ColoredGraph(-1, {})

    def test_duplicate_edge_rejected(self):
        with pytest.raises(GraphError):
            ColoredGraph.from_edges(3, [(0, 1, RED), (1, 0, BLUE)])

    def test_bad_color_rejected(self):
        with pytest.raises(GraphError):
            ColoredGraph.from_edges(2, [(0, 1, "green")])

    def test_out_of_range_vertex_rejected(self):
        with pytest.raises(GraphError):
            ColoredGraph.from_edges(2, [(0, 5, RED)])

    def test_bipartition_must_cover_exactly(self):
        with pytest.raises(GraphError):
            ColoredGraph.from_edges(
                4, [(0, 2, RED)], bipartition=([0, 1], [2]))
        with pytest.raises(GraphError):
            ColoredGraph.from_edges(
                4, [(0, 2, RED)], bipartition=([0, 1, 2], [2, 3]))

    def test_edge_inside_one_side_rejected(self):
        with pytest.raises(GraphError):
            ColoredGraph.from_edges(
                4, [(0, 1, RED)], bipartition=([0, 1], [2, 3]))

    def test_side_of(self, k33):
        assert 0 in k33.bipartition[0]
        assert 5 in k33.bipartition[1]

    def test_adjacency_sorted(self, k33):
        index = k33.neighbor_index
        assert list(index[0]) == [3, 4, 5]
        assert list(index[4]) == [0, 1, 2]

    @pytest.mark.parametrize("bipartite", [False, True])
    def test_neighbor_index(self, bipartite):
        """Both directions of every edge, nothing else, flagged red, ascending."""
        make = random_bipartite_colored_graph if bipartite else random_colored_graph
        for seed in range(40):
            n = 2 * (seed % 11)
            g = make(n, (0.1, 0.4, 0.8)[seed % 3], seed)
            index = g.neighbor_index
            assert len(index) == n
            flags = {(u, w): red for u, nbrs in enumerate(index) for w, red in nbrs.items()}
            want = {}
            for (u, v), c in g.colors.items():
                want[u, v] = want[v, u] = int(c == RED)
            assert flags == want
            assert all(type(red) is int for red in flags.values())
            assert all(list(nbrs) == sorted(nbrs) for nbrs in index)
            assert g.neighbor_index is index


class TestPerfectMatching:
    def test_from_edges(self, c4):
        pm = PerfectMatching.from_edges(c4, [(0, 1), (2, 3)])
        assert pm.red_count == 2
        assert pm.sorted_edges() == [(0, 1), (2, 3)]
        assert (0, 1) in pm
        assert (1, 2) not in pm
        assert len(pm) == 2
        assert {w for e in pm.edges for w in e} == {0, 1, 2, 3}

    def test_rejects_nonperfect(self, c4):
        with pytest.raises(GraphError):
            PerfectMatching.from_edges(c4, [(0, 1)])

    def test_rejects_nonedges(self, c4):
        with pytest.raises(GraphError):
            PerfectMatching.from_edges(c4, [(0, 2), (1, 3)])

    def test_rejects_shared_vertex(self, k4_red):
        with pytest.raises(GraphError):
            PerfectMatching.from_edges(k4_red, [(0, 1), (1, 2)])

    def test_rejects_repeated_edge(self, c4):
        with pytest.raises(GraphError, match=re.escape("edge (0, 1) is listed twice")):
            PerfectMatching.from_edges(c4, [(0, 1), (1, 0), (2, 3)])


def test_validate_matching_is_total(c4):
    assert validate_matching(c4, [(0, 1), (2, 3)])
    assert not validate_matching(c4, [(0, 1)])
    assert not validate_matching(c4, [(0, 2), (1, 3)])
    assert not validate_matching(c4, [(0, 1), (1, 2)])
    assert not validate_matching(c4, [(0, 0), (2, 3)])


def test_edge_weight_scheme(c4):
    pm = PerfectMatching.from_edges(c4, [(0, 1), (2, 3)])
    assert edge_weight(c4, pm, (0, 1)) == -1
    assert edge_weight(c4, pm, (1, 2)) == 0
    other = PerfectMatching.from_edges(c4, [(1, 2), (0, 3)])
    assert edge_weight(c4, other, (0, 1)) == 1


class TestAlternatingCycle:
    def test_rotation_invariance(self, k4_red):
        pm = PerfectMatching.from_edges(k4_red, [(0, 1), (2, 3)])
        base = [0, 1, 2, 3]
        cycles = []
        for shift in range(4):
            rotated = base[shift:] + base[:shift]
            cycles.append(AlternatingCycle.from_vertices(k4_red, pm, rotated))
            cycles.append(
                AlternatingCycle.from_vertices(k4_red, pm, rotated[::-1]))
        assert len({c.vertices for c in cycles}) == 1
        assert cycles[0].weight == 0

    def test_rejects_nonalternating(self, k4_red):
        pm = PerfectMatching.from_edges(k4_red, [(0, 1), (2, 3)])
        with pytest.raises(GraphError):
            AlternatingCycle.from_vertices(k4_red, pm, [0, 2, 1, 3])

    def test_rejects_odd_or_short(self, k4_red):
        pm = PerfectMatching.from_edges(k4_red, [(0, 1), (2, 3)])
        with pytest.raises(GraphError):
            AlternatingCycle.from_vertices(k4_red, pm, [0, 1])
        with pytest.raises(GraphError):
            AlternatingCycle.from_vertices(k4_red, pm, [0, 1, 2])

    def test_rejects_repeated_vertex(self, k4_red):
        pm = PerfectMatching.from_edges(k4_red, [(0, 1), (2, 3)])
        with pytest.raises(GraphError):
            AlternatingCycle.from_vertices(k4_red, pm, [0, 1, 0, 1])

    def test_rejects_missing_edge(self, c4):
        pm = PerfectMatching.from_edges(c4, [(0, 1), (2, 3)])
        with pytest.raises(GraphError):
            AlternatingCycle.from_vertices(c4, pm, [0, 1, 3, 2])

    def test_weight(self, c4):
        pm = PerfectMatching.from_edges(c4, [(0, 1), (2, 3)])
        cyc = AlternatingCycle.from_vertices(c4, pm, [0, 1, 2, 3])
        assert cyc.weight == -2
        assert cyc.vertex_set() == frozenset(range(4))
        assert cyc.edge_set() == frozenset(c4.edges())


class TestCycleSet:
    def test_sorted_and_disjoint(self):
        g = ColoredGraph.from_edges(8, [
            (0, 1, RED), (1, 2, BLUE), (2, 3, RED), (0, 3, BLUE),
            (4, 5, RED), (5, 6, BLUE), (6, 7, RED), (4, 7, BLUE),
        ])
        pm = PerfectMatching.from_edges(g, [(0, 1), (2, 3), (4, 5), (6, 7)])
        c_hi = AlternatingCycle.from_vertices(g, pm, [4, 5, 6, 7])
        c_lo = AlternatingCycle.from_vertices(g, pm, [0, 1, 2, 3])
        cs = CycleSet.from_cycles([c_hi, c_lo])
        assert [c.vertices[0] for c in cs] == [0, 4]
        assert cs.total_weight == -4
        assert cs.edge_count() == 8
        assert len(cs) == 2

    def test_rejects_overlap(self, k4_red):
        pm = PerfectMatching.from_edges(k4_red, [(0, 1), (2, 3)])
        c1 = AlternatingCycle.from_vertices(k4_red, pm, [0, 1, 2, 3])
        c2 = AlternatingCycle.from_vertices(k4_red, pm, [0, 1, 3, 2])
        with pytest.raises(GraphError):
            CycleSet.from_cycles([c1, c2])


def test_symmetric_difference_and_apply(c4):
    red = PerfectMatching.from_edges(c4, [(0, 1), (2, 3)])
    blue = PerfectMatching.from_edges(c4, [(1, 2), (0, 3)])
    cs = symmetric_difference(c4, red, blue)
    assert len(cs) == 1
    assert cs.total_weight == -2
    assert apply_cycles(red, cs) == blue
    assert apply_cycles(blue, symmetric_difference(c4, blue, red)) == red


def test_symmetric_difference_rejects_a_matching_that_is_not_perfect(c4):
    # Checked before the mate walk starts: on this argument the walk would
    # close a 2-vertex "cycle" (0, 3) and fail with another message.
    blue = PerfectMatching.from_edges(c4, [(1, 2), (0, 3)])
    with pytest.raises(GraphError, match="argument is not a perfect matching of the graph"):
        symmetric_difference(c4, blue, PerfectMatching(frozenset({(0, 1)}), 1))


def test_apply_cycles_rejects_a_cycle_that_does_not_alternate(k4_red):
    # The 4-cycle alternates with {01, 23} but has no edge of {02, 13}.
    pm = PerfectMatching.from_edges(k4_red, [(0, 1), (2, 3)])
    cs = CycleSet.from_cycles([AlternatingCycle.from_vertices(k4_red, pm, [0, 1, 2, 3])])
    other = PerfectMatching.from_edges(k4_red, [(0, 2), (1, 3)])
    with pytest.raises(GraphError, match="cycle at 0 does not alternate"):
        apply_cycles(other, cs)


def test_apply_cycles_rejects_a_flip_that_changes_the_size(k4_red):
    # Built raw, past from_cycles' disjointness check: two 4-cycles that
    # share the matched edges (0, 1) and (2, 3) flip onto four edges.
    pm = PerfectMatching.from_edges(k4_red, [(0, 1), (2, 3)])
    c1 = AlternatingCycle.from_vertices(k4_red, pm, [0, 1, 2, 3])
    c2 = AlternatingCycle.from_vertices(k4_red, pm, [0, 1, 3, 2])
    with pytest.raises(GraphError, match="cycle flip did not preserve matching size"):
        apply_cycles(pm, CycleSet((c1, c2), c1.weight + c2.weight))


def test_symmetric_difference_of_equal_matchings_is_empty(c4):
    pm = PerfectMatching.from_edges(c4, [(0, 1), (2, 3)])
    cs = symmetric_difference(c4, pm, pm)
    assert len(cs) == 0
    assert apply_cycles(pm, cs) == pm


@settings(max_examples=60, deadline=None)
@given(seed=st.integers(0, 10_000), n=st.sampled_from([4, 6, 8]))
def test_weight_identity_over_matching_pairs(seed, n):
    """Red count of any matching equals the reference count plus the
    symmetric-difference weight, for every ordered pair of matchings."""
    g = random_colored_graph(n, 0.7, seed)
    pms = list(enumerate_perfect_matchings(g))
    for a, b in itertools.permutations(pms, 2):
        cs = symmetric_difference(g, a, b)
        assert b.red_count == a.red_count + cs.total_weight
        assert apply_cycles(a, cs) == b
