import math

import pytest

from exactmatching import (
    BLUE,
    RED,
    ColoredGraph,
    GraphError,
    OracleLimitError,
    bipartite_independence_number,
    count_perfect_matchings,
    em_decide_bruteforce,
    enumerate_perfect_matchings,
    independence_number,
    perfect_matching_red_counts,
    random_colored_graph,
)
from exactmatching.oracle import (
    COUNTING_CAP,
    ENUMERATION_CAP,
    INDEPENDENCE_CAP,
    max_independent_set_size,
)


def complete(n, color=RED):
    return ColoredGraph.from_edges(
        n, [(u, v, color) for u in range(n) for v in range(u + 1, n)])


def complete_bipartite(a, b, color=BLUE):
    edges = [(u, v, color) for u in range(a) for v in range(a, a + b)]
    return ColoredGraph.from_edges(
        a + b, edges, bipartition=(range(a), range(a, a + b)))


class TestEnumeration:
    def test_k4_lists_all_three_in_lex_order(self, k4_red):
        pms = list(enumerate_perfect_matchings(k4_red))
        assert [pm.sorted_edges() for pm in pms] == [
            [(0, 1), (2, 3)], [(0, 2), (1, 3)], [(0, 3), (1, 2)]]

    def test_odd_graph_yields_nothing(self):
        assert list(enumerate_perfect_matchings(complete(5))) == []

    def test_empty_graph_has_one_empty_pm(self):
        pms = list(enumerate_perfect_matchings(ColoredGraph.from_edges(0, [])))
        assert len(pms) == 1 and len(pms[0]) == 0

    def test_cap_enforced(self):
        with pytest.raises(OracleLimitError):
            list(enumerate_perfect_matchings(complete(ENUMERATION_CAP + 2)))

    def test_cap_can_be_raised(self):
        pms = enumerate_perfect_matchings(
            complete(ENUMERATION_CAP + 2), max_n=ENUMERATION_CAP + 2)
        assert next(pms) is not None


class TestCounting:
    @pytest.mark.parametrize("m", [0, 1, 2, 3])
    def test_double_factorial(self, m):
        want = math.prod(range(1, 2 * m, 2))
        assert count_perfect_matchings(complete(2 * m)) == want

    def test_count_matches_enumeration(self):
        for seed in range(30):
            g = random_colored_graph(8, 0.55, seed)
            assert count_perfect_matchings(g) == len(
                list(enumerate_perfect_matchings(g)))

    def test_cap_enforced(self):
        with pytest.raises(OracleLimitError):
            count_perfect_matchings(complete(COUNTING_CAP + 2))


class TestRedCounts:
    def test_c4(self, c4):
        assert perfect_matching_red_counts(c4) == {0, 2}

    def test_odd_and_empty_graphs(self):
        assert perfect_matching_red_counts(complete(3)) == frozenset()
        assert perfect_matching_red_counts(ColoredGraph(0, {})) == {0}

    def test_matches_enumeration(self):
        # Includes odd n and graphs without a perfect matching.
        for n in range(1, 13):
            for p in (0.3, 0.6, 0.9):
                for seed in range(4):
                    g = random_colored_graph(n, p, seed)
                    want = {pm.red_count for pm in enumerate_perfect_matchings(g)}
                    assert perfect_matching_red_counts(g) == want

    def test_cap_enforced(self):
        with pytest.raises(OracleLimitError):
            perfect_matching_red_counts(complete(COUNTING_CAP + 2))
        assert perfect_matching_red_counts(complete(COUNTING_CAP + 2, BLUE),
                                           max_n=COUNTING_CAP + 2) == {0}


class TestDecision:
    def test_c4(self, c4):
        for k, want in [(0, True), (1, False), (2, True)]:
            got = em_decide_bruteforce(c4, k)
            assert (got is not None) == want
            if got is not None:
                assert got.red_count == k

    def test_witness_is_first_in_lex_order(self, k4_red):
        got = em_decide_bruteforce(k4_red, 2)
        assert got.sorted_edges() == [(0, 1), (2, 3)]

    def test_out_of_range_k(self, c4):
        assert em_decide_bruteforce(c4, 3) is None

    def test_cap_enforced(self):
        with pytest.raises(OracleLimitError):
            em_decide_bruteforce(complete(ENUMERATION_CAP + 2), 0)


class TestIndependence:
    def test_complete_graph(self):
        assert independence_number(complete(5)) == 1

    def test_five_cycle(self):
        g = ColoredGraph.from_edges(
            5, [(0, 1, RED), (1, 2, RED), (2, 3, RED), (3, 4, RED), (0, 4, RED)])
        assert independence_number(g) == 2

    def test_edgeless(self):
        assert independence_number(ColoredGraph.from_edges(6, [])) == 6
        assert independence_number(ColoredGraph.from_edges(0, [])) == 0

    def test_direct_mask_search(self):
        masks = [0b110, 0b101, 0b011]  # triangle
        assert max_independent_set_size(3, masks) == 1

    def test_cap_enforced(self):
        with pytest.raises(OracleLimitError):
            independence_number(complete(INDEPENDENCE_CAP + 2))


class TestBipartiteIndependence:
    def test_complete_bipartite(self):
        assert bipartite_independence_number(complete_bipartite(3, 3)) == 0

    def test_one_missing_edge(self):
        g = complete_bipartite(3, 3)
        colors = dict(g.colors)
        del colors[(0, 3)]
        g2 = ColoredGraph(6, colors, g.bipartition)
        assert bipartite_independence_number(g2) == 1

    def test_edgeless_bipartite(self):
        g = ColoredGraph.from_edges(
            6, [], bipartition=(range(3), range(3, 6)))
        assert bipartite_independence_number(g) == 3

    def test_unbalanced_sides(self):
        g = complete_bipartite(2, 4)
        assert bipartite_independence_number(g) == 0
        assert bipartite_independence_number(complete_bipartite(0, 3)) == 0
        assert bipartite_independence_number(complete_bipartite(3, 0)) == 0

    def test_requires_bipartition(self, c4):
        with pytest.raises(GraphError):
            bipartite_independence_number(c4)

    def test_cap_enforced(self):
        with pytest.raises(OracleLimitError):
            bipartite_independence_number(
                complete_bipartite(INDEPENDENCE_CAP, INDEPENDENCE_CAP))
