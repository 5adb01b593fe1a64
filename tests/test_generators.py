import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from exactmatching import (
    BLUE,
    RED,
    BaseFamily,
    GenerationError,
    bipartite_independence_number,
    edge_weight,
    em_decide_bruteforce,
    gen_bounded_alpha,
    gen_bounded_beta,
    gen_planted_yes,
    independence_number,
    random_bipartite_colored_graph,
    random_colored_graph,
    validate_matching,
)
from exactmatching import generators
from exactmatching.generators import gen_alternating_cycle_instance, gen_skip_extraction_instance


class TestBaseFamily:
    def test_validation(self):
        BaseFamily("alpha", 1)
        BaseFamily("beta", 3, edge_keep_prob=0.9)
        with pytest.raises(GenerationError):
            BaseFamily("gamma", 1)
        with pytest.raises(GenerationError):
            BaseFamily("alpha", 0)
        with pytest.raises(GenerationError):
            BaseFamily("alpha", 1, edge_keep_prob=1.5)


class TestBoundedAlpha:
    @pytest.mark.parametrize("alpha_max", [1, 2, 3])
    def test_bound_holds(self, alpha_max):
        for seed in range(12):
            g = gen_bounded_alpha(10, alpha_max, seed)
            assert independence_number(g) <= alpha_max

    def test_alpha_one_is_complete(self):
        g = gen_bounded_alpha(6, 1, 0)
        assert g.m == 15

    def test_deterministic(self):
        assert gen_bounded_alpha(12, 2, 5) == gen_bounded_alpha(12, 2, 5)
        assert gen_bounded_alpha(12, 2, 5) != gen_bounded_alpha(12, 2, 6)

    def test_rejects_bad_args(self):
        with pytest.raises(GenerationError):
            gen_bounded_alpha(6, 0, 0)
        with pytest.raises(GenerationError):
            gen_bounded_alpha(-1, 1, 0)


class TestBoundedBeta:
    @pytest.mark.parametrize("beta_max", [1, 2, 3])
    def test_bound_holds(self, beta_max):
        for seed in range(12):
            g = gen_bounded_beta(12, beta_max, seed)
            assert g.bipartition is not None
            assert bipartite_independence_number(g) <= beta_max

    def test_beta_one_is_complete_bipartite(self):
        g = gen_bounded_beta(8, 1, 0)
        assert g.m == 16

    def test_deterministic(self):
        assert gen_bounded_beta(10, 2, 5) == gen_bounded_beta(10, 2, 5)

    def test_rejects_odd_n(self):
        with pytest.raises(GenerationError):
            gen_bounded_beta(7, 1, 0)

    def test_rejects_bound_below_one(self):
        with pytest.raises(GenerationError, match="beta_max must be >= 1, got 0"):
            gen_bounded_beta(8, 0, 0)


class TestPlantedYes:
    @pytest.mark.parametrize("family", [
        BaseFamily("alpha", 1),
        BaseFamily("alpha", 2),
        BaseFamily("beta", 1),
        BaseFamily("beta", 2),
    ])
    def test_solution_exists(self, family):
        for seed in range(8):
            g = gen_planted_yes(12, 3, family, seed)
            assert g.n == 12
            assert em_decide_bruteforce(g, 3) is not None
            if family.kind == "beta":
                assert g.bipartition is not None

    def test_extreme_k(self):
        g0 = gen_planted_yes(10, 0, BaseFamily("alpha", 1), 4)
        g5 = gen_planted_yes(10, 5, BaseFamily("alpha", 1), 4)
        assert em_decide_bruteforce(g0, 0) is not None
        assert em_decide_bruteforce(g5, 5) is not None

    def test_deterministic(self):
        fam = BaseFamily("alpha", 2)
        assert gen_planted_yes(14, 3, fam, 9) == gen_planted_yes(14, 3, fam, 9)

    def test_rejects_bad_args(self):
        with pytest.raises(GenerationError):
            gen_planted_yes(7, 1, BaseFamily("alpha", 1), 0)
        with pytest.raises(GenerationError):
            gen_planted_yes(8, 5, BaseFamily("alpha", 1), 0)

    def test_reroll_budget_runs_out(self, monkeypatch):
        # Without kept edges the alpha-3 base graph on 10 vertices is cliques
        # of 4, 3 and 3 vertices: no re-roll has a perfect matching.
        rolls = []
        base_graph = generators._base_graph
        monkeypatch.setattr(generators, "_base_graph",
                            lambda *a: rolls.append(a) or base_graph(*a))
        with pytest.raises(GenerationError, match="found in 60 attempts"):
            gen_planted_yes(10, 1, BaseFamily("alpha", 3, 0.0), 0)
        assert len(rolls) == generators._REROLL_BUDGET == 60


class TestRandomGraphs:
    def test_edge_prob_extremes(self):
        assert random_colored_graph(8, 0.0, 1).m == 0
        assert random_colored_graph(8, 1.0, 1).m == 28
        assert random_bipartite_colored_graph(8, 1.0, 1).m == 16

    def test_bipartite_structure(self):
        g = random_bipartite_colored_graph(10, 0.7, 3)
        assert g.bipartition == (frozenset(range(5)), frozenset(range(5, 10)))
        assert all((u in g.bipartition[0]) != (v in g.bipartition[0]) for u, v in g.edges())

    def test_rejects_odd_bipartite(self):
        with pytest.raises(GenerationError):
            random_bipartite_colored_graph(7, 0.5, 0)

    def test_rejects_negative_n(self):
        with pytest.raises(GenerationError, match=r"must be >= 0, got -1$"):
            random_colored_graph(-1, 0.5, 0)
        with pytest.raises(GenerationError, match=r"must be even and >= 0, got -2$"):
            random_bipartite_colored_graph(-2, 0.5, 0)


class TestCycleInstances:
    def test_structure(self):
        g, pm, cyc = gen_alternating_cycle_instance(12, 0.5, 7)
        assert g.n == 12
        assert validate_matching(g, pm)
        assert len(cyc) == 12
        assert cyc.vertices == tuple(range(12))
        assert pm.edges == {(2 * i, 2 * i + 1) for i in range(6)}

    def test_chords_never_touch_matching(self):
        g, pm, cyc = gen_alternating_cycle_instance(10, 1.0, 3)
        ring = set(cyc.edges)
        for e in g.edges():
            if e not in ring:
                assert e not in pm.edges

    def test_bipartite_chords_cross(self):
        g, pm, cyc = gen_alternating_cycle_instance(10, 1.0, 3, bipartite=True)
        assert g.bipartition is not None
        assert all((u in g.bipartition[0]) != (v in g.bipartition[0]) for u, v in g.edges())

    def test_deterministic(self):
        assert (gen_alternating_cycle_instance(10, 0.5, 11)[0]
                == gen_alternating_cycle_instance(10, 0.5, 11)[0])

    def test_rejects_bad_length(self):
        with pytest.raises(GenerationError):
            gen_alternating_cycle_instance(3, 0.5, 0)
        with pytest.raises(GenerationError):
            gen_alternating_cycle_instance(7, 0.5, 0)


class TestExtractionInstances:
    @pytest.mark.parametrize("x", [-1, 0, 1, 2])
    def test_subpath_labels(self, x):
        g, pm, cyc = gen_skip_extraction_instance(x, 6, 1)
        assert g.n == 24
        # from the first matching edge, each four-edge period splits into two
        # (matching, non-matching) duos whose labels realize the sub-path weight
        start = next(i for i, e in enumerate(cyc.edges) if e in pm.edges)
        ring = cyc.edges[start:] + cyc.edges[:start]
        labels = sorted(edge_weight(g, pm, ring[i]) + edge_weight(g, pm, ring[i + 1])
                        for i in range(0, len(ring), 2))
        half = len(labels) // 2
        per_period = {2: [1, 1], 1: [0, 1], 0: [-1, 1], -1: [-1, 0]}[x]
        assert labels == sorted(per_period * half)
        assert cyc.weight == x * 6

    def test_bipartite_variant(self):
        g, pm, cyc = gen_skip_extraction_instance(1, 4, 2, bipartite=True)
        assert g.bipartition is not None
        assert cyc.weight == 4

    def test_host_is_complete(self):
        g, _, _ = gen_skip_extraction_instance(0, 4, 3)
        assert g.m == 16 * 15 // 2

    def test_rejects_bad_args(self):
        with pytest.raises(GenerationError):
            gen_skip_extraction_instance(3, 4, 0)
        with pytest.raises(GenerationError):
            gen_skip_extraction_instance(1, 0, 0)


@settings(max_examples=30, deadline=None)
@given(seed=st.integers(0, 10 ** 6))
def test_generators_are_pure_functions_of_the_seed(seed):
    assert random_colored_graph(10, 0.5, seed) == random_colored_graph(10, 0.5, seed)
    g1 = gen_planted_yes(10, 2, BaseFamily("alpha", 2), seed)
    g2 = gen_planted_yes(10, 2, BaseFamily("alpha", 2), seed)
    assert g1 == g2
