import hashlib

import pytest

from exactmatching import (
    BLUE,
    NO_CERTIFIED,
    RED,
    UNKNOWN,
    YES,
    ColoredGraph,
    ConfigurationError,
    GraphError,
    PerfectMatching,
    SkipSearchError,
    SolverParams,
    approx_em,
    approx_em_bipartite,
    em_decide_bruteforce,
    f_alpha,
    f_beta,
    gen_planted_yes,
    random_colored_graph,
    recover_from_color_guess,
    run_phase1,
    small_diff_search,
    solve_em,
    t_alpha,
    t_beta,
    validate_matching,
)
from exactmatching import BaseFamily
from exactmatching import solver as solver_mod


def double_c4(bipartite=False):
    """Two disjoint four-cycles, each with a red and a blue perfect matching."""
    triples = []
    for off in (0, 4):
        triples += [(off, off + 1, RED), (off + 2, off + 3, RED),
                    (off + 1, off + 2, BLUE), (off, off + 3, BLUE)]
    bip = ([0, 2, 4, 6], [1, 3, 5, 7]) if bipartite else None
    return ColoredGraph.from_edges(8, triples, bipartition=bip)


# -- constants --------------------------------------------------------------------


def test_threshold_constants():
    assert t_alpha(1) == 4096
    assert t_alpha(2) == 256 * 4 ** 4
    assert t_beta(1) == 16777216
    assert f_alpha(1) == 1000 * 4096 ** 6
    assert f_beta(1) == 1000 * 16777216 ** 6


@pytest.mark.parametrize("fn", [t_alpha, f_alpha, t_beta, f_beta])
def test_constants_reject_bad_bound(fn):
    with pytest.raises(ConfigurationError):
        fn(0)


# -- phase 1 ----------------------------------------------------------------------


class TestPhase1:
    def test_immediate_exit_when_target_reached(self, c4):
        res = run_phase1(c4, 2, bipartite=False)
        assert res.matching.red_count == 2
        assert res.iterations == 0
        assert res.bound == 2           # independence number of the four-cycle
        assert res.threshold == 2 * 4 ** 2

    def test_no_pm(self):
        g = ColoredGraph.from_edges(4, [(0, 1, RED), (0, 2, RED), (0, 3, RED)])
        res = run_phase1(g, 0, bipartite=False)
        assert res.matching is None
        assert approx_em(g, 0) is None

    def test_walk_iterates_under_forced_threshold(self):
        g = double_c4()
        params = SolverParams(t_override=2)
        res = run_phase1(g, 2, params, bipartite=False)
        assert res.iterations == 1
        assert res.matching.red_count == 2
        assert res.threshold == 2

    def test_walk_raises_when_no_shortcut_exists(self):
        params = SolverParams(t_override=1)
        with pytest.raises(SkipSearchError):
            run_phase1(double_c4(), 2, params, bipartite=False)
        with pytest.raises(SkipSearchError):
            run_phase1(double_c4(bipartite=True), 2, params, bipartite=True)

    def test_bound_bookkeeping_bipartite(self):
        g = double_c4(bipartite=True)
        res = run_phase1(g, 0, bipartite=True)
        assert res.bipartite
        assert res.threshold == 2 * 4 ** (2 * res.bound + 2)

    def test_hint_overrides_measurement(self, c4):
        res = run_phase1(c4, 2, SolverParams(alpha_hint=5), bipartite=False)
        assert res.bound == 5
        assert res.threshold == 2 * 4 ** 5

    def test_bad_hints_rejected(self, c4, k33):
        with pytest.raises(ConfigurationError):
            run_phase1(c4, 2, SolverParams(alpha_hint=0), bipartite=False)
        with pytest.raises(ConfigurationError):
            run_phase1(k33, 1, SolverParams(beta_hint=-1), bipartite=True)

    def test_unmeasurable_bound_needs_hint(self):
        g = random_colored_graph(44, 0.5, 3)
        with pytest.raises(ConfigurationError):
            run_phase1(g, 0, bipartite=False)
        assert run_phase1(g, 0, SolverParams(alpha_hint=3),
                          bipartite=False).bound == 3

    def test_approx_em_delegates_to_run_phase1(self):
        for seed in range(8):
            g = gen_planted_yes(12, 3, BaseFamily("alpha", 2), seed)
            params = SolverParams(alpha_hint=2)
            assert approx_em(g, 3, params) == run_phase1(
                g, 3, params, bipartite=False).matching

    def test_approx_em_validates_input(self, c4):
        with pytest.raises(ConfigurationError):
            approx_em(ColoredGraph.from_edges(3, []), 0)
        with pytest.raises(ConfigurationError):
            approx_em(c4, 3)
        with pytest.raises(GraphError):
            approx_em_bipartite(c4, 1)

    def test_bipartite_variant(self, k33):
        pm = approx_em_bipartite(k33, 0)
        assert pm is not None and pm.red_count == 0

    @pytest.mark.parametrize("n, pins", [
        (100, [(25, 13, 24, "06df1bd1daa02153"), (33, 9, 32, "0f51bce67c0eb5c2")]),
        (128, [(32, 9, 30, "4067a709139bd3fb"), (42, 13, 41, "a697388dcfb859e9")]),
    ])
    def test_walk_on_large_planted_instances_is_pinned(self, n, pins):
        # (k, iterations, red count, digest of the sorted edges), recorded
        # with the rebuild-per-candidate skip search and a symmetric
        # difference recomputed on every iteration.
        g = gen_planted_yes(n, n // 4, BaseFamily("alpha", 1), 1)
        for k, iterations, red, digest in pins:
            res = run_phase1(g, k, SolverParams(alpha_hint=1), bipartite=False)
            edges = repr(res.matching.sorted_edges()).encode()
            assert res.iterations == iterations
            assert res.matching.red_count == red
            assert hashlib.sha256(edges).hexdigest()[:16] == digest


# -- phase 2: single-guess recovery -------------------------------------------------


class TestRecovery:
    def test_successful_red_guess(self, c4):
        blue_pm = PerfectMatching.from_edges(c4, [(1, 2), (0, 3)])
        got = recover_from_color_guess(c4, blue_pm, [(0, 1), (2, 3)], RED, 2)
        assert got is not None
        assert got.red_count == 2
        assert validate_matching(c4, got)

    def test_successful_blue_guess(self, c4):
        red_pm = PerfectMatching.from_edges(c4, [(0, 1), (2, 3)])
        got = recover_from_color_guess(c4, red_pm, [(0, 3), (1, 2)], BLUE, 0)
        assert got is not None and got.red_count == 0

    def test_wrong_size_returns_none(self, c4):
        blue_pm = PerfectMatching.from_edges(c4, [(1, 2), (0, 3)])
        assert recover_from_color_guess(c4, blue_pm, [(0, 1)], RED, 2) is None

    def test_clashing_proposal_returns_none(self, k4_red):
        # proposal = base symmetric-difference guess = {(0,1), (0,2)},
        # right size but two edges share vertex 0
        pm = PerfectMatching.from_edges(k4_red, [(0, 1), (2, 3)])
        assert recover_from_color_guess(
            k4_red, pm, [(2, 3), (0, 2)], RED, 2) is None

    def test_incompletable_returns_none(self, c4):
        blue_pm = PerfectMatching.from_edges(c4, [(1, 2), (0, 3)])
        assert recover_from_color_guess(c4, blue_pm, [(0, 1)], RED, 1) is None

    def test_wrong_color_guess_rejected(self, c4):
        blue_pm = PerfectMatching.from_edges(c4, [(1, 2), (0, 3)])
        with pytest.raises(GraphError):
            recover_from_color_guess(c4, blue_pm, [(1, 2)], RED, 2)
        with pytest.raises(GraphError):
            recover_from_color_guess(c4, blue_pm, [(0, 5)], RED, 2)

    def test_fast_path_agrees_with_public_path(self):
        import itertools
        for seed in range(12):
            g = random_colored_graph(8, 0.6, seed)
            pms = [pm for pm in [solver_mod.min_red_pm(g)] if pm is not None]
            if not pms:
                continue
            pm = pms[0]
            for color in (RED, BLUE):
                k = 1
                ctx = solver_mod._make_context(g, pm, k, color)
                pool = ctx.color_edges[:6]
                for size in range(3):
                    for guess in itertools.combinations(pool, size):
                        assert (solver_mod._recover(ctx, guess)
                                == recover_from_color_guess(g, pm, guess, color, k))


# -- phase 2: the guess stream ------------------------------------------------------


def naive_guesses(ctx, limit):
    """Reference enumeration: every subset of the color class up to the size
    limit, in (size, lex) order, that proposes exactly the target size."""
    import itertools
    out = []
    for size in range(limit + 1):
        for combo in itertools.combinations(ctx.color_edges, size):
            if len(ctx.base.symmetric_difference(combo)) == ctx.target:
                out.append((size, combo))
    return out


def disjoint_proposal(ctx, guess):
    ends = [w for e in ctx.base.symmetric_difference(guess) for w in e]
    return len(ends) == len(set(ends))


class TestGuessStream:
    def test_matches_naive_reference_on_successes(self):
        # Exactly the naive guesses whose proposal shares no vertex, in order.
        for n in (4, 6, 8, 10):
            for seed in range(4):
                g = random_colored_graph(n, 0.6, seed)
                pm = solver_mod.min_red_pm(g)
                if pm is None:
                    continue
                for color in (RED, BLUE):
                    for k in range(n // 2 + 1):
                        ctx = solver_mod._make_context(g, pm, k, color)
                        want = [item for item in naive_guesses(ctx, n)
                                if disjoint_proposal(ctx, item[1])]
                        for limit in (3, n):
                            assert list(solver_mod._guess_stream(ctx, limit)) == [
                                item for item in want if item[0] <= limit]

    def test_first_witness_matches_naive_first_success(self):
        hits = 0
        for seed in range(10):
            g = random_colored_graph(10, 0.6, seed + 50)
            pm = solver_mod.min_red_pm(g)
            if pm is None or em_decide_bruteforce(g, 2) is None:
                continue
            ctx = solver_mod._make_context(g, pm, 2, RED)
            recovered = (solver_mod._recover(ctx, guess)
                         for _, guess in naive_guesses(ctx, g.n))
            want = next((got for got in recovered if got is not None), None)
            got = small_diff_search(g, pm, 2, g.n, RED)
            assert got is not None and got.red_count == 2
            assert got == want
            hits += 1
        assert hits > 0

    def test_interleave_orders_red_before_blue_per_size(self):
        red = iter([(0, ("r0",)), (2, ("r2",))])
        blue = iter([(0, ("b0",)), (1, ("b1",)), (2, ("b2",))])
        merged = list(solver_mod._interleave("RC", red, "BC", blue))
        assert merged == [
            ("RC", 0, ("r0",)), ("BC", 0, ("b0",)), ("BC", 1, ("b1",)),
            ("RC", 2, ("r2",)), ("BC", 2, ("b2",)),
        ]


class TestSmallDiffSearch:
    def test_finds_witness_within_limit(self, c4):
        blue_pm = PerfectMatching.from_edges(c4, [(1, 2), (0, 3)])
        got = small_diff_search(c4, blue_pm, 2, 2, RED)
        assert got is not None and got.red_count == 2

    def test_respects_limit(self, c4):
        blue_pm = PerfectMatching.from_edges(c4, [(1, 2), (0, 3)])
        assert small_diff_search(c4, blue_pm, 2, 1, RED) is None

    def test_rejects_negative_limit(self, c4):
        blue_pm = PerfectMatching.from_edges(c4, [(1, 2), (0, 3)])
        with pytest.raises(ConfigurationError):
            small_diff_search(c4, blue_pm, 2, -1, RED)


# -- the full solver ----------------------------------------------------------------


class TestSolveEm:
    def test_c4_all_k(self, c4):
        for k, want in [(0, YES), (1, NO_CERTIFIED), (2, YES)]:
            v = solve_em(c4, k)
            assert v.status == want
            if want == YES:
                assert v.witness.red_count == k
                assert validate_matching(c4, v.witness)
            else:
                assert v.witness is None

    def test_phase1_hit_has_zero_L(self, c4):
        v = solve_em(c4, 0)
        assert v.status == YES and v.L_used == 0 and v.phase1_r == 0

    def test_trivial_rejections(self):
        odd = ColoredGraph.from_edges(3, [(0, 1, RED)])
        assert solve_em(odd, 0).status == NO_CERTIFIED
        assert solve_em(odd, 0).reason == "odd vertex count"
        g = ColoredGraph.from_edges(4, [(0, 1, RED), (2, 3, BLUE)])
        assert solve_em(g, 5).status == NO_CERTIFIED

    def test_no_pm_certified(self):
        g = ColoredGraph.from_edges(4, [(0, 1, RED), (0, 2, RED), (0, 3, RED)])
        v = solve_em(g, 0)
        assert v.status == NO_CERTIFIED
        assert v.reason == "graph has no perfect matching"

    def test_budget_exhaustion_is_unknown(self, c4):
        v = solve_em(c4, 1, SolverParams(L_cap=0))
        assert v.status == UNKNOWN
        assert v.L_used == 0

    def test_uncapped_exhaustion_is_certified(self, c4):
        v = solve_em(c4, 1)
        assert v.status == NO_CERTIFIED
        assert v.reason == "exhausted the certified search radius"
        assert v.L_used == 4    # min(n, radius)

    def test_negative_cap_rejected(self, c4):
        with pytest.raises(ConfigurationError):
            solve_em(c4, 1, SolverParams(L_cap=-1))

    def test_skip_search_failure_propagates(self):
        with pytest.raises(SkipSearchError):
            solve_em(double_c4(), 2, SolverParams(t_override=1))

    def test_matches_oracle_on_small_graphs(self):
        for seed in range(25):
            g = random_colored_graph(6, 0.6, seed)
            for k in range(4):
                v = solve_em(g, k, SolverParams(L_cap=g.n))
                want = em_decide_bruteforce(g, k)
                if want is None:
                    assert v.status != YES
                else:
                    assert v.status == YES
                    assert v.witness.red_count == k

    def test_deterministic_witness(self):
        g = gen_planted_yes(14, 3, BaseFamily("alpha", 2), 7)
        a = solve_em(g, 3, SolverParams(alpha_hint=2))
        b = solve_em(g, 3, SolverParams(alpha_hint=2))
        assert a.status == YES
        assert a.witness == b.witness
        assert a.L_used == b.L_used

    @pytest.mark.parametrize("bound, seed", [(1, 5), (2, 3)])
    def test_large_planted_instances_solve(self, bound, seed):
        # Color classes of thousands of edges: the guess search's stack depth
        # must not grow with them.
        g = gen_planted_yes(120, 30, BaseFamily("alpha", bound), seed)
        v = solve_em(g, 30, SolverParams(alpha_hint=bound))
        assert v.status == YES
        assert validate_matching(g, v.witness) and v.witness.red_count == 30

    def test_parity_instance_is_certified_no(self):
        # Red exactly on edges crossing {0..3}: every PM has an even red count.
        g = ColoredGraph.from_edges(14, [
            (u, v, RED if (u < 4) != (v < 4) else BLUE)
            for u in range(14) for v in range(u + 1, 14)])
        v = solve_em(g, 1, SolverParams(alpha_hint=1))
        assert v.status == NO_CERTIFIED
        assert v.L_used == 14

    def test_bipartite_instances(self):
        for seed in range(10):
            g = gen_planted_yes(12, 3, BaseFamily("beta", 1), seed)
            v = solve_em(g, 3, SolverParams(beta_hint=1))
            assert v.status == YES
            assert v.witness.red_count == 3

    def test_json_shape(self, c4):
        doc = solve_em(c4, 2).to_json_dict()
        assert doc["verdict"] == YES
        assert doc["witness"] == [[0, 1], [2, 3]]
        assert set(doc) == {"verdict", "witness", "L_used", "phase1_r", "iterations"}
        doc2 = solve_em(c4, 1).to_json_dict()
        assert doc2["verdict"] == NO_CERTIFIED
        assert "witness" not in doc2 and "reason" in doc2
