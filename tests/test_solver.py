import dataclasses
import hashlib
import itertools
import json
import random

import pytest

from exactmatching import (
    BLUE,
    NO_CERTIFIED,
    RED,
    UNKNOWN,
    YES,
    ColoredGraph,
    ConfigurationError,
    PerfectMatching,
    SkipSearchError,
    SolverError,
    SolverParams,
    approx_em,
    count_perfect_matchings,
    em_decide_bruteforce,
    enumerate_perfect_matchings,
    gen_planted_yes,
    lift_to_dense,
    perfect_matching_red_counts,
    random_bipartite_colored_graph,
    random_colored_graph,
    run_phase1,
    solve_em,
    validate_matching,
    walk_bound,
)
from exactmatching import BaseFamily, engines
from exactmatching import solver as solver_mod

from ._support import (
    color_adjacency,
    cycle_union,
    first_success,
    naive_first_success,
    naive_lattice,
    naive_solve,
    parity_graph,
)


def double_c4(bipartite=False):
    """Two disjoint four-cycles, each with a red and a blue perfect matching."""
    triples = []
    for off in (0, 4):
        triples += [(off, off + 1, RED), (off + 2, off + 3, RED),
                    (off + 1, off + 2, BLUE), (off, off + 3, BLUE)]
    bip = ([0, 2, 4, 6], [1, 3, 5, 7]) if bipartite else None
    return ColoredGraph.from_edges(8, triples, bipartition=bip)


# -- phase 1 ----------------------------------------------------------------------


class TestPhase1:
    def test_immediate_exit_when_target_reached(self, c4):
        res = run_phase1(c4, 2)
        assert res.matching.red_count == 2
        assert res.iterations == 0
        # The independence number of the four-cycle is 2, above a* = 1.
        assert walk_bound(c4) == (1, 2 * 4 ** 1)

    def test_no_pm(self):
        g = ColoredGraph.from_edges(4, [(0, 1, RED), (0, 2, RED), (0, 3, RED)])
        res = run_phase1(g, 0)
        assert res.matching is None
        assert approx_em(g, 0) is None
        params = SolverParams(alpha_hint=3)
        res = run_phase1(g, 0, params)
        assert (res.matching, res.red_range, walk_bound(g, params)[0]) == (None, None, 1)

    def test_walk_iterates_under_forced_threshold(self):
        g = double_c4()
        params = SolverParams(t_override=2)
        res = run_phase1(g, 2, params)
        assert res.iterations == 1
        assert res.matching.red_count == 2
        assert walk_bound(g, params)[1] == 2

    def test_walk_raises_when_no_shortcut_exists(self):
        params = SolverParams(t_override=1)
        with pytest.raises(SkipSearchError):
            run_phase1(double_c4(), 2, params)
        with pytest.raises(SkipSearchError):
            run_phase1(double_c4(bipartite=True), 2, params)

    def test_negative_t_override_rejected(self):
        # Below 0 the walk's loop test admits a low matching with more than k
        # red edges, where no positive cycle is left; 0 keeps the invariant.
        g = random_colored_graph(16, 0.6, 27)
        for run in (run_phase1, solve_em):
            with pytest.raises(ConfigurationError, match="t_override must be >= 0, got -1"):
                run(g, 0, SolverParams(alpha_hint=1, t_override=-1))
        with pytest.raises(ConfigurationError, match="t_override must be >= 0, got -1"):
            walk_bound(g, SolverParams(alpha_hint=1, t_override=-1))
        params = SolverParams(alpha_hint=1, t_override=0)
        assert run_phase1(g, 0, params).iterations == 0
        assert walk_bound(g, params) == (1, 0)

    def test_missing_shortcut_is_a_configuration_error(self):
        # A too-small hint or t_override is a setting, not a broken invariant.
        assert issubclass(SkipSearchError, ConfigurationError)
        assert not issubclass(SkipSearchError, SolverError)

    def test_bound_bookkeeping_bipartite(self):
        g = double_c4(bipartite=True)
        assert run_phase1(g, 0).matching.red_count == 0
        bound, threshold = walk_bound(g)
        assert threshold == 2 * 4 ** (2 * bound + 2)

    def test_hint_overrides_measurement(self, c4):
        assert walk_bound(c4, SolverParams(alpha_hint=3)) == (1, 2 * 4 ** 1)
        # The edgeless 16-vertex graph measures alpha 16, capped at a* = 2.
        edgeless = ColoredGraph.from_edges(16, [])
        assert walk_bound(edgeless) == (2, 2 * 4 ** 2)
        assert walk_bound(edgeless, SolverParams(alpha_hint=1)) == (1, 2 * 4 ** 1)

    def test_hints_are_capped_at_the_largest_bound(self, c4, k33):
        # a* is 1 below n = 16 (alpha) and below n = 1024 (beta).
        assert walk_bound(c4, SolverParams(alpha_hint=10_000)) == (1, 2 * 4 ** 1)
        assert walk_bound(c4, SolverParams(alpha_hint=4)) == (1, 2 * 4 ** 1)
        assert walk_bound(k33, SolverParams(beta_hint=5_000)) == (1, 2 * 4 ** 4)
        # An edge with its ends on the two sides: the measured beta is 0,
        # but the bound is never below 1.
        k11 = ColoredGraph.from_edges(2, [(0, 1, RED)], bipartition=([0], [1]))
        assert walk_bound(k11) == walk_bound(k11, SolverParams(beta_hint=5_000)) == (1, 2 * 4 ** 4)
        empty = ColoredGraph.from_edges(0, [])
        assert walk_bound(empty, SolverParams(alpha_hint=7)) == (1, 2 * 4 ** 1)

    def test_the_cap_is_the_least_bound_whose_threshold_exceeds_half_n(self):
        sizes = [*range(0, 2100), 16_383, 16_384, 10 ** 40, 10 ** 4299]
        for bipartite in (False, True):
            for n in sizes:
                cap = solver_mod._bound_cap(bipartite, n)
                assert solver_mod._threshold(bipartite, cap) > n // 2, (bipartite, n)
                assert cap == 1 or solver_mod._threshold(bipartite, cap - 1) <= n // 2
        # a* is 2 at n 16-62, 3 at n 64-254 and 4 at n 256-1,022 (alpha),
        # and 1 below n = 1024, 2 below n = 16,384 (beta).
        assert [solver_mod._bound_cap(False, n) for n in (14, 16, 62, 64, 254, 256, 1022)] == [
            1, 2, 2, 3, 3, 4, 4]
        assert [solver_mod._bound_cap(True, n) for n in (1022, 1024, 16_382, 16_384)] == [
            1, 2, 2, 3]

    def test_a_huge_hint_decides_as_the_capped_one(self):
        # 2 * 4^(10^20) cannot be computed; the cap makes it 2 * 4^2.
        g = gen_planted_yes(24, 8, BaseFamily("alpha", 1), 0)
        huge = solve_em(g, 8, SolverParams(alpha_hint=10 ** 20))
        assert huge.status == YES
        assert huge == solve_em(g, 8, SolverParams(alpha_hint=24))

    def test_bad_hints_rejected(self, c4, k33):
        with pytest.raises(ConfigurationError):
            run_phase1(c4, 2, SolverParams(alpha_hint=0))
        with pytest.raises(ConfigurationError):
            run_phase1(k33, 1, SolverParams(beta_hint=-1))
        # The params are checked when built, whichever hint the walk reads:
        # the 4-cycle has no bipartition, so no walk on it reads beta_hint.
        for label in ("alpha", "beta"):
            for bad in (0, -1):
                with pytest.raises(ConfigurationError,
                                   match=f"{label} hint must be >= 1, got {bad}"):
                    SolverParams(**{f"{label}_hint": bad})
        with pytest.raises(ConfigurationError, match="beta hint must be >= 1, got 0"):
            run_phase1(c4, 2, SolverParams(beta_hint=0))

    def test_unmeasurable_bound_needs_hint(self):
        # Red range [0, 22]: the walk at k=11 reads the bound.  n = 44 is
        # above the exact oracle's cap, but the search stops at a* = 2, so
        # no hint is needed, and the walk is the one under any larger bound.
        g = random_colored_graph(44, 0.5, 3)
        res = run_phase1(g, 11)
        assert res.iterations == 0
        assert res == run_phase1(g, 11, SolverParams(alpha_hint=44))
        assert walk_bound(g) == (2, 2 * 4 ** 2)
        assert walk_bound(g, SolverParams(alpha_hint=1))[0] == 1

    def test_approx_em_delegates_to_run_phase1(self):
        for seed in range(8):
            g = gen_planted_yes(12, 3, BaseFamily("alpha", 2), seed)
            params = SolverParams(alpha_hint=2)
            assert approx_em(g, 3, params) == run_phase1(
                g, 3, params).matching

    def test_approx_em_validates_input(self, c4):
        with pytest.raises(ConfigurationError):
            approx_em(ColoredGraph.from_edges(3, []), 0)
        with pytest.raises(ConfigurationError):
            approx_em(c4, 3)

    def test_bipartite_variant(self, k33):
        pm = approx_em(k33, 0)
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
            res = run_phase1(g, k, SolverParams(alpha_hint=1))
            edges = repr(res.matching.sorted_edges()).encode()
            assert res.iterations == iterations
            assert res.matching.red_count == red
            assert hashlib.sha256(edges).hexdigest()[:16] == digest

    def test_forced_walks_on_random_graphs_are_pinned(self):
        # (iterations, sorted matching) per walk, or the error's name, over
        # 1,440 walks: 423 iterate, 131 find no shortcut, and 353 return a
        # high matching a shortcut moved (267 general, 86 bipartite).
        # Recorded with the high matching stored beside the context and
        # flipped by each skip or biskip.
        records = []
        for bipartite in (False, True):
            for n in (10, 12, 14, 16):
                for seed in range(8):
                    if bipartite:
                        g = random_bipartite_colored_graph(n, 0.7, seed)
                    else:
                        g = random_colored_graph(n, 0.6, seed)
                    for t in (1, 2, 4):
                        params = SolverParams(alpha_hint=1, beta_hint=1, t_override=t)
                        for k in range(n // 2 + 1):
                            try:
                                res = run_phase1(g, k, params)
                            except SkipSearchError:
                                records.append("SkipSearchError")
                                continue
                            m = res.matching and res.matching.sorted_edges()
                            records.append([res.iterations, m])
        assert len(records) == 1440
        digest = hashlib.sha256(json.dumps(records).encode()).hexdigest()
        assert digest == "385d53281cf240e2805674cae1eacf68b5a66c0fc23042def27bd574876837ea"

    def test_orientation_is_not_built_when_the_walk_does_not_iterate(self, monkeypatch):
        # The biskip search derives the orientation; a walk that does not
        # iterate runs no search.
        calls = []
        find_biskip = solver_mod.find_biskip
        monkeypatch.setattr(solver_mod, "find_biskip",
                            lambda *a: calls.append(1) or find_biskip(*a))
        for seed in range(4):
            g = gen_planted_yes(40, 10, BaseFamily("beta", 1), seed)
            v = solve_em(g, 10, SolverParams(beta_hint=1))
            assert v.status == YES and v.iterations == 0
        assert calls == []

    def test_forced_bipartite_walk_is_pinned(self, monkeypatch):
        # Per size n (k = n/4): (status, iterations, phase1_r, L_used), the
        # witness digest and the number of biskip searches, recorded with the
        # orientation stored as a full arc set.
        pins = {
            60: ((YES, 13, 12, 3), "5a158cd053463905", 6),
            120: ((YES, 15, 27, 3), "b77fcd9ff324094b", 3),
        }
        calls = []
        find_biskip = solver_mod.find_biskip
        monkeypatch.setattr(solver_mod, "find_biskip",
                            lambda *a: calls.append(1) or find_biskip(*a))
        for n, (pin, digest, searches) in pins.items():
            calls.clear()
            g = gen_planted_yes(n, n // 4, BaseFamily("beta", 1), 3)
            v = solve_em(g, n // 4, SolverParams(beta_hint=1, t_override=4))
            assert (v.status, v.iterations, v.phase1_r, v.L_used) == pin
            edges = repr(v.witness.sorted_edges()).encode()
            assert hashlib.sha256(edges).hexdigest()[:16] == digest
            assert len(calls) == searches


def forbid_the_oracle(monkeypatch):
    """Make both independence oracles raise, for solves that must not read
    the bound."""
    def forbidden(graph, *args, **kwargs):
        raise AssertionError("the walk read a bound it does not need")
    monkeypatch.setattr(solver_mod, "independence_number", forbidden)
    monkeypatch.setattr(solver_mod, "bipartite_independence_number", forbidden)


def count_oracle_calls(monkeypatch):
    calls = []
    oracle = solver_mod.independence_number
    monkeypatch.setattr(solver_mod, "independence_number",
                        lambda graph, *a, **kw: calls.append(graph) or oracle(graph, *a, **kw))
    return calls


class TestBoundOnDemand:
    """The engines run first; the walk reads the bound only when its loop test
    can pass under the threshold of bound 1 (8, or 512 when bipartite)."""

    def test_engine_verdicts_read_no_bound(self, monkeypatch, c4, k33):
        forbid_the_oracle(monkeypatch)
        star = ColoredGraph.from_edges(4, [(0, 1, RED), (0, 2, RED), (0, 3, RED)])
        red4 = ColoredGraph.from_edges(4, [(0, 1, RED), (1, 2, RED), (2, 3, RED), (0, 3, RED)])
        cases = [
            # A certified_no pool core: G(12, 0.6) seed 0, red range [0, 3].
            (random_colored_graph(12, 0.6, 0), 4, NO_CERTIFIED,
             "k outside the red-count range [0, 3]"),
            (star, 0, NO_CERTIFIED, "graph has no perfect matching"),
            (red4, 1, NO_CERTIFIED, "k outside the red-count range [2, 2]"),
            (k33, 1, NO_CERTIFIED, "k outside the red-count range [0, 0]"),
            # Yes-instances with r(low) > k - 8: the walk never starts.
            (c4, 2, YES, None),
            (k33, 0, YES, None),
            (random_colored_graph(12, 0.6, 0), 2, YES, None),
            # Red range [0, 20]: r(low) <= k - 8, but the bipartite walk
            # needs r(low) <= k - 512.
            (gen_planted_yes(40, 10, BaseFamily("beta", 1), 0), 10, YES, None),
        ]
        for g, k, status, reason in cases:
            v = solve_em(g, k)
            assert (v.status, v.reason, v.iterations) == (status, reason, 0)
        # walk_bound measures the bound that the walk did not read.
        run_phase1(c4, 2)
        with pytest.raises(AssertionError, match="does not need"):
            walk_bound(c4)

    def test_an_exhausted_search_reads_no_bound(self, monkeypatch, c4):
        # Both in their red-count range, certified by phase 2 alone: C_4's
        # lattice excludes k = 1, and the bridged union's allows k = 4, so
        # its search runs to exhaustion.
        forbid_the_oracle(monkeypatch)
        v = solve_em(c4, 1)
        assert (v.L_used, v.reason) == (0, "k outside the red-count lattice")
        v = solve_em(cycle_union((3, 5, 7), bridged=True), 4)
        assert (v.L_used, v.reason) == (30, "exhausted the certified search radius")

    def test_t_override_walk_reads_no_bound(self, monkeypatch):
        forbid_the_oracle(monkeypatch)
        for bipartite in (False, True):
            res = run_phase1(double_c4(bipartite), 2, SolverParams(t_override=2))
            assert (res.iterations, res.matching.red_count) == (1, 2)
            hinted = SolverParams(alpha_hint=1, beta_hint=1, t_override=2)
            assert walk_bound(double_c4(bipartite), hinted) == (1, 2)

    @pytest.mark.parametrize("k, r", [(8, 6), (10, 10)])
    def test_a_walk_that_iterates_measures_once(self, monkeypatch, k, r):
        # Red range [0, 12] and measured alpha 1; k=8 has r(low) = k - 8.
        calls = count_oracle_calls(monkeypatch)
        g = gen_planted_yes(24, k, BaseFamily("alpha", 1), 0)
        res = run_phase1(g, k)
        assert (res.iterations, res.matching.red_count, len(calls)) == (1, r, 1)
        # The result keeps no bound: walk_bound measures it again.
        assert (walk_bound(g), len(calls)) == ((1, 8), 2)

    def test_hints_are_checked_before_the_engines(self, monkeypatch, c4, k33):
        def engine(graph):
            raise AssertionError("an engine ran before the hint was checked")
        monkeypatch.setattr(solver_mod, "min_red_pm", engine)
        with pytest.raises(ConfigurationError, match="alpha hint must be >= 1, got 0"):
            solve_em(c4, 2, SolverParams(alpha_hint=0))
        with pytest.raises(ConfigurationError, match="beta hint must be >= 1, got -1"):
            run_phase1(k33, 0, SolverParams(beta_hint=-1))

    def test_unmeasurable_bound_under_t_override_names_it(self):
        # The chordless alternating 42-cycle has no skip.  Its alpha, 21,
        # counts as a* = 2, so the guaranteed threshold it names is 32.
        c42 = ColoredGraph.from_edges(
            42, [(i, (i + 1) % 42, RED if i % 2 == 0 else BLUE) for i in range(42)])
        with pytest.raises(SkipSearchError) as exc:
            run_phase1(c42, 10, SolverParams(t_override=0))
        assert str(exc.value) == (
            "no negative skip on a heavy cycle; t_override (--t-override) 0 is below "
            "the guaranteed threshold 32")

    def test_a_walk_under_an_unprinted_threshold_stops_at_once(self):
        # On the alternating 7,200-cycle at k = 10 the loop test passes under
        # the threshold 8, so the walk reads its bound.  The hint 7,200 would
        # give 2 * 4^7200 = 2^14401, too long to print; it counts as a* = 6,
        # whose threshold 2^13 exceeds n / 2, and the walk returns low.
        n = 7200
        c = ColoredGraph.from_edges(
            n, [(i, (i + 1) % n, RED if i % 2 == 0 else BLUE) for i in range(n)])
        params = SolverParams(alpha_hint=n)
        assert walk_bound(c, params) == (6, 2 ** 13)
        res = run_phase1(c, 10, params)
        assert (res.iterations, res.matching.red_count, res.red_range) == (0, 0, (0, n // 2))


class TestVerdictWithoutHint:
    """G(60, 0.3) seed 1 and two variants of it, above the exact oracle's
    cap: no verdict needs a hint."""

    @pytest.fixture
    def g60(self):
        return random_colored_graph(60, 0.3, 1)

    def test_no_perfect_matching(self, g60):
        g = ColoredGraph.from_edges(
            60, [(u, v, c) for (u, v), c in g60.colors.items() if 0 not in (u, v)])
        v = solve_em(g, 10)
        assert (v.status, v.reason) == (NO_CERTIFIED, "graph has no perfect matching")

    def test_all_blue_is_outside_the_range(self, g60):
        g = ColoredGraph.from_edges(60, [(u, v, BLUE) for u, v in g60.colors])
        v = solve_em(g, 10)
        assert (v.status, v.reason) == (NO_CERTIFIED, "k outside the red-count range [0, 0]")

    @pytest.mark.parametrize("k", [0, 30])
    def test_range_ends_are_yes(self, g60, k):
        v = solve_em(g60, k)
        assert (v.status, v.iterations) == (YES, 0)
        assert solver_mod._verified(g60, v.witness, k, "test") is v.witness

    def test_a_walk_that_needs_alpha_still_raises(self, g60):
        # Red range [0, 30]: at k=10 the walk reads alpha, measured up to
        # a* = 2.  The threshold 32 exceeds n / 2, as it does under any
        # larger bound, so the verdict and witness are those of --alpha 60.
        v = solve_em(g60, 10)
        assert (v.status, v.L_used, v.phase1_r, v.iterations) == (YES, 10, 0, 0)
        witness = json.dumps(v.to_json_dict()["witness"]).encode()
        assert hashlib.sha256(witness).hexdigest() == (
            "0df94594a2eee184b55538d7963eceffbcd59be20bd60ee20e36b673572153c0")
        assert v == solve_em(g60, 10, SolverParams(alpha_hint=60))


# -- phase 2: single-guess recovery -------------------------------------------------


class TestRecovery:
    def test_successful_red_guess(self, c4):
        blue_pm = PerfectMatching.from_edges(c4, [(1, 2), (0, 3)])
        ctx = solver_mod._make_context(c4, blue_pm, 2, RED)
        got = solver_mod._recover(ctx, ((0, 1), (2, 3)))
        assert got is not None
        assert got.red_count == 2
        assert validate_matching(c4, got)

    def test_successful_blue_guess(self, c4):
        red_pm = PerfectMatching.from_edges(c4, [(0, 1), (2, 3)])
        ctx = solver_mod._make_context(c4, red_pm, 0, BLUE)
        got = solver_mod._recover(ctx, ((0, 3), (1, 2)))
        assert got is not None and got.red_count == 0

    def test_wrong_size_returns_none(self, c4):
        # Recovery never sees a guess whose proposal misses the target size:
        # the stream yields none at the sizes that cannot reach it.
        blue_pm = PerfectMatching.from_edges(c4, [(1, 2), (0, 3)])
        ctx = solver_mod._make_context(c4, blue_pm, 2, RED)
        assert [list(solver_mod._guesses(ctx, size)) for size in range(4)] == [
            [], [], [((0, 1), (2, 3))], []]

    def test_clashing_proposal_returns_none(self, k4_red):
        # The guess ((0, 2), (2, 3)) proposes {(0, 1), (0, 2)}: the right size,
        # but two edges share vertex 0, so the stream never yields it.
        pm = PerfectMatching.from_edges(k4_red, [(0, 1), (2, 3)])
        ctx = solver_mod._make_context(k4_red, pm, 2, RED)
        assert list(solver_mod._guesses(ctx, 2)) == []
        assert list(solver_mod._guesses(ctx, 4)) == [
            ((0, 1), (0, 2), (1, 3), (2, 3)), ((0, 1), (0, 3), (1, 2), (2, 3))]

    def test_incompletable_returns_none(self, c4):
        blue_pm = PerfectMatching.from_edges(c4, [(1, 2), (0, 3)])
        ctx = solver_mod._make_context(c4, blue_pm, 1, RED)
        assert ((0, 1),) in solver_mod._guesses(ctx, 1)
        assert solver_mod._recover(ctx, ((0, 1),)) is None

    def test_completion_agrees_with_enumeration(self):
        # Completion on opposite-color remainders against the oracles, which
        # see the remainder relabeled in order onto 0..len-1: the first
        # perfect matching enumerated is the lexicographically first one.
        rng = random.Random(5)
        exists = 0
        for seed in range(40):
            n = rng.choice((6, 8, 10, 12))
            g = random_colored_graph(n, rng.choice((0.3, 0.6, 0.9)), seed)
            for other, flag in ((BLUE, 0), (RED, 1)):
                adjacency = color_adjacency(g, other)
                for _ in range(4):
                    free = sorted(rng.sample(range(n), 2 * rng.randint(0, n // 2)))
                    index = {v: i for i, v in enumerate(free)}
                    sub = ColoredGraph(len(free), {
                        (index[u], index[v]): other
                        for u in free for v in adjacency[u]
                        if u < v and v in index})
                    got = solver_mod.perfect_matching_on_adjacency(g.neighbor_index, free, flag)
                    assert (got is not None) == (count_perfect_matchings(sub) > 0)
                    first = next(enumerate_perfect_matchings(sub), None)
                    want = None if first is None else tuple(
                        sorted((free[a], free[b]) for a, b in first.edges))
                    assert got == want
                    exists += bool(free) and got is not None
        assert exists > 50

    def test_context_matches_full_scan_reference(self):
        # Every field and cached view against ones built from a full scan of
        # graph.colors, for both colors, on min-red, max-red and random
        # perfect matchings.  Making a context builds none of its cached
        # properties.
        rng = random.Random(23)
        checked = 0
        for seed in range(40):
            n = rng.choice((0, 2, 4, 6, 8, 10, 12))
            make = random_bipartite_colored_graph if seed % 3 == 0 else random_colored_graph
            g = make(n, rng.choice((0.3, 0.6, 0.9)), seed)
            matchings = list(enumerate_perfect_matchings(g))
            if not matchings:
                continue
            anchors = [solver_mod.min_red_pm(g), solver_mod.max_red_pm(g),
                       rng.choice(matchings)]
            for pm in anchors:
                for color in (RED, BLUE):
                    check_context(g, pm, rng.randint(0, n // 2), color)
                    checked += 1
        assert checked > 150
        # Fresh graphs up to n=20, general and bipartite, sparse to dense:
        # the views come from graph.colors alone, so building them builds
        # no neighbor index.
        empty = PerfectMatching(frozenset(), 0)
        for make in (random_colored_graph, random_bipartite_colored_graph):
            for seed in range(40):
                g = make(2 * (seed % 11), (0.1, 0.4, 0.8)[seed % 3], seed)
                for color in (RED, BLUE):
                    check_context(g, empty, 0, color)
                assert "neighbor_index" not in vars(g)


CACHED_VIEWS = ("color_edges", "layout")


def reference_context(graph, matching, k, color):
    """``_make_context``'s fields and the cached views ``color_edges`` and
    ``layout`` by name, from full scans of ``graph.colors``: the sorted
    color class, and the base flags and indices read off the whole class."""
    color_edges = tuple(e for e, c in graph.colors.items() if c == color)
    base = frozenset(e for e in matching.edges if graph.colors[e] == color)
    is_base = tuple(e in base for e in color_edges)
    base_of = [-1] * graph.n
    for j, (u, v) in enumerate(color_edges):
        if is_base[j]:
            base_of[u] = base_of[v] = j
    base_left = tuple(sum(is_base[j:]) for j in range(len(is_base) + 1))
    return {
        "graph": graph, "k": k, "target": k if color == RED else graph.n // 2 - k,
        "base": base, "color": color, "color_edges": color_edges,
        "layout": (is_base, tuple(base_of), base_left),
    }


def check_context(graph, matching, k, color):
    """Make a context and check that it has built no cached view, that its
    fields and views equal ``reference_context``'s, that the color class is
    a tuple in ascending order, and that a second read of each view returns
    the same object."""
    ctx = solver_mod._make_context(graph, matching, k, color)
    assert not set(CACHED_VIEWS) & vars(ctx).keys()
    got = {field.name: getattr(ctx, field.name) for field in dataclasses.fields(ctx)}
    for name in CACHED_VIEWS:
        got[name] = getattr(ctx, name)
    want = reference_context(graph, matching, k, color)
    assert got.keys() == want.keys()
    for name, value in want.items():
        assert got[name] == value, name
    assert type(ctx.color_edges) is tuple and list(ctx.color_edges) == sorted(ctx.color_edges)
    for name in CACHED_VIEWS:
        assert getattr(ctx, name) is got[name], name


# -- phase 2: the guess stream ------------------------------------------------------


def naive_guesses(ctx, limit):
    """Reference enumeration: every subset of the color class up to the size
    limit, in (size, lex) order, that proposes exactly the target size."""
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
                        for size in range(n + 1):
                            assert list(solver_mod._guesses(ctx, size)) == [
                                guess for s, guess in want if s == size]

    def test_first_witness_matches_naive_first_success(self):
        hits = 0
        for seed in range(10):
            g = random_colored_graph(10, 0.6, seed + 50)
            pm = solver_mod.min_red_pm(g)
            if pm is None or em_decide_bruteforce(g, 2) is None:
                continue
            ctx = solver_mod._make_context(g, pm, 2, RED)
            recovered = (solver_mod._recover(ctx, guess)
                         for _, guess in naive_guesses(ctx, g.n)
                         if disjoint_proposal(ctx, guess))
            want = next((got for got in recovered if got is not None), None)
            _, got = first_success((ctx,), g.n)
            assert got.red_count == 2
            assert got == want
            hits += 1
        assert hits > 0

    def test_witness_contract_matches_naive_reference(self):
        # solve_em: guesses by size, red before blue, lex; first_success on
        # one context: the same over one color.  Both against plain
        # combinations.  The reason tells the certificates apart, and the
        # cap n // 2 lets a capped search try guesses before it stops.
        outcomes = set()
        for n, p in ((6, 0.6), (8, 0.5), (10, 0.4)):
            for seed in range(6):
                g = random_colored_graph(n, p, seed + 100)
                pm = solver_mod.min_red_pm(g)
                for k in range(n // 2 + 1):
                    for cap in (None, 2, n // 2):
                        params = SolverParams(L_cap=cap)
                        v = solve_em(g, k, params)
                        want = naive_solve(g, k, params)
                        assert (v.status, v.witness, v.L_used, v.reason) == want
                        outcomes.add((v.status, v.L_used > 0, v.reason))
                    if pm is None:
                        continue
                    for color in (RED, BLUE):
                        ctx = solver_mod._make_context(g, pm, k, color)
                        assert first_success((ctx,), n) == naive_first_success([ctx], n)
        assert {(YES, True, None), (YES, False, None),
                (NO_CERTIFIED, True, "exhausted the certified search radius"),
                (NO_CERTIFIED, False, "k outside the red-count lattice"),
                (UNKNOWN, True, "search exhausted at guess-size budget 2")} <= outcomes


def lattice_set(g):
    low, high = solver_mod.min_red_pm(g), solver_mod.max_red_pm(g)
    mask = solver_mod.red_count_lattice(g, low, high)
    assert mask < 1 << (g.n // 2 + 1)
    return {r for r in range(g.n // 2 + 1) if mask >> r & 1}


class TestRedCountLattice:
    def test_holds_every_red_count(self):
        # Sound on every graph; on these it certifies 27 of the 72 counts
        # strictly between the least and the greatest that no perfect
        # matching has.
        graphs = holes = certified = 0
        for n in (6, 8, 10, 12):
            for p in (0.25, 0.45, 0.7):
                for seed in range(120):
                    for make in (random_colored_graph, random_bipartite_colored_graph):
                        g = make(n, p, seed)
                        counts = perfect_matching_red_counts(g)
                        if not counts:
                            continue
                        allowed = lattice_set(g)
                        assert counts <= allowed
                        graphs += 1
                        gaps = set(range(min(counts), max(counts) + 1)) - counts
                        holes += len(gaps)
                        certified += len(gaps - allowed)
        assert (graphs, holes) == (1781, 72)
        assert certified >= 27

    def test_matches_its_definition(self):
        # The one-pass gcd against trying each modulus and each constant.
        graphs = [make(n, p, seed) for n in (6, 8, 10) for p in (0.25, 0.45, 0.7)
                  for seed in range(10)
                  for make in (random_colored_graph, random_bipartite_colored_graph)]
        graphs += [parity_graph(n, split) for n in (6, 8, 10) for split in range(1, n)]
        graphs += [cycle_union(h, bridged) for h in ((2,), (3,), (5,), (2, 3), (2, 2, 3))
                   for bridged in (False, True)]
        checked = 0
        for g in graphs:
            if solver_mod.min_red_pm(g) is None:
                continue
            assert lattice_set(g) == naive_lattice(g)
            checked += 1
        assert checked > 100

    def test_cycle_unions_give_their_subset_sums(self):
        assert lattice_set(cycle_union((500,))) == {0, 500}
        assert lattice_set(cycle_union((3, 5, 7))) == {0, 3, 5, 7, 8, 10, 12, 15}
        assert lattice_set(parity_graph(100, 10)) == set(range(0, 11, 2))
        # The bridges take no part in a perfect matching, but they break
        # every potential, so only the range is left.
        assert lattice_set(cycle_union((3, 5, 7), bridged=True)) == set(range(16))

    def test_same_side_edges_fix_the_constant_with_opposite_signs(self):
        # Its DFS tree puts edge (1, 2) between two even-depth vertices and
        # (3, 5) between two odd-depth ones, which fix c with opposite
        # signs; taken with one sign, they would agree only mod 1.
        g = ColoredGraph.from_edges(6, [
            (0, 3, RED), (0, 4, BLUE), (0, 5, RED), (1, 2, BLUE),
            (1, 3, RED), (1, 4, BLUE), (2, 4, RED), (3, 5, BLUE)])
        assert perfect_matching_red_counts(g) == {0, 3}
        assert lattice_set(g) == naive_lattice(g) == {0, 3}


class TestSearch:
    """``_candidates`` on one context, walked through ``_recover``: the first
    success within a size limit."""

    def test_finds_witness_within_limit(self, c4):
        blue_pm = PerfectMatching.from_edges(c4, [(1, 2), (0, 3)])
        size, got = first_success((solver_mod._make_context(c4, blue_pm, 2, RED),), 2)
        assert size == 2 and got.red_count == 2

    def test_respects_limit(self, c4):
        blue_pm = PerfectMatching.from_edges(c4, [(1, 2), (0, 3)])
        assert first_success((solver_mod._make_context(c4, blue_pm, 2, RED),), 1) is None


# -- the full solver ----------------------------------------------------------------


def count_phase2_work(monkeypatch):
    """Wrap ``_recover`` and ``red_count_lattice`` in ``solver_mod``; the
    returned lists collect each recovery's result and one entry per lattice
    build."""
    recovered, builds = [], []
    recover, lattice = solver_mod._recover, solver_mod.red_count_lattice

    def counted_recover(ctx, guess):
        recovered.append(recover(ctx, guess))
        return recovered[-1]

    monkeypatch.setattr(solver_mod, "_recover", counted_recover)
    monkeypatch.setattr(solver_mod, "red_count_lattice",
                        lambda *args: builds.append(1) or lattice(*args))
    return recovered, builds


def assert_certified_by_the_lattice(monkeypatch, g, k, alpha):
    # The first failed recovery builds the lattice, which excludes k, so no
    # other guess is recovered.
    recovered, builds = count_phase2_work(monkeypatch)
    v = solve_em(g, k, SolverParams(alpha_hint=alpha))
    assert (v.status, v.L_used, v.reason, v.witness) == (
        NO_CERTIFIED, 0, "k outside the red-count lattice", None)
    assert (recovered, len(builds)) == ([None], 1)


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

    def test_budget_exhaustion_is_unknown(self, k4_mixed):
        # k=1 lies in the lattice, and its witness needs a guess of size 2.
        v = solve_em(k4_mixed, 1, SolverParams(L_cap=0))
        assert v.status == UNKNOWN
        assert v.L_used == 0
        assert solve_em(k4_mixed, 1, SolverParams(L_cap=2)).status == YES

    def test_uncapped_exhaustion_is_certified(self, c4):
        # C_4's red counts are 0 and 2, and its lattice excludes 1, so the
        # lattice names the verdict.  The bridged union's lattice allows
        # k = 4, so only exhausting the search certifies it.
        v = solve_em(c4, 1)
        assert (v.status, v.L_used, v.reason) == (
            NO_CERTIFIED, 0, "k outside the red-count lattice")
        v = solve_em(cycle_union((3, 5, 7), bridged=True), 4)
        assert (v.status, v.L_used, v.reason) == (
            NO_CERTIFIED, 30, "exhausted the certified search radius")    # min(n, radius)

    def test_negative_cap_rejected(self, c4):
        with pytest.raises(ConfigurationError):
            solve_em(c4, 1, SolverParams(L_cap=-1))
        # Checked when the params are built, so phase 1 alone, which reads
        # no cap, rejects it too.
        with pytest.raises(ConfigurationError, match="L_cap must be >= 0, got -1"):
            SolverParams(L_cap=-1)
        with pytest.raises(ConfigurationError, match="L_cap must be >= 0, got -1"):
            run_phase1(c4, 2, SolverParams(L_cap=-1))
        assert SolverParams(L_cap=0).L_cap == 0

    def test_skip_search_failure_propagates(self):
        with pytest.raises(SkipSearchError):
            solve_em(double_c4(), 2, SolverParams(t_override=1))

    def test_phase2_witness_red_count_is_recounted(self, c4, monkeypatch):
        # A perfect matching with two reds, stamped as one.
        wrong = PerfectMatching(frozenset({(0, 1), (2, 3)}), 1)
        monkeypatch.setattr(solver_mod, "_recover", lambda ctx, guess: wrong)
        with pytest.raises(SolverError):
            solve_em(c4, 1)

    def test_phase1_witness_red_count_is_recounted(self, c4, monkeypatch):
        wrong = PerfectMatching(frozenset({(0, 1), (2, 3)}), 1)
        monkeypatch.setattr(solver_mod, "max_red_pm", lambda graph: wrong)
        with pytest.raises(SolverError):
            solve_em(c4, 1)

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

    def test_matches_red_count_oracle_beyond_enumeration(self):
        # Dense random graphs have no k inside their red-count range that no
        # perfect matching hits, so the in-range no-instances come from
        # sparse random graphs, from parity graphs (odd k, even split) and
        # from bridged cycle unions, whose lattices allow every k in range.
        # Each gets exactly one reason: the lattice when it excludes k,
        # exhaustion otherwise.
        graphs = [random_colored_graph(n, p, seed)
                  for n in (14, 16, 18) for p in (0.3, 0.6, 0.9) for seed in range(4)]
        graphs += [random_colored_graph(n, 0.2, seed) for n in (16, 18, 20) for seed in range(8)]
        graphs += [parity_graph(n, split) for n in (14, 16, 18, 20)
                   for split in range(2, n // 2 + 1, 2)]
        graphs += [cycle_union(halves, bridged=True) for halves in ((3, 5), (2, 7), (4, 5))]
        exhausted = latticed = ranged = 0
        for g in graphs:
            counts = perfect_matching_red_counts(g)
            allowed = naive_lattice(g) if counts else set()
            for k in range(g.n // 2 + 1):
                v = solve_em(g, k)
                if k in counts:
                    assert v.status == YES
                    assert validate_matching(g, v.witness) and v.witness.red_count == k
                elif not counts:
                    assert (v.status, v.reason) == (
                        NO_CERTIFIED, "graph has no perfect matching")
                elif not min(counts) <= k <= max(counts):
                    assert (v.status, v.L_used, v.reason) == (
                        NO_CERTIFIED, 0,
                        f"k outside the red-count range [{min(counts)}, {max(counts)}]")
                    ranged += 1
                elif k not in allowed:
                    assert (v.status, v.L_used, v.reason) == (
                        NO_CERTIFIED, 0, "k outside the red-count lattice")
                    latticed += 1
                else:
                    assert (v.status, v.L_used, v.reason) == (
                        NO_CERTIFIED, g.n, "exhausted the certified search radius")
                    exhausted += 1
        assert exhausted >= 10
        assert latticed >= 30
        assert ranged >= 150

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

    def test_dense_yes_instance_recovers_with_one_guess(self, monkeypatch):
        # Phase 1 ends at r = 0, so every guess below |k - r| = 30 has a
        # negative removal or addition count: the stream asks for size 30
        # first, in the red context, and its first guess succeeds.  The
        # completion's four augmenting-path searches are those of the
        # highest-first scan; an ascending scan makes seven.
        sizes, searches = [], []
        guesses, augment = solver_mod._guesses, engines._augment
        monkeypatch.setattr(solver_mod, "_guesses",
                            lambda ctx, size: sizes.append(size) or guesses(ctx, size))
        monkeypatch.setattr(engines, "_augment",
                            lambda *args: searches.append(1) or augment(*args))
        g = gen_planted_yes(120, 30, BaseFamily("beta", 2), 1)
        v = solve_em(g, 30, SolverParams(beta_hint=2))
        edges = repr(v.witness.sorted_edges()).encode()
        assert (v.status, v.L_used, v.phase1_r) == (YES, 30, 0)
        assert hashlib.sha256(edges).hexdigest() == (
            "f585fd13ae4df44fd5cc3a83bc86dfb4b20a0ef6f31d80c7117d19c7d787d2aa")
        assert sizes == [30]
        assert len(searches) == 4

    def test_parity_instance_is_certified_no(self):
        v = solve_em(parity_graph(14, 4), 1, SolverParams(alpha_hint=1))
        assert (v.status, v.L_used, v.reason) == (
            NO_CERTIFIED, 0, "k outside the red-count lattice")

    @pytest.mark.parametrize("n, split, k", [
        (16, 4, 1), (20, 6, 1), (20, 4, 3), (24, 8, 1), (28, 4, 1), (28, 14, 1)])
    def test_parity_no_instances_stop_early(self, n, split, k, monkeypatch):
        # Odd k with an even split: no completion can succeed, so the first
        # recovery is one failed completion, and the lattice (d = 2) built
        # there certifies each before size min(r + k, n - r - k).
        sizes, completions = [], []
        guesses, complete = solver_mod._guesses, solver_mod.perfect_matching_on_adjacency
        monkeypatch.setattr(solver_mod, "_guesses",
                            lambda ctx, size: sizes.append(size) or guesses(ctx, size))
        monkeypatch.setattr(solver_mod, "perfect_matching_on_adjacency",
                            lambda *args: completions.append(1) or complete(*args))
        g = parity_graph(n, split)
        v = solve_em(g, k, SolverParams(alpha_hint=1))
        r = v.phase1_r
        assert (v.status, v.L_used, v.reason) == (
            NO_CERTIFIED, 0, "k outside the red-count lattice")
        assert max(sizes) <= min(r + k, n - r - k)
        assert len(completions) == 1
        if n <= 24:
            assert k not in perfect_matching_red_counts(g, max_n=n)

    @pytest.mark.parametrize("k", [4, 6])
    def test_bridged_unions_exhaust_past_the_trigger(self, k, monkeypatch):
        # The (3, 5, 7) union's red counts are its subset sums, which miss 4
        # and 6, but its bridges break every potential, so the lattice built
        # at the first failed recovery excludes nothing and the search
        # recovers every guess up to its early stop, size
        # min(r + k, n - r - k): thousands of guesses, far past 64, each
        # tested by one completion.
        sizes, calls, completions = [], [], []
        guesses, recover = solver_mod._guesses, solver_mod._recover
        complete = solver_mod.perfect_matching_on_adjacency
        monkeypatch.setattr(solver_mod, "_guesses",
                            lambda ctx, size: sizes.append(size) or guesses(ctx, size))
        monkeypatch.setattr(solver_mod, "_recover",
                            lambda ctx, guess: calls.append(1) or recover(ctx, guess))
        monkeypatch.setattr(solver_mod, "perfect_matching_on_adjacency",
                            lambda *args: completions.append(1) or complete(*args))
        g = cycle_union((3, 5, 7), bridged=True)
        v = solve_em(g, k, SolverParams(alpha_hint=7))
        assert (v.status, v.L_used, v.reason) == (
            NO_CERTIFIED, g.n, "exhausted the certified search radius")
        n, r = g.n, v.phase1_r
        assert max(sizes) == min(r + k, n - r - k)
        assert len(calls) == len(completions) == {4: 2730, 6: 10010}[k]

    @pytest.mark.parametrize("n, split, k", [
        (16, 2, 3), (24, 2, 5), (26, 2, 7), (32, 4, 7), (40, 6, 9), (40, 10, 12)])
    def test_out_of_range_instances_are_certified_before_phase_2(self, n, split, k, monkeypatch):
        # Every perfect matching of the parity graph has at most
        # min(split, n - split) red edges, and k lies above that.
        calls = []
        guesses = solver_mod._guesses
        monkeypatch.setattr(solver_mod, "_guesses",
                            lambda ctx, size: calls.append(size) or guesses(ctx, size))
        v = solve_em(parity_graph(n, split), k, SolverParams(alpha_hint=1))
        assert (v.status, v.L_used, v.reason, v.witness) == (
            NO_CERTIFIED, 0, f"k outside the red-count range [0, {split}]", None)
        assert v.phase1_r == split
        assert not calls

    def test_range_certificate_holds_under_a_cap(self):
        # No search is involved, so a cap does not turn it into unknown.
        g = parity_graph(16, 2)
        for cap in (0, 2, 16):
            v = solve_em(g, 3, SolverParams(alpha_hint=1, L_cap=cap))
            assert (v.status, v.L_used) == (NO_CERTIFIED, 0)

    @pytest.mark.parametrize("n, split, k", [
        (20, 6, 5), (24, 6, 5), (28, 8, 5), (40, 8, 7), (60, 10, 7), (100, 10, 9),
        (100, 50, 25)])
    def test_in_range_parity_no_instances_certify_by_the_lattice(self, n, split, k, monkeypatch):
        # No completion can succeed.  The lattice (d = 2) built after the
        # first failed one excludes k, so recovery runs once where the
        # full search would enumerate millions of guesses.
        assert_certified_by_the_lattice(monkeypatch, parity_graph(n, split), k, 1)

    @pytest.mark.parametrize("halves, k", [
        ((13,), 6), ((21,), 10), ((50,), 1), ((100,), 37), ((500,), 1), ((500,), 250),
        ((5, 7, 9), 6), ((7, 9, 11), 10), ((5, 7, 9, 11), 13)],
        ids=lambda x: ",".join(map(str, x)) if isinstance(x, tuple) else str(x))
    def test_cycle_unions_certify_by_the_lattice(self, halves, k, monkeypatch):
        # C_2a has d = a, so a union's lattice is the subset sums of its
        # half-lengths.  C_42 alone takes 705,432 recoveries to exhaust.
        assert_certified_by_the_lattice(monkeypatch, cycle_union(halves), k, max(halves))

    @pytest.mark.parametrize("g, k, alpha, reason, recoveries", [
        (parity_graph(20, 6), 5, 1, "k outside the red-count lattice", 1),
        (cycle_union((13,)), 6, 13, "k outside the red-count lattice", 1),
        (parity_graph(16, 4), 1, 1, "k outside the red-count lattice", 1),
        (cycle_union((3, 5, 7), bridged=True), 4, 7,
         "exhausted the certified search radius", 2730),
        (lift_to_dense(parity_graph(16, 4)), 3, 1,
         "exhausted the certified search radius", 5364),
    ], ids=["parity-20-6", "C26", "parity-16-4", "bridged-3-5-7", "lifted-parity-16-4"])
    def test_recovery_stops_once_the_lattice_excludes_k(
            self, g, k, alpha, reason, recoveries, monkeypatch):
        # The first failed recovery builds the lattice.  Where it excludes k
        # the search recovers nothing more and names the lattice.  The
        # bridged union's bridges and the lift's blue hub break every
        # potential, so their lattices allow k, every guess is recovered and
        # only exhaustion certifies them.
        recovered, builds = count_phase2_work(monkeypatch)
        v = solve_em(g, k, SolverParams(alpha_hint=alpha))
        l_used = g.n if reason.startswith("exhausted") else 0
        assert (v.status, v.L_used, v.reason) == (NO_CERTIFIED, l_used, reason)
        assert (len(recovered), len(builds)) == (recoveries, 1)

    @pytest.mark.parametrize("cap", [None, 10])
    def test_a_search_stops_pulling_once_the_lattice_excludes_k(self, cap, monkeypatch):
        # The lattice excludes k at the first failed recovery, and it names
        # the verdict whatever the cap, so the search pulls no further guess.
        recovered, builds = count_phase2_work(monkeypatch)
        guesses, got = solver_mod._guesses, []

        def counted(ctx, size):
            for guess in guesses(ctx, size):
                got.append(guess)
                yield guess

        monkeypatch.setattr(solver_mod, "_guesses", counted)
        v = solve_em(parity_graph(20, 6), 5, SolverParams(alpha_hint=1, L_cap=cap))
        assert (v.status, v.L_used, v.reason) == (
            NO_CERTIFIED, 0, "k outside the red-count lattice")
        assert (len(got), len(recovered), len(builds)) == (1, 1, 1)

    def test_a_failed_first_recovery_keeps_the_witness(self, monkeypatch):
        # The lattice built after the first failure allows k, so the search
        # goes on to the same witness as with no lattice at all.
        recovered, builds = count_phase2_work(monkeypatch)
        g = gen_planted_yes(20, 5, BaseFamily("beta", 1), 1020)
        v = solve_em(g, 5, SolverParams(beta_hint=1))
        assert (v.status, v.L_used, v.phase1_r) == (YES, 5, 0)
        assert v.witness.sorted_edges() == [
            (0, 11), (1, 10), (2, 12), (3, 13), (4, 15),
            (5, 14), (6, 16), (7, 17), (8, 18), (9, 19)]
        assert recovered[0] is None and recovered[-1] == v.witness
        assert (len(recovered), len(builds)) == (5, 1)

    def test_lattice_is_built_at_most_once(self, monkeypatch):
        # C_26's perfect matchings have 0 and 13 red edges, so no size-6
        # guess succeeds.  Uncapped (and at the cap n) the search builds the
        # lattice at its first failed recovery; under the caps 0 and 2 no
        # guess fits, and the verdict rule after the search builds it.
        # Either way once.
        builds = []
        lattice = solver_mod.red_count_lattice
        monkeypatch.setattr(solver_mod, "red_count_lattice",
                            lambda *args: builds.append(1) or lattice(*args))
        g = cycle_union((13,))
        for cap in (None, 0, 2, 26):
            builds.clear()
            v = solve_em(g, 6, SolverParams(alpha_hint=13, L_cap=cap))
            assert (v.status, v.L_used, v.reason) == (
                NO_CERTIFIED, 0, "k outside the red-count lattice")
            assert len(builds) == 1
        # The bridged union's lattice allows k = 4.  Under the cap 2 no
        # guess fits, so the verdict rule builds it; under the cap 4 it is
        # built at the first failed recovery of 2,730 and the rule reads the
        # same answer before its unknown.
        for cap in (2, 4):
            builds.clear()
            v = solve_em(cycle_union((3, 5, 7), bridged=True), 4,
                         SolverParams(alpha_hint=7, L_cap=cap))
            assert (v.status, v.L_used) == (UNKNOWN, cap)
            assert len(builds) == 1
        # A search that succeeds at its first guess never builds it.
        builds.clear()
        v = solve_em(cycle_union((2, 3)), 2, SolverParams(alpha_hint=3))
        assert (v.status, v.L_used) == (YES, 2)
        assert not builds

    def test_lattice_certificate_holds_under_a_cap(self):
        # A capped search names the lattice whenever it excludes k, whether
        # or not it tried a guess.
        g = cycle_union((13,))
        for cap in (0, 2, 6, 26):
            v = solve_em(g, 6, SolverParams(alpha_hint=13, L_cap=cap))
            assert (v.status, v.L_used, v.reason) == (
                NO_CERTIFIED, 0, "k outside the red-count lattice")
        v = solve_em(cycle_union((3, 5, 7), bridged=True), 4, SolverParams(alpha_hint=7, L_cap=2))
        assert (v.status, v.L_used) == (UNKNOWN, 2)

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
