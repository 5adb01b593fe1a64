import dataclasses
import hashlib
import itertools
import json
import random

import networkx as nx
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
    perfect_matching_red_counts,
    random_bipartite_colored_graph,
    random_colored_graph,
    run_phase1,
    solve_em,
    validate_matching,
)
from exactmatching import BaseFamily
from exactmatching import solver as solver_mod

from ._support import (
    color_adjacency,
    first_success,
    full_scan_parity,
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
        assert res.bound == 2           # independence number of the four-cycle
        assert res.threshold == 2 * 4 ** 2

    def test_no_pm(self):
        g = ColoredGraph.from_edges(4, [(0, 1, RED), (0, 2, RED), (0, 3, RED)])
        res = run_phase1(g, 0)
        assert res.matching is None
        assert approx_em(g, 0) is None
        res = run_phase1(g, 0, SolverParams(alpha_hint=3))
        assert (res.matching, res.red_range, res.bound) == (None, None, 3)

    def test_walk_iterates_under_forced_threshold(self):
        g = double_c4()
        params = SolverParams(t_override=2)
        res = run_phase1(g, 2, params)
        assert res.iterations == 1
        assert res.matching.red_count == 2
        assert res.threshold == 2

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
        assert run_phase1(g, 0, SolverParams(alpha_hint=1, t_override=0)).threshold == 0

    def test_missing_shortcut_is_a_configuration_error(self):
        # A too-small hint or t_override is a setting, not a broken invariant.
        assert issubclass(SkipSearchError, ConfigurationError)
        assert not issubclass(SkipSearchError, SolverError)

    def test_bound_bookkeeping_bipartite(self):
        g = double_c4(bipartite=True)
        res = run_phase1(g, 0)
        assert res.bipartite
        assert res.threshold == 2 * 4 ** (2 * res.bound + 2)

    def test_hint_overrides_measurement(self, c4):
        res = run_phase1(c4, 2, SolverParams(alpha_hint=5))
        assert res.bound == 5
        assert res.threshold == 2 * 4 ** 5

    def test_bad_hints_rejected(self, c4, k33):
        with pytest.raises(ConfigurationError):
            run_phase1(c4, 2, SolverParams(alpha_hint=0))
        with pytest.raises(ConfigurationError):
            run_phase1(k33, 1, SolverParams(beta_hint=-1))

    def test_unmeasurable_bound_needs_hint(self):
        # Red range [0, 22]: the walk at k=11 reads the bound, the one at k=0
        # reads none, so there only reading the result's bound needs a hint.
        g = random_colored_graph(44, 0.5, 3)
        with pytest.raises(ConfigurationError, match=r"pass alpha_hint \(--alpha\)"):
            run_phase1(g, 11)
        res = run_phase1(g, 0)
        with pytest.raises(ConfigurationError, match=r"pass alpha_hint \(--alpha\)"):
            res.bound
        assert run_phase1(g, 0, SolverParams(alpha_hint=3)).bound == 3

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
        calls = []
        orient = solver_mod.orient
        monkeypatch.setattr(solver_mod, "orient", lambda *a: calls.append(1) or orient(*a))
        for seed in range(4):
            g = gen_planted_yes(40, 10, BaseFamily("beta", 1), seed)
            v = solve_em(g, 10, SolverParams(beta_hint=1))
            assert v.status == YES and v.iterations == 0
        assert calls == []

    def test_forced_bipartite_walk_is_pinned(self, monkeypatch):
        # Per size n (k = n/4): (status, iterations, phase1_r, L_used), the
        # witness digest and the number of biskip searches, recorded with the
        # orientation stored as a full arc set.  Every biskip search must get
        # the very graph and matching the preceding orient call checked.
        pins = {
            60: ((YES, 13, 12, 3), "5a158cd053463905", 6),
            120: ((YES, 15, 27, 3), "b77fcd9ff324094b", 3),
        }
        calls = {"orient": 0, "find_biskip": 0}
        checked = []
        orient, find_biskip = solver_mod.orient, solver_mod.find_biskip

        def counting_orient(graph, matching):
            calls["orient"] += 1
            checked.append((graph, matching))
            return orient(graph, matching)

        def checking_find_biskip(graph, matching, cycle, weights):
            calls["find_biskip"] += 1
            g, pm = checked.pop()
            assert graph is g and matching is pm
            return find_biskip(graph, matching, cycle, weights)

        monkeypatch.setattr(solver_mod, "orient", counting_orient)
        monkeypatch.setattr(solver_mod, "find_biskip", checking_find_biskip)
        for n, (pin, digest, searches) in pins.items():
            calls.update(orient=0, find_biskip=0)
            g = gen_planted_yes(n, n // 4, BaseFamily("beta", 1), 3)
            v = solve_em(g, n // 4, SolverParams(beta_hint=1, t_override=4))
            assert (v.status, v.iterations, v.phase1_r, v.L_used) == pin
            edges = repr(v.witness.sorted_edges()).encode()
            assert hashlib.sha256(edges).hexdigest()[:16] == digest
            assert calls == {"orient": searches, "find_biskip": searches}


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
                        lambda graph, *a: calls.append(graph) or oracle(graph, *a))
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
        # A bound that the walk does not read is measured on first read.
        with pytest.raises(AssertionError, match="does not need"):
            run_phase1(c4, 2).bound

    def test_an_exhausted_search_reads_no_bound(self, monkeypatch, c4):
        # In range [0, 2], certified by phase 2 alone.
        forbid_the_oracle(monkeypatch)
        assert solve_em(c4, 1).reason == "exhausted the certified search radius"

    def test_t_override_walk_reads_no_bound(self, monkeypatch):
        forbid_the_oracle(monkeypatch)
        for bipartite in (False, True):
            res = run_phase1(double_c4(bipartite), 2, SolverParams(t_override=2))
            assert (res.iterations, res.matching.red_count, res.threshold) == (1, 2, 2)

    @pytest.mark.parametrize("k, r", [(8, 6), (10, 10)])
    def test_a_walk_that_iterates_measures_once(self, monkeypatch, k, r):
        # Red range [0, 12] and measured alpha 1; k=8 has r(low) = k - 8.
        calls = count_oracle_calls(monkeypatch)
        g = gen_planted_yes(24, k, BaseFamily("alpha", 1), 0)
        res = run_phase1(g, k)
        assert (res.iterations, res.matching.red_count, len(calls)) == (1, r, 1)
        assert (res.bound, res.threshold, len(calls)) == (1, 8, 1)

    def test_reading_the_bound_twice_measures_once(self, monkeypatch, c4):
        calls = count_oracle_calls(monkeypatch)
        res = run_phase1(c4, 2)
        assert calls == []
        assert (res.bound, res.bound, res.threshold) == (2, 2, 32)
        assert len(calls) == 1

    def test_hints_are_checked_before_the_engines(self, monkeypatch, c4, k33):
        def engine(graph):
            raise AssertionError("an engine ran before the hint was checked")
        monkeypatch.setattr(solver_mod, "min_red_pm", engine)
        with pytest.raises(ConfigurationError, match="alpha hint must be >= 1, got 0"):
            solve_em(c4, 2, SolverParams(alpha_hint=0))
        with pytest.raises(ConfigurationError, match="beta hint must be >= 1, got -1"):
            run_phase1(k33, 0, SolverParams(beta_hint=-1))

    def test_unmeasurable_bound_under_t_override_names_it(self):
        # The chordless alternating 42-cycle has no skip, and at n=42 the
        # oracle cannot measure the alpha that would fix the guarantee.
        c42 = ColoredGraph.from_edges(
            42, [(i, (i + 1) % 42, RED if i % 2 == 0 else BLUE) for i in range(42)])
        with pytest.raises(SkipSearchError) as exc:
            run_phase1(c42, 10, SolverParams(t_override=0))
        assert str(exc.value).startswith(
            "no negative skip on a heavy cycle; t_override (--t-override) 0 is below "
            "the guaranteed threshold, which is unknown: cannot measure the alpha bound")
        assert str(exc.value).endswith("; pass alpha_hint (--alpha)")


class TestVerdictWithoutHint:
    """G(60, 0.3) seed 1 and two variants of it, above the oracle cap: a
    verdict that the engines or phase 1 decide needs no hint."""

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
        # Red range [0, 30]: at k=10 the walk reads alpha, which the oracle
        # cannot measure at n=60.
        with pytest.raises(ConfigurationError, match="cannot measure the alpha bound"):
            solve_em(g60, 10)


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

    def test_parity_labels_match_full_scan_reference(self):
        # Element for element against the DFS that scans every vertex's
        # neighbors in the opposite-color graph read off graph.colors, on
        # general and bipartite graphs from sparse to dense.
        # The dense ones label every vertex before their search ends, where
        # the labels skip the remaining scans.
        rng = random.Random(29)
        late = {False: 0, True: 0}
        for seed in range(120):
            n = rng.choice((2, 4, 8, 12, 16, 20))
            bipartite = seed % 2 == 0
            make = random_bipartite_colored_graph if bipartite else random_colored_graph
            g = make(n, rng.choice((0.1, 0.3, 0.6, 0.9, 1.0)), seed)
            for color, other in ((RED, BLUE), (BLUE, RED)):
                ctx = solver_mod._make_context(g, PerfectMatching(frozenset(), 0), 0, color)
                want, after = full_scan_parity(g.n, color_adjacency(g, other))
                assert ctx.parity == want
                late[bipartite] += after
        assert late[False] > 100 and late[True] > 100

    def test_parity_screen_matches_components(self):
        # Against networkx's components and 2-colorings of the whole
        # opposite-color graph: the screen rejects exactly the remainders
        # that leave a component odd or a bipartite one unbalanced, and
        # never one that completion can match.
        rng = random.Random(17)
        rejected = matched = 0
        for seed in range(60):
            n = rng.choice((4, 6, 8, 10, 12, 14))
            make = random_bipartite_colored_graph if seed % 3 == 0 else random_colored_graph
            g = make(n, rng.choice((0.15, 0.3, 0.6, 0.9)), seed)
            for color, flag in ((RED, 0), (BLUE, 1)):
                ctx = solver_mod._make_context(g, PerfectMatching(frozenset(), 0), 0, color)
                adjacency = color_adjacency(g, BLUE if color == RED else RED)
                other = nx.Graph()
                other.add_nodes_from(range(n))
                other.add_edges_from((u, v) for u in range(n) for v in adjacency[u])
                parts = []
                for comp in nx.connected_components(other):
                    sub = other.subgraph(comp)
                    parts.append((comp, nx.bipartite.color(sub) if nx.is_bipartite(sub) else None))
                for _ in range(8):
                    # A random vertex-disjoint proposal of ``color`` edges.
                    edges = list(ctx.color_edges)
                    rng.shuffle(edges)
                    removed = set()
                    for u, v in edges[:rng.randint(0, len(edges))]:
                        if u not in removed and v not in removed:
                            removed.update((u, v))
                    want = True
                    for comp, side in parts:
                        rest = comp - removed
                        if len(rest) % 2 or (side is not None
                                             and 2 * sum(side[v] for v in rest) != len(rest)):
                            want = False
                    got = solver_mod._parity_ok(ctx, removed)
                    assert got == want
                    rejected += not got
                    free = [w for w in range(n) if w not in removed]
                    pm = solver_mod.perfect_matching_on_adjacency(g.neighbor_index, free, flag)
                    if pm is not None:
                        assert got
                        matched += 1
        assert rejected > 100 and matched > 100


CACHED_VIEWS = ("color_edges", "layout", "parity")


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
    for name in ("color_edges", "layout"):
        got[name] = getattr(ctx, name)
    want = reference_context(graph, matching, k, color)
    assert got.keys() == want.keys()
    for name, value in want.items():
        assert got[name] == value, name
    assert type(ctx.color_edges) is tuple and list(ctx.color_edges) == sorted(ctx.color_edges)
    for name in ("color_edges", "layout"):
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
        # combinations.
        outcomes = set()
        for n, p in ((6, 0.6), (8, 0.5), (10, 0.4)):
            for seed in range(6):
                g = random_colored_graph(n, p, seed + 100)
                pm = solver_mod.min_red_pm(g)
                for k in range(n // 2 + 1):
                    for params in (SolverParams(), SolverParams(L_cap=2)):
                        v = solve_em(g, k, params)
                        want = naive_solve(g, k, params)
                        assert (v.status, v.witness, v.L_used) == want
                        outcomes.add((v.status, v.L_used > 0))
                    if pm is None:
                        continue
                    for color in (RED, BLUE):
                        ctx = solver_mod._make_context(g, pm, k, color)
                        assert first_success((ctx,), n) == naive_first_success([ctx], n)
        assert {(YES, True), (YES, False), (NO_CERTIFIED, True), (UNKNOWN, True)} <= outcomes


def cycle_union(halves, bridged=False):
    """Disjoint alternating cycles C_2a, one per half-length a in ``halves``,
    on consecutive vertices, each starting with a red edge from its first
    vertex.  Its red counts are the subset sums of ``halves``.  With
    ``bridged``, a blue edge joins the first vertices of consecutive cycles:
    no perfect matching uses it, since its endpoints would leave each cycle
    odd, but it makes the graph connected."""
    triples, starts, off = [], [], 0
    for a in halves:
        starts.append(off)
        triples += [(off + i, off + (i + 1) % (2 * a), RED if i % 2 == 0 else BLUE)
                    for i in range(2 * a)]
        off += 2 * a
    if bridged:
        triples += [(s, t, BLUE) for s, t in zip(starts, starts[1:])]
    return ColoredGraph.from_edges(off, triples)


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


def assert_certified_by_the_lattice(monkeypatch, g, k, alpha):
    calls = 0
    recover = solver_mod._recover

    def counted(ctx, guess):
        nonlocal calls
        calls += 1
        assert calls <= solver_mod._CERTIFY_AFTER
        return recover(ctx, guess)

    monkeypatch.setattr(solver_mod, "_recover", counted)
    v = solve_em(g, k, SolverParams(alpha_hint=alpha))
    assert (v.status, v.L_used, v.reason, v.witness) == (
        NO_CERTIFIED, 0, "k outside the red-count lattice", None)


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
        # sparse random graphs and from parity graphs (odd k, even split).
        # Each gets exactly one reason: the lattice when the search passed
        # its trigger and the lattice excludes k, exhaustion otherwise.
        graphs = [random_colored_graph(n, p, seed)
                  for n in (14, 16, 18) for p in (0.3, 0.6, 0.9) for seed in range(4)]
        graphs += [random_colored_graph(n, 0.2, seed) for n in (16, 18, 20) for seed in range(8)]
        graphs += [parity_graph(n, split) for n in (14, 16, 18, 20)
                   for split in range(2, n // 2 + 1, 2)]
        tried = 0
        guesses = solver_mod._guesses

        def counted(ctx, size):
            nonlocal tried
            for guess in guesses(ctx, size):
                tried += 1
                yield guess

        exhausted = latticed = ranged = 0
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(solver_mod, "_guesses", counted)
            for g in graphs:
                counts = perfect_matching_red_counts(g)
                allowed = naive_lattice(g) if counts else set()
                for k in range(g.n // 2 + 1):
                    tried = 0
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
                    elif k not in allowed and tried > solver_mod._CERTIFY_AFTER:
                        assert (v.status, v.L_used, v.reason) == (
                            NO_CERTIFIED, 0, "k outside the red-count lattice")
                        assert tried == solver_mod._CERTIFY_AFTER + 1
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

    def test_parity_instance_is_certified_no(self):
        v = solve_em(parity_graph(14, 4), 1, SolverParams(alpha_hint=1))
        assert v.status == NO_CERTIFIED
        assert v.L_used == 14

    @pytest.mark.parametrize("n, split, k", [
        (16, 4, 1), (20, 6, 1), (20, 4, 3), (24, 8, 1), (28, 4, 1), (28, 14, 1)])
    def test_parity_no_instances_stop_early(self, n, split, k, monkeypatch):
        # Odd k with an even split: every remainder fails the parity screen,
        # so no completion is attempted.  K_16 exhausts within the trigger,
        # after size min(r + k, n - r - k); the others pass the trigger,
        # and the lattice (d = 2) certifies them there.
        sizes, completions = [], []
        guesses, complete = solver_mod._guesses, solver_mod.perfect_matching_on_adjacency
        monkeypatch.setattr(solver_mod, "_guesses",
                            lambda ctx, size: sizes.append(size) or guesses(ctx, size))
        monkeypatch.setattr(solver_mod, "perfect_matching_on_adjacency",
                            lambda *args: completions.append(1) or complete(*args))
        g = parity_graph(n, split)
        v = solve_em(g, k, SolverParams(alpha_hint=1))
        r = v.phase1_r
        if n == 16:
            assert (v.status, v.L_used, v.reason) == (
                NO_CERTIFIED, n, "exhausted the certified search radius")
            assert max(sizes) == min(r + k, n - r - k)
        else:
            assert (v.status, v.L_used, v.reason) == (
                NO_CERTIFIED, 0, "k outside the red-count lattice")
            assert max(sizes) <= min(r + k, n - r - k)
        assert not completions
        if n <= 24:
            assert k not in perfect_matching_red_counts(g, max_n=n)

    @pytest.mark.parametrize("k", [4, 6])
    def test_bridged_unions_exhaust_past_the_trigger(self, k, monkeypatch):
        # The (3, 5, 7) union's red counts are its subset sums, which miss 4
        # and 6, but its bridges break every potential, so the lattice
        # consulted at the trigger excludes nothing and the search runs to
        # its early stop, size min(r + k, n - r - k).
        sizes, calls = [], []
        guesses, recover = solver_mod._guesses, solver_mod._recover
        monkeypatch.setattr(solver_mod, "_guesses",
                            lambda ctx, size: sizes.append(size) or guesses(ctx, size))
        monkeypatch.setattr(solver_mod, "_recover",
                            lambda ctx, guess: calls.append(1) or recover(ctx, guess))
        g = cycle_union((3, 5, 7), bridged=True)
        v = solve_em(g, k, SolverParams(alpha_hint=7))
        assert (v.status, v.L_used, v.reason) == (
            NO_CERTIFIED, g.n, "exhausted the certified search radius")
        n, r = g.n, v.phase1_r
        assert max(sizes) == min(r + k, n - r - k)
        assert len(calls) > solver_mod._CERTIFY_AFTER

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
        # Every guess fails the parity screen.  Once the search has tried
        # _CERTIFY_AFTER guesses, the lattice (d = 2) certifies the no, so
        # recovery runs a bounded number of times where the full search
        # would enumerate millions of guesses.
        assert_certified_by_the_lattice(monkeypatch, parity_graph(n, split), k, 1)

    @pytest.mark.parametrize("halves, k", [
        ((13,), 6), ((21,), 10), ((50,), 1), ((100,), 37), ((500,), 1), ((500,), 250),
        ((5, 7, 9), 6), ((7, 9, 11), 10), ((5, 7, 9, 11), 13)],
        ids=lambda x: ",".join(map(str, x)) if isinstance(x, tuple) else str(x))
    def test_cycle_unions_certify_by_the_lattice(self, halves, k, monkeypatch):
        # C_2a has d = a, so a union's lattice is the subset sums of its
        # half-lengths.  C_42 alone takes 705,432 recoveries to exhaust.
        assert_certified_by_the_lattice(monkeypatch, cycle_union(halves), k, max(halves))

    def test_lattice_is_built_at_most_once(self, monkeypatch):
        # C_26's perfect matchings have 0 and 13 red edges, so no size-6
        # guess succeeds.  Uncapped (and at the cap n) the search consults
        # the lattice at its trigger; under the caps 0 and 2 it ends short
        # of the trigger and consults it after the loop.  Either way once.
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
        # guess fits, so the lattice is consulted after the loop; under the
        # cap 4 the search passes its trigger (2,730 guesses) and is not
        # consulted again before its unknown.
        for cap in (2, 4):
            builds.clear()
            v = solve_em(cycle_union((3, 5, 7), bridged=True), 4,
                         SolverParams(alpha_hint=7, L_cap=cap))
            assert (v.status, v.L_used) == (UNKNOWN, cap)
            assert len(builds) == 1
        # A search that succeeds within the trigger never builds it.
        builds.clear()
        v = solve_em(cycle_union((2, 3)), 2, SolverParams(alpha_hint=3))
        assert (v.status, v.L_used) == (YES, 2)
        assert not builds

    def test_lattice_certificate_holds_under_a_cap(self):
        # A capped search that ends without a hit consults the lattice
        # before answering unknown, whether or not it reached the trigger.
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
