import itertools
import random

import pytest

from exactmatching import (
    BLUE,
    RED,
    AlternatingCycle,
    ColoredGraph,
    CycleSet,
    EdgePair,
    GraphError,
    NEGATIVE_WEIGHTS,
    POSITIVE_WEIGHTS,
    SKIP_WEIGHTS,
    PerfectMatching,
    apply_biskip,
    apply_cycles,
    apply_skip,
    find_biskip,
    find_bundles,
    find_saps,
    find_skip,
    gen_alternating_cycle_instance,
    guaranteed_skip_weights,
    max_red_pm,
    min_red_pm,
    orient,
    pair_decomposition,
    random_bipartite_colored_graph,
    random_colored_graph,
    symmetric_difference,
)

from ._support import (
    check_biskip,
    check_skip,
    cycle_weight,
    naive_find_biskip,
    naive_find_skip,
)

# -- fixtures: a 10-cycle with matching (2i, 2i+1) and optional chords ---------


def ten_cycle(nm_reds=(), chords=(), bipartite=False):
    """10-cycle instance: blue matching edges, selected red non-matching
    edges, extra chord triples, and the even-pairs perfect matching."""
    n = 10
    triples = []
    for i in range(5):
        triples.append((2 * i, 2 * i + 1, BLUE))
        u, v = 2 * i + 1, (2 * i + 2) % n
        key = (min(u, v), max(u, v))
        triples.append((u, v, RED if key in set(nm_reds) else BLUE))
    triples += list(chords)
    bip = None
    if bipartite:
        bip = ([v for v in range(n) if v % 2 == 0],
               [v for v in range(n) if v % 2 == 1])
    g = ColoredGraph.from_edges(n, triples, bipartition=bip)
    pm = PerfectMatching.from_edges(g, [(2 * i, 2 * i + 1) for i in range(5)])
    cyc = AlternatingCycle.from_vertices(g, pm, list(range(n)))
    return g, pm, cyc


def odd_matching(g):
    return PerfectMatching.from_edges(
        g, [(2 * i + 1, (2 * i + 2) % 10) for i in range(5)])


# -- guaranteed weight table ----------------------------------------------------


def test_guaranteed_skip_weights_table():
    assert guaranteed_skip_weights(2) == NEGATIVE_WEIGHTS
    assert guaranteed_skip_weights(1) == NEGATIVE_WEIGHTS | {0}
    assert guaranteed_skip_weights(0) == POSITIVE_WEIGHTS | {0}
    assert guaranteed_skip_weights(-1) == POSITIVE_WEIGHTS


@pytest.mark.parametrize("x", [-2, 3, 5])
def test_guaranteed_skip_weights_rejects(x):
    with pytest.raises(ValueError):
        guaranteed_skip_weights(x)


def test_weight_sets():
    assert NEGATIVE_WEIGHTS == {-4, -3, -2, -1}
    assert POSITIVE_WEIGHTS == {1, 2, 3, 4}
    assert set(SKIP_WEIGHTS) == NEGATIVE_WEIGHTS | {0} | POSITIVE_WEIGHTS


# -- pair decomposition ---------------------------------------------------------


def test_pair_decomposition_labels_sum_to_weight():
    g, pm, cyc = ten_cycle(nm_reds=[(3, 4), (7, 8)])
    pairs = pair_decomposition(cyc, g, pm)
    assert len(pairs) == 5
    assert all(p.matching_edge in pm.edges for p in pairs)
    assert all(p.nonmatching_edge not in pm.edges for p in pairs)
    assert sum(p.label for p in pairs) == cyc.weight == 2

    for seed in range(25):
        g, pm, cyc = gen_alternating_cycle_instance(12, 0.5, seed)
        pairs = pair_decomposition(cyc, g, pm)
        assert sum(p.label for p in pairs) == cyc.weight
        assert all(p.label in (-1, 0, 1) for p in pairs)


def test_pair_decomposition_rejects_nonalternating():
    g, pm, cyc = ten_cycle()
    with pytest.raises(GraphError):
        pair_decomposition(cyc, g, PerfectMatching(frozenset(), 0))


# -- bundles and stretches -------------------------------------------------------


def mkpairs(labels):
    return [EdgePair((2 * i, 2 * i + 1), (2 * i + 1, 2 * i + 2), lab)
            for i, lab in enumerate(labels)]


def test_bundle_across_zeros():
    bundles = find_bundles(mkpairs([1, 0, 1]))
    assert len(bundles) == 1
    b = bundles[0]
    assert (b.sign, b.first_index, b.second_index, b.span) == (1, 0, 2, (0, 1, 2))
    assert find_saps(mkpairs([1, 0, 1])) == []


def test_alternating_signs_make_no_bundles():
    pairs = mkpairs([1, -1, 1, -1])
    assert find_bundles(pairs) == []
    stretches = find_saps(pairs)
    assert len(stretches) == 1
    assert stretches[0].indices == (0, 1, 2, 3)
    assert stretches[0].weight == 0


def test_wraparound_bundle():
    pairs = mkpairs([1, -1, 1])
    bundles = find_bundles(pairs)
    assert len(bundles) == 1
    assert (bundles[0].first_index, bundles[0].second_index) == (2, 0)
    assert bundles[0].span == (2, 0)
    stretches = find_saps(pairs)
    assert len(stretches) == 1
    assert stretches[0].indices == (1,)
    assert stretches[0].weight == -1


def test_all_zero_labels():
    pairs = mkpairs([0, 0, 0])
    assert find_bundles(pairs) == []
    [stretch] = find_saps(pairs)
    assert stretch.indices == (0, 1, 2) and stretch.weight == 0


def test_stretch_invariants_on_random_instances():
    for seed in range(40):
        g, pm, cyc = gen_alternating_cycle_instance(16, 0.4, seed)
        pairs = pair_decomposition(cyc, g, pm)
        bundles = find_bundles(pairs)
        stretches = find_saps(pairs)
        covered = set()
        for b in bundles:
            assert abs(sum(pairs[i].label for i in b.span)) == 2
            assert pairs[b.first_index].label == pairs[b.second_index].label == b.sign
            assert not covered & set(b.span)
            covered |= set(b.span)
        for s in stretches:
            assert abs(s.weight) <= 1
            assert s.weight == sum(pairs[i].label for i in s.indices)
            assert not covered & set(s.indices)
            covered |= set(s.indices)
        assert covered == set(range(len(pairs)))


# -- skips ------------------------------------------------------------------------


def test_skip_zero_weight_example():
    g, pm, cyc = ten_cycle(chords=[(0, 2, BLUE), (1, 3, BLUE)])
    skip = find_skip(g, pm, cyc, SKIP_WEIGHTS)
    assert skip is not None
    assert (skip.e1, skip.e2) == ((0, 2), (1, 3))
    assert skip.weight == 0
    assert skip.shortcut_cycle.vertices == (0, 1, 3, 2)
    assert check_skip(g, pm, skip) == []


def test_skip_positive_weight_example():
    g, pm, cyc = ten_cycle(chords=[(0, 2, RED), (1, 3, RED)])
    skip = find_skip(g, pm, cyc, SKIP_WEIGHTS)
    assert skip.weight == 2
    assert skip.shortcut_cycle.vertices == (0, 1, 3, 2)
    assert check_skip(g, pm, skip) == []
    assert find_skip(g, pm, cyc, NEGATIVE_WEIGHTS) is None


def test_skip_negative_weight_example():
    g, pm, cyc = ten_cycle(nm_reds=[(3, 4), (5, 6), (7, 8), (0, 9)],
                           chords=[(0, 2, BLUE), (1, 3, BLUE)])
    assert cyc.weight == 4
    skip = find_skip(g, pm, cyc, NEGATIVE_WEIGHTS)
    assert skip.weight == -4
    assert skip.shortcut_cycle.vertices == (0, 1, 3, 2)
    assert check_skip(g, pm, skip) == []


def test_skip_none_without_chords():
    g, pm, cyc = ten_cycle()
    assert find_skip(g, pm, cyc, SKIP_WEIGHTS) is None


def test_searches_reject_a_host_that_does_not_alternate():
    g, _, cyc = ten_cycle(chords=[(0, 3, BLUE), (4, 7, BLUE)], bipartite=True)
    crossing = PerfectMatching.from_edges(g, [(0, 3), (1, 2), (4, 7), (5, 6), (8, 9)])
    with pytest.raises(GraphError):
        find_skip(g, crossing, cyc, SKIP_WEIGHTS)
    with pytest.raises(GraphError):
        find_biskip(orient(g, crossing), crossing, cyc, SKIP_WEIGHTS)


def test_full_scan_without_a_match_on_all_blue_k48():
    # Every skip of an all-blue graph weighs 0, so filter {4} makes the
    # search visit every chord pair of a Hamiltonian host cycle.
    n = 48
    g = ColoredGraph.from_edges(n, [(u, v, BLUE) for u, v in itertools.combinations(range(n), 2)])
    pm = PerfectMatching.from_edges(g, [(2 * i, 2 * i + 1) for i in range(n // 2)])
    cyc = AlternatingCycle.from_vertices(g, pm, range(n))
    assert find_skip(g, pm, cyc, {4}) is None


def test_apply_skip():
    g, pm, cyc = ten_cycle(nm_reds=[(3, 4), (5, 6), (7, 8), (0, 9)],
                           chords=[(0, 2, BLUE), (1, 3, BLUE)])
    other = odd_matching(g)
    assert other.red_count == 4
    ctx = symmetric_difference(g, pm, other)
    skip = find_skip(g, pm, cyc, NEGATIVE_WEIGHTS)
    new_pm, new_ctx = apply_skip(other, skip, ctx)
    assert new_pm.red_count == other.red_count + skip.weight == 0
    assert new_ctx.edge_count() == 4 < ctx.edge_count()
    assert new_ctx.total_weight == ctx.total_weight + skip.weight
    rebuilt = symmetric_difference(g, pm, new_pm)
    assert rebuilt.all_edges() == new_ctx.all_edges()


def test_apply_skip_rejects_foreign_context():
    g, pm, cyc = ten_cycle(chords=[(0, 2, BLUE), (1, 3, BLUE)])
    other = odd_matching(g)
    skip = find_skip(g, pm, cyc, SKIP_WEIGHTS)
    empty = symmetric_difference(g, pm, pm)
    with pytest.raises(GraphError):
        apply_skip(other, skip, empty)


# -- biskips ----------------------------------------------------------------------


def test_biskip_zero_weight_example():
    g, pm, cyc = ten_cycle(chords=[(0, 3, BLUE), (4, 7, BLUE)], bipartite=True)
    view = orient(g, pm)
    bi = find_biskip(view, pm, cyc, SKIP_WEIGHTS)
    assert bi is not None
    assert (bi.a1, bi.a2) == ((3, 0), (7, 4))
    assert bi.weight == 0
    assert bi.cycles[0].vertices == (0, 1, 2, 3)
    assert bi.cycles[1].vertices == (4, 5, 6, 7)
    assert check_biskip(view, pm, bi) == []


def test_biskip_negative_weight_example():
    g, pm, cyc = ten_cycle(nm_reds=[(3, 4), (7, 8), (0, 9)],
                           chords=[(0, 3, BLUE), (4, 7, BLUE)], bipartite=True)
    assert cyc.weight == 3
    view = orient(g, pm)
    bi = find_biskip(view, pm, cyc, NEGATIVE_WEIGHTS)
    assert bi.weight == -3
    assert check_biskip(view, pm, bi) == []
    assert find_biskip(view, pm, cyc, POSITIVE_WEIGHTS) is None


def test_biskip_none_without_chords():
    g, pm, cyc = ten_cycle(bipartite=True)
    view = orient(g, pm)
    assert find_biskip(view, pm, cyc, SKIP_WEIGHTS) is None


def test_apply_biskip():
    g, pm, cyc = ten_cycle(nm_reds=[(3, 4), (7, 8), (0, 9)],
                           chords=[(0, 3, BLUE), (4, 7, BLUE)], bipartite=True)
    other = odd_matching(g)
    ctx = symmetric_difference(g, pm, other)
    view = orient(g, pm)
    bi = find_biskip(view, pm, cyc, NEGATIVE_WEIGHTS)
    new_pm, new_ctx = apply_biskip(other, bi, ctx)
    assert new_pm.red_count == other.red_count + bi.weight
    assert new_ctx.edge_count() == 8 < ctx.edge_count()
    assert len(new_ctx) == 2
    rebuilt = symmetric_difference(g, pm, new_pm)
    assert rebuilt.all_edges() == new_ctx.all_edges()


def test_orientation_structure():
    g, pm, _ = ten_cycle(bipartite=True)
    view = orient(g, pm)
    assert view.has_arc(0, 1)      # matching edge, first side to second
    assert not view.has_arc(1, 0)
    assert view.has_arc(1, 2)      # non-matching edge, second side to first
    assert not view.has_arc(2, 1)
    assert len(view.arcs) == g.m


def test_orient_requires_bipartition():
    g, pm, _ = ten_cycle()
    with pytest.raises(GraphError):
        orient(g, pm)


# -- randomized cross-check against the independent predicates ---------------------


def test_random_skips_pass_independent_checks():
    hits = 0
    for seed in range(120):
        g, pm, cyc = gen_alternating_cycle_instance(10, 0.6, seed)
        skip = find_skip(g, pm, cyc, SKIP_WEIGHTS)
        if skip is None:
            continue
        hits += 1
        assert check_skip(g, pm, skip) == []
        assert cycle_weight(g, pm, skip.host_cycle.edges) == cyc.weight
    assert hits >= 30


def test_random_biskips_pass_independent_checks():
    hits = 0
    for seed in range(120):
        g, pm, cyc = gen_alternating_cycle_instance(12, 0.6, seed, bipartite=True)
        view = orient(g, pm)
        bi = find_biskip(view, pm, cyc, SKIP_WEIGHTS)
        if bi is None:
            continue
        hits += 1
        assert check_biskip(view, pm, bi) == []
    assert hits >= 30


# -- differential checks against the rebuild-per-candidate reference ---------------

FILTERS = ([NEGATIVE_WEIGHTS, POSITIVE_WEIGHTS, frozenset({0}), SKIP_WEIGHTS]
           + [frozenset({w}) for w in range(-4, 5)])


def random_host(n, prob, seed, bipartite=False):
    """Random graph around an alternating host cycle, some vertices off it.

    The matching pairs the cycle's vertices along the cycle and the
    remaining vertices among themselves; every other admissible edge is
    present with probability ``prob``.  Colors are random throughout.
    """
    rng = random.Random(seed)
    length = rng.randrange(4, n + 1, 2)
    if bipartite:
        side_a, side_b = list(range(0, n, 2)), list(range(1, n, 2))
        rng.shuffle(side_a)
        rng.shuffle(side_b)
        order = [v for pair in zip(side_a, side_b) for v in pair][:length]
        rest = [v for pair in zip(side_a, side_b) for v in pair][length:]
        bip = (side_a, side_b)
    else:
        verts = list(range(n))
        rng.shuffle(verts)
        order, rest = verts[:length], verts[length:]
        bip = None
    matched = [(order[i], order[i + 1]) for i in range(0, length, 2)]
    matched += [(rest[i], rest[i + 1]) for i in range(0, len(rest), 2)]
    forced = {frozenset(e) for e in matched}
    forced |= {frozenset((order[i], order[(i + 1) % length])) for i in range(length)}
    triples = []
    for u in range(n):
        for v in range(u + 1, n):
            if bip is not None and u % 2 == v % 2:
                continue
            if frozenset((u, v)) in forced or rng.random() < prob:
                triples.append((u, v, RED if rng.random() < 0.5 else BLUE))
    sides = (side_a, side_b) if bipartite else None
    g = ColoredGraph.from_edges(n, triples, bipartition=sides)
    pm = PerfectMatching.from_edges(g, matched)
    cyc = AlternatingCycle.from_vertices(g, pm, order)
    return g, pm, cyc


def test_find_skip_matches_naive_reference():
    hits = 0
    for n in range(4, 17, 2):
        for prob in (0.3, 0.6, 0.9):
            for seed in range(3):
                g, pm, cyc = random_host(n, prob, seed)
                for wanted in FILTERS:
                    want = naive_find_skip(g, pm, cyc, wanted)
                    assert find_skip(g, pm, cyc, wanted) == want
                    hits += want is not None
    assert hits >= 100


def test_find_biskip_matches_naive_reference():
    hits = 0
    for n in range(4, 17, 2):
        for prob in (0.3, 0.6, 0.9):
            for seed in range(3):
                g, pm, cyc = random_host(n, prob, seed, bipartite=True)
                view = orient(g, pm)
                for wanted in FILTERS:
                    want = naive_find_biskip(view, pm, cyc, wanted)
                    assert find_biskip(view, pm, cyc, wanted) == want
                    hits += want is not None
    assert hits >= 30


# -- the walk's context can be carried forward instead of recomputed ---------------


def walk_contexts(bipartite):
    """(graph, low, high, context) with low/high the min/max-red matchings."""
    for n in (10, 12, 14, 16):
        for seed in range(8):
            if bipartite:
                g = random_bipartite_colored_graph(n, 0.7, seed)
            else:
                g = random_colored_graph(n, 0.6, seed)
            low = min_red_pm(g)
            if low is None:
                continue
            high = max_red_pm(g)
            yield g, low, high, symmetric_difference(g, low, high)


def test_apply_skip_returns_the_recomputed_context():
    hits = 0
    for g, low, high, context in walk_contexts(bipartite=False):
        for cycle in context:
            skip = find_skip(g, low, cycle, SKIP_WEIGHTS)
            if skip is None:
                continue
            new_high, new_context = apply_skip(high, skip, context)
            assert new_context == symmetric_difference(g, low, new_high)
            hits += 1
    assert hits >= 10


def test_apply_biskip_returns_the_recomputed_context():
    hits = 0
    for g, low, high, context in walk_contexts(bipartite=True):
        view = orient(g, low)
        for cycle in context:
            bi = find_biskip(view, low, cycle, SKIP_WEIGHTS)
            if bi is None:
                continue
            new_high, new_context = apply_biskip(high, bi, context)
            assert new_context == symmetric_difference(g, low, new_high)
            hits += 1
    assert hits >= 10


@pytest.mark.parametrize("bipartite", [False, True])
def test_flipping_a_cycle_onto_low_drops_it_from_the_context(bipartite):
    multi = 0
    for g, low, high, context in walk_contexts(bipartite):
        multi += len(context) > 1
        for cycle in context:
            new_low = apply_cycles(low, CycleSet.from_cycles([cycle]))
            rest = CycleSet.from_cycles(c for c in context if c is not cycle)
            assert rest == symmetric_difference(g, new_low, high)
    assert multi >= 5
