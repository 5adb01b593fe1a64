import dataclasses
import itertools
import random
from functools import partial

import pytest

from exactmatching import (
    BLUE,
    RED,
    AlternatingCycle,
    ColoredGraph,
    CycleSet,
    GraphError,
    NEGATIVE_WEIGHTS,
    POSITIVE_WEIGHTS,
    SKIP_WEIGHTS,
    PerfectMatching,
    apply_biskip,
    apply_cycles,
    apply_skip,
    find_biskip,
    find_skip,
    max_red_pm,
    min_red_pm,
    orient,
    random_bipartite_colored_graph,
    random_colored_graph,
    symmetric_difference,
)
from exactmatching.generators import gen_alternating_cycle_instance
from exactmatching.graphs import matching_parity
from exactmatching.skips import _skip_chords, guaranteed_skip_weights

from ._support import (
    check_application,
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
        find_biskip(g, crossing, cyc, SKIP_WEIGHTS)


def hand_built_host(vertices):
    """An ``AlternatingCycle`` through ``vertices`` that skips every check
    of ``from_vertices``: its edges are the canonical consecutive pairs."""
    ring = zip(vertices, vertices[1:] + vertices[:1])
    return AlternatingCycle(tuple(vertices), tuple((min(e), max(e)) for e in ring), 0)


# (host vertices on ten_cycle, the one error all three readers give).  The
# reader checks length, then repeated vertices, then the first missing edge
# along the walk as given, then alternation.
MALFORMED_HOSTS = [
    # Does not alternate, and (4, 6) and (5, 7) are no edges.
    pytest.param((0, 1, 2, 3, 4, 6, 5, 7, 8, 9), "cycle uses unknown edge (4, 6)",
                 id="unknown-edges-and-no-alternation"),
    # Alternates, but (1, 3) and (2, 4) are no edges.
    pytest.param((0, 1, 3, 2, 4, 5, 6, 7, 8, 9), "cycle uses unknown edge (1, 3)",
                 id="unknown-edges"),
    # Vertex 10 is outside the 10-vertex graph; the walk as given starts
    # with the edge (10, 1), which the canonical rotation would put last.
    pytest.param((10, 1, 2, 3, 4, 5, 6, 7, 8, 9), "cycle uses unknown edge (1, 10)",
                 id="vertex-outside-the-graph"),
    pytest.param((0, 1, 1, 2, 3, 4, 5, 6, 7, 8), "cycle repeats a vertex", id="self-loop"),
    pytest.param((0, 1, 2, 3, 4, 5, 6, 7, 8), "alternating cycle needs even length >= 4, got 9",
                 id="odd-length"),
    pytest.param((), "alternating cycle needs even length >= 4, got 0", id="empty"),
    pytest.param((0,), "alternating cycle needs even length >= 4, got 1", id="one-vertex"),
    pytest.param((0, 1), "alternating cycle needs even length >= 4, got 2", id="two-vertices"),
]


@pytest.mark.parametrize("vertices, error", MALFORMED_HOSTS)
def test_malformed_hosts_get_their_graph_errors(vertices, error):
    g, pm, _ = ten_cycle(bipartite=True)
    host = hand_built_host(list(vertices))
    for read in (partial(AlternatingCycle.from_vertices, g, pm, vertices),
                 partial(find_skip, g, pm, host, SKIP_WEIGHTS),
                 partial(find_biskip, g, pm, host, SKIP_WEIGHTS)):
        with pytest.raises(GraphError) as info:
            read()
        assert (type(info.value), str(info.value)) == (GraphError, error)


def test_an_odd_host_does_not_alternate_even_with_a_broken_matching():
    # A hand-built edge set that uses vertex 0 twice holds edges 0, 2 and 4
    # of the 5-cycle, so only the odd length shows that it does not
    # alternate: the parity test says so, and the searches reject the host
    # for its length.
    g = ColoredGraph.from_edges(5, [(i, (i + 1) % 5, BLUE) for i in range(5)])
    broken = PerfectMatching(frozenset({(0, 1), (2, 3), (0, 4)}), 0)
    host = hand_built_host([0, 1, 2, 3, 4])
    assert matching_parity(host.edges, broken) is None
    with pytest.raises(GraphError, match="^alternating cycle needs even length >= 4, got 5$"):
        find_skip(g, broken, host, SKIP_WEIGHTS)


@pytest.mark.parametrize("weights", [[], [9], SKIP_WEIGHTS])
def test_biskip_search_needs_a_bipartition(weights):
    # Checked before the weight filter and before the host is read, so an
    # empty filter and a malformed host get the same error.
    g, pm, cyc = gen_alternating_cycle_instance(10, 0.5, 1)
    assert g.bipartition is None
    for host in (cyc, hand_built_host([])):
        with pytest.raises(GraphError, match="^biskip search needs a bipartite graph$"):
            find_biskip(g, pm, host, weights)


@pytest.mark.parametrize("search", [find_skip, find_biskip])
@pytest.mark.parametrize("weights", [[], [9]])
def test_filter_without_a_skip_weight_is_answered_before_the_host(search, weights):
    # No skip weighs 9, so neither filter can match: the search returns None
    # at once, before it reads a host that would be rejected.
    g, _, cyc = ten_cycle(chords=[(0, 3, BLUE), (4, 7, BLUE)], bipartite=True)
    crossing = PerfectMatching.from_edges(g, [(0, 3), (1, 2), (4, 7), (5, 6), (8, 9)])
    assert search(g, crossing, cyc, weights) is None


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
    new_ctx = apply_skip(skip, ctx)
    assert check_application(g, pm, ctx, skip, new_ctx) == []
    assert apply_cycles(pm, new_ctx).red_count == 0
    assert new_ctx.edge_count() == 4


def test_apply_skip_rejects_foreign_context():
    g, pm, cyc = ten_cycle(chords=[(0, 2, BLUE), (1, 3, BLUE)])
    other = odd_matching(g)
    skip = find_skip(g, pm, cyc, SKIP_WEIGHTS)
    empty = symmetric_difference(g, pm, pm)
    with pytest.raises(GraphError):
        apply_skip(skip, empty)


def test_host_replacement_keeps_its_checks():
    g, pm, cyc = ten_cycle(chords=[(0, 2, BLUE), (1, 3, BLUE)])
    ctx = symmetric_difference(g, pm, odd_matching(g))
    skip = find_skip(g, pm, cyc, SKIP_WEIGHTS)
    with pytest.raises(GraphError, match="failed to shrink"):
        apply_skip(dataclasses.replace(skip, shortcut_cycle=cyc), ctx)
    g, pm, cyc = ten_cycle(chords=[(0, 3, BLUE), (4, 7, BLUE)], bipartite=True)
    ctx = symmetric_difference(g, pm, odd_matching(g))
    bi = find_biskip(g, pm, cyc, SKIP_WEIGHTS)
    with pytest.raises(GraphError, match="share vertices"):
        apply_biskip(dataclasses.replace(bi, cycles=(bi.cycles[0],) * 2), ctx)


# -- biskips ----------------------------------------------------------------------


def test_biskip_zero_weight_example():
    g, pm, cyc = ten_cycle(chords=[(0, 3, BLUE), (4, 7, BLUE)], bipartite=True)
    bi = find_biskip(g, pm, cyc, SKIP_WEIGHTS)
    assert bi is not None
    assert (bi.a1, bi.a2) == ((3, 0), (7, 4))
    assert bi.weight == 0
    assert bi.cycles[0].vertices == (0, 1, 2, 3)
    assert bi.cycles[1].vertices == (4, 5, 6, 7)
    assert check_biskip(g, pm, bi) == []


def test_biskip_negative_weight_example():
    g, pm, cyc = ten_cycle(nm_reds=[(3, 4), (7, 8), (0, 9)],
                           chords=[(0, 3, BLUE), (4, 7, BLUE)], bipartite=True)
    assert cyc.weight == 3
    bi = find_biskip(g, pm, cyc, NEGATIVE_WEIGHTS)
    assert bi.weight == -3
    assert check_biskip(g, pm, bi) == []
    assert find_biskip(g, pm, cyc, POSITIVE_WEIGHTS) is None


def test_biskip_none_without_chords():
    g, pm, cyc = ten_cycle(bipartite=True)
    assert find_biskip(g, pm, cyc, SKIP_WEIGHTS) is None


def test_apply_biskip():
    g, pm, cyc = ten_cycle(nm_reds=[(3, 4), (7, 8), (0, 9)],
                           chords=[(0, 3, BLUE), (4, 7, BLUE)], bipartite=True)
    other = odd_matching(g)
    ctx = symmetric_difference(g, pm, other)
    bi = find_biskip(g, pm, cyc, NEGATIVE_WEIGHTS)
    new_ctx = apply_biskip(bi, ctx)
    assert check_application(g, pm, ctx, bi, new_ctx) == []
    assert new_ctx.edge_count() == 8
    assert len(new_ctx) == 2


def test_orient_requires_bipartition():
    g, pm, _ = ten_cycle()
    with pytest.raises(GraphError, match="needs a bipartite graph"):
        orient(g, pm)


def test_orient_rejects_a_matching_outside_the_graph():
    g, _, _ = ten_cycle(bipartite=True)
    foreign = PerfectMatching(frozenset({(0, 5), (1, 2), (3, 4), (6, 7), (8, 9)}), 0)
    assert not g.has_edge(0, 5)
    with pytest.raises(GraphError, match="matching uses edges outside the graph"):
        orient(g, foreign)


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
        bi = find_biskip(g, pm, cyc, SKIP_WEIGHTS)
        if bi is None:
            continue
        hits += 1
        assert check_biskip(g, pm, bi) == []
    assert hits >= 30


# -- differential checks against the rebuild-per-candidate reference ---------------

FILTERS = ([NEGATIVE_WEIGHTS, POSITIVE_WEIGHTS, frozenset({0}), SKIP_WEIGHTS]
           + [frozenset({w}) for w in range(-4, 5)])


def random_host(n, prob, seed, bipartite=False, length=None):
    """Random graph around an alternating host cycle, some vertices off it.

    The host has ``length`` vertices, an even number drawn from 4..n when
    not given.  The matching pairs the cycle's vertices along the cycle and
    the remaining vertices among themselves; every other admissible edge is
    present with probability ``prob``.  Colors are random throughout.
    """
    rng = random.Random(seed)
    if length is None:
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


def full_scan_chords(graph, pos):
    """The chord list read off every neighbor of every cycle vertex."""
    chords = []
    for u in sorted(pos):
        pu = pos[u]
        for v, red in graph.neighbor_index[u].items():
            if v > u and v in pos and pu % 2 == pos[v] % 2:
                p, q = sorted((pu, pos[v]))
                chords.append(((u, v), p, q, p % 2, red))
    return chords


def test_skip_chords_match_full_neighbor_scan():
    chords = 0
    for n in (8, 16, 30, 40):
        for prob in (0.02, 0.1, 0.5, 0.95):
            for seed in range(6):
                g, _, cyc = random_host(n, prob, 100 + seed)
                pos = {v: i for i, v in enumerate(cyc.vertices)}
                same = tuple(sorted(v for v in pos if pos[v] % 2 == side) for side in (0, 1))
                want = full_scan_chords(g, pos)
                assert list(_skip_chords(g.neighbor_index, pos, same)) == want
                chords += len(want)
    assert chords > 1000


def long_hosts(bipartite):
    """Hosts of 20-40 cycle vertices, two vertices off each, sparse enough
    for the rebuild-per-candidate reference."""
    for length in range(20, 41, 4):
        for prob in (0.05, 0.1, 0.2):
            for seed in range(2):
                yield random_host(length + 2, prob, 300 + seed, bipartite, length)


def test_find_skip_matches_naive_reference_on_long_hosts():
    # The winner's first chord is often not the first chord: the search
    # must move past chords without a partner, or whose partners all fail.
    hits = later = 0
    for g, pm, cyc in long_hosts(bipartite=False):
        first = full_scan_chords(g, {v: i for i, v in enumerate(cyc.vertices)})[0][0]
        for wanted in FILTERS:
            want = naive_find_skip(g, pm, cyc, wanted)
            assert find_skip(g, pm, cyc, wanted) == want
            if want is not None:
                hits += 1
                later += want.e1 != first
    assert hits >= 300
    assert later >= 120


def test_find_biskip_matches_naive_reference_on_long_hosts():
    hits = 0
    for g, pm, cyc in long_hosts(bipartite=True):
        for wanted in FILTERS:
            want = naive_find_biskip(g, pm, cyc, wanted)
            assert find_biskip(g, pm, cyc, wanted) == want
            hits += want is not None
    assert hits >= 250


def test_find_biskip_matches_naive_reference():
    hits = 0
    for n in range(4, 17, 2):
        for prob in (0.3, 0.6, 0.9):
            for seed in range(3):
                g, pm, cyc = random_host(n, prob, seed, bipartite=True)
                for wanted in FILTERS:
                    want = naive_find_biskip(g, pm, cyc, wanted)
                    assert find_biskip(g, pm, cyc, wanted) == want
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
            assert check_application(g, low, context, skip, apply_skip(skip, context)) == []
            hits += 1
    assert hits >= 10


def test_apply_biskip_returns_the_recomputed_context():
    hits = 0
    for g, low, high, context in walk_contexts(bipartite=True):
        for cycle in context:
            bi = find_biskip(g, low, cycle, SKIP_WEIGHTS)
            if bi is None:
                continue
            assert check_application(g, low, context, bi, apply_biskip(bi, context)) == []
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
