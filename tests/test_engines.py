import contextlib
import gc
import itertools
import os
import random
import subprocess
import sys
import time
from dataclasses import replace

import networkx as nx
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from exactmatching import (
    BLUE,
    RED,
    BaseFamily,
    ColoredGraph,
    GraphError,
    SolverParams,
    bipartite_independence_number,
    count_perfect_matchings,
    em_decide_bruteforce,
    enumerate_perfect_matchings,
    gen_planted_yes,
    independence_number,
    max_weight_perfect_matching,
    perfect_matching_red_counts,
    random_bipartite_colored_graph,
    random_colored_graph,
    solve_em,
)
from exactmatching import blossom, engines
from exactmatching.certificates import MatchingDuals, OptimalityError, check_optimum
from exactmatching.engines import (
    max_red_pm,
    min_red_pm,
    perfect_matching_on,
    perfect_matching_on_adjacency,
)
from exactmatching.reductions import distance_d_independence_number

from ._support import (
    BudgetExhausted,
    backtrack_match,
    blossom_mate,
    greedy_map_walk,
    largest_read_weight,
    parity_graph,
)


def test_min_and_max_red(c4):
    assert min_red_pm(c4).red_count == 0
    assert max_red_pm(c4).red_count == 2


def test_all_red_graph(k4_red):
    assert min_red_pm(k4_red).red_count == 2
    assert max_red_pm(k4_red).red_count == 2


def test_odd_vertex_count_has_no_pm():
    # The blossom engine matches one of the two edges and leaves a vertex
    # single, so every engine reports no perfect matching.
    g = ColoredGraph.from_edges(3, [(0, 1, RED), (1, 2, BLUE)])
    assert min_red_pm(g) is None
    assert max_red_pm(g) is None
    assert max_weight_perfect_matching(g, {(0, 1): 5, (1, 2): -2}) is None


def test_empty_graph_has_empty_pm():
    g = ColoredGraph.from_edges(0, [])
    for pm in (min_red_pm(g), max_red_pm(g), max_weight_perfect_matching(g, {})):
        assert pm is not None and len(pm) == 0 and pm.red_count == 0


def test_no_pm_returns_none():
    g = ColoredGraph.from_edges(4, [(0, 1, RED), (0, 2, RED), (0, 3, RED)])
    assert min_red_pm(g) is None
    assert max_red_pm(g) is None


def test_missing_weight_rejected(c4):
    with pytest.raises(GraphError):
        max_weight_perfect_matching(c4, {(0, 1): 1})


@pytest.mark.parametrize("weight", [1.0, 2.5, True, "1", None])
def test_non_int_weight_rejected(c4, weight):
    weights = {e: 1 for e in c4.edges()}
    weights[(1, 2)] = weight
    with pytest.raises(GraphError, match="not an int"):
        max_weight_perfect_matching(c4, weights)


def _corrupt_before_check(monkeypatch, corrupt):
    """Make the blossom engine run ``corrupt(mate, vertex2)`` on a copy of its
    record's vertex duals just before its optimality check, and check the
    record with those duals."""
    check = blossom.check_optimum

    def corrupted(adj, mate, duals, sign, top):
        vertex2 = list(duals.vertex2)
        corrupt(mate, vertex2)
        check(adj, mate, replace(duals, vertex2=vertex2), sign, top)

    monkeypatch.setattr(blossom, "check_optimum", corrupted)


def _shift_dual(mate, vertex2):
    vertex2[0] += 2


def _drop_mate(mate, vertex2):
    mate[mate[0]] = -1


@pytest.mark.parametrize("corrupt", [_shift_dual, _drop_mate])
def test_failed_optimality_check_raises(c4, monkeypatch, corrupt):
    _corrupt_before_check(monkeypatch, corrupt)
    with pytest.raises(OptimalityError):
        min_red_pm(c4)
    # An internal failure, never a bad-input report.
    assert not issubclass(OptimalityError, GraphError)


def _lower_dual(mate, vertex2):
    vertex2[0] -= 2


def _raise_matched_dual(mate, vertex2):
    vertex2[mate.index(0)] += 2


@pytest.mark.parametrize("corrupt, message", [(_lower_dual, "negative slack"),
                                              (_raise_matched_dual, "nonzero slack")])
def test_optimality_screen_keeps_every_condition(c4, monkeypatch, corrupt, message):
    """Duals still all at the largest weight pass the per-vertex slack
    screen; a mutation must still fail the condition it breaks."""
    seen = []

    def record_then_corrupt(mate, vertex2):
        seen.append(list(vertex2))
        corrupt(mate, vertex2)

    _corrupt_before_check(monkeypatch, record_then_corrupt)
    with pytest.raises(OptimalityError, match=message):
        max_red_pm(c4)
    assert seen == [[1, 1, 1, 1]]


# Arguments of check_optimum: (adj, mate, duals, sign, top).  Each breaks
# one condition and leaves every edge slack alone.
CRAFTED_STATES = {
    "negative blossom dual": (
        [{1: 0}, {0: 0}], [1, 0], MatchingDuals([0, 0], [(-1, [0, 1])]), 1, 0),
    "single vertex 1 has nonzero dual": (
        [{}, {}], [-1, -1], MatchingDuals([0, 2], []), 1, 0),
    "blossom 0 has an even vertex count": (
        [{}, {}], [-1, -1], MatchingDuals([0, 0], [(1, [0, 1])]), 1, 0),
    "blossom 0 is not full": (
        [{}, {}, {}], [-1, -1, -1], MatchingDuals([0, 0, 0], [(1, [0, 1, 2])]), 1, 0),
}


@pytest.mark.parametrize("message", sorted(CRAFTED_STATES))
def test_optimality_check_rejects_crafted_states(message):
    state = CRAFTED_STATES[message]
    with pytest.raises(OptimalityError, match=message):
        check_optimum(*state)


@pytest.mark.parametrize("tamper, message", [
    ("lower a vertex dual", r"edge \(0, 1\) has negative slack"),
    ("drop a vertex from a set", "blossom 0 has an even vertex count"),
    ("raise a matched vertex's dual", r"matched edge \(0, 4\) has nonzero slack"),
])
def test_tampered_record_fails_the_check(tamper, message):
    """The min-red record of parity K_6 with split 3 (weights read negated,
    top 0) passes; each tampered copy fails the condition it breaks."""
    adj = parity_graph(6, 3).neighbor_index
    mate, duals = blossom.max_weight_matching(adj, 0, negate=True)
    assert duals.blossoms == [(1, [3, 5, 4]), (1, [2, 1, 0])]
    check_optimum(adj, mate, duals, -1, 0)
    vertex2, sets = list(duals.vertex2), list(duals.blossoms)
    if tamper == "lower a vertex dual":
        vertex2[0] -= 2
    elif tamper == "drop a vertex from a set":
        sets[0] = (1, [3, 5])
    else:
        vertex2[mate[0]] += 2
    with pytest.raises(OptimalityError, match=message):
        check_optimum(adj, mate, MatchingDuals(vertex2, sets), -1, 0)


def test_inline_matched_edge_check_fails_inside_and_outside_sets():
    """Parity K_6 (split 3) with a pendant edge 6-7 hung on vertex 5: the
    min-red record encloses 0..5 in sets with positive duals and leaves the
    matched pair 6-7 outside every set.  Raising the dual of either end of a
    matched edge, inside a set or outside, fails its zero-slack condition."""
    colors = dict(parity_graph(6, 3).colors)
    colors[(5, 6)] = colors[(6, 7)] = BLUE
    adj = ColoredGraph(8, colors).neighbor_index
    mate, duals = blossom.max_weight_matching(adj, 0, negate=True)
    assert mate == [4, 2, 1, 5, 0, 3, 7, 6]
    assert duals.blossoms == [(1, [3, 5, 4]), (1, [2, 1, 0])]
    check_optimum(adj, mate, duals, -1, 0)
    for v in (0, 4, 6, 7):
        vertex2 = list(duals.vertex2)
        vertex2[v] += 2
        u, w = sorted((v, mate[v]))
        with pytest.raises(OptimalityError, match=rf"matched edge \({u}, {w}\) has nonzero slack"):
            check_optimum(adj, mate, MatchingDuals(vertex2, duals.blossoms), -1, 0)


def _record_blossom_calls(monkeypatch):
    """Record ``(adj, top, negate)`` for every blossom call the engines make."""
    calls = []
    run = engines.max_weight_matching

    def recording(adj, top, *, negate=False):
        calls.append((adj, top, negate))
        return run(adj, top, negate=negate)

    monkeypatch.setattr(engines, "max_weight_matching", recording)
    return calls


K6_PAIRS = list(itertools.combinations(range(6), 2))
RED_TOP_GRAPHS = {
    # n = 0: an edgeless graph with vertices has too few edges to reach
    # blossom (see test_red_engines_skip_graphs_with_too_few_edges).
    "edgeless": ColoredGraph(0, {}),
    "all-red": ColoredGraph(6, {e: RED for e in K6_PAIRS}),
    "all-blue": ColoredGraph(6, {e: BLUE for e in K6_PAIRS}),
    "mixed": ColoredGraph(6, {e: RED if sum(e) % 3 == 0 else BLUE for e in K6_PAIRS}),
    # Every edge at vertex 3 is blue, every other edge red.
    "blue-vertex": ColoredGraph(4, {e: BLUE if 3 in e else RED
                                    for e in itertools.combinations(range(4), 2)}),
}


@pytest.mark.parametrize("name", sorted(RED_TOP_GRAPHS))
@pytest.mark.parametrize("engine", [min_red_pm, max_red_pm])
def test_red_engines_pass_the_largest_weight(monkeypatch, engine, name):
    """Each red engine hands blossom the largest weight as read, by a plain
    scan of the map it passes: 0 for min-red, 1 or 0 for max-red."""
    calls = _record_blossom_calls(monkeypatch)
    engine(RED_TOP_GRAPHS[name])
    [(adj, top, negate)] = calls
    assert negate == (engine is min_red_pm)
    assert top == largest_read_weight(adj, negate), (engine.__name__, name)


@pytest.mark.parametrize("graph", [
    ColoredGraph(4, {}),
    ColoredGraph(6, {(0, 1): RED, (2, 3): BLUE}),
    ColoredGraph(10 ** 40, {}),
], ids=["edgeless", "two-edges-n6", "edgeless-n1e40"])
@pytest.mark.parametrize("engine", [min_red_pm, max_red_pm])
def test_red_engines_skip_graphs_with_too_few_edges(monkeypatch, engine, graph):
    """Fewer than n/2 edges cover no n vertices: None at once, with no
    blossom call and no neighbor index built, whatever the size of n."""
    calls = _record_blossom_calls(monkeypatch)
    assert engine(graph) is None
    assert not calls
    assert "neighbor_index" not in vars(graph)


@pytest.mark.parametrize("weights", [
    {(0, 1): -3, (0, 2): -1, (0, 3): -7, (1, 2): -2, (1, 3): -5, (2, 3): -4},
    {(0, 1): -3, (0, 2): 6, (0, 3): 0, (1, 2): 2, (1, 3): -5, (2, 3): 9},
    {},
], ids=["all-negative", "mixed", "edgeless"])
def test_max_weight_passes_the_largest_weight(monkeypatch, weights):
    calls = _record_blossom_calls(monkeypatch)
    g = ColoredGraph(4, {e: RED for e in weights})
    max_weight_perfect_matching(g, weights)
    [(adj, top, negate)] = calls
    assert not negate
    assert top == largest_read_weight(adj) == max([0, *weights.values()])


def _nx_matching(n, weighted_edges, nodes=None):
    """networkx's max-cardinality max-weight matching as a set of (min, max)."""
    g = nx.Graph()
    g.add_nodes_from(range(n) if nodes is None else nodes)
    for u, v, w in weighted_edges:
        if w is None:
            g.add_edge(u, v)
        else:
            g.add_edge(u, v, weight=w)
    return {(min(e), max(e)) for e in nx.max_weight_matching(g, maxcardinality=True)}


WEIGHT_RANGES = {
    "unit-signed": lambda rng: rng.randint(-1, 1),
    "small": lambda rng: rng.randint(-5, 9),
    "planted": lambda rng: rng.randrange(1, 1_000_000),
}


def _with_negate(*axes):
    """Parameters over the product of ``axes`` and ``negate`` in (False,
    True); the ``negate=False`` cases keep the ids they had without it."""
    return [pytest.param(*values, negate,
                         id="-".join(map(str, values)) + "-negate" * negate)
            for negate in (False, True) for values in itertools.product(*axes)]


@pytest.mark.parametrize("kind, negate", _with_negate(sorted(WEIGHT_RANGES)))
def test_blossom_equals_networkx(kind, negate):
    """Edge for edge networkx's matching, perfect or not, on random graphs;
    with ``negate``, networkx's matching on the negated weights."""
    draw_weight = WEIGHT_RANGES[kind]
    sign = -1 if negate else 1
    imperfect = 0
    for seed in range(120):
        rng = random.Random(f"{kind}-{seed}")
        n = rng.randint(0, 40)
        g = random_colored_graph(n, rng.choice([0.05, 0.1, 0.2, 0.4, 0.8]), seed)
        weights = {e: draw_weight(rng) for e in g.edges()}
        want = _nx_matching(n, [(u, v, sign * weights[u, v]) for u, v in g.edges()])
        adj = [{} for _ in range(n)]
        for (u, v), w in weights.items():
            adj[u][v] = adj[v][u] = w
        mate = blossom_mate(adj, negate)
        assert {(u, v) for u, v in enumerate(mate) if u < v} == want, (kind, seed)
        pm = max_weight_perfect_matching(g, {e: sign * w for e, w in weights.items()})
        if n % 2 == 0 and 2 * len(want) == n:
            assert pm is not None and pm.edges == want, (kind, seed)
        else:
            imperfect += 1
            assert pm is None, (kind, seed)
    assert imperfect > 0


def test_red_engines_equal_networkx():
    """min/max-red are networkx's matching under red weight -1/+1, blue 0."""
    imperfect = 0
    for seed in range(120):
        rng = random.Random(f"red-{seed}")
        n = rng.randint(0, 40)
        g = random_colored_graph(n, rng.choice([0.05, 0.1, 0.2, 0.4, 0.8]), seed)
        for engine, red in ((min_red_pm, -1), (max_red_pm, 1)):
            want = _nx_matching(n, [(u, v, red if c == RED else 0)
                                    for (u, v), c in g.colors.items()])
            pm = engine(g)
            if n % 2 == 0 and 2 * len(want) == n:
                assert pm is not None and pm.edges == want, (engine.__name__, seed)
            else:
                imperfect += 1
                assert pm is None, (engine.__name__, seed)
    assert imperfect > 0


DENSE_WEIGHTS = {
    "unit": lambda rng, high: rng.randint(0, 1),
    "unit-negative": lambda rng, high: rng.randint(-1, 0),
    # Weight 9 only between vertices at or above a cut: the greedy stages
    # match that part, then stall and hand over to stages that move duals.
    "stall": lambda rng, high: 9 if high else rng.randint(-5, 8),
}


@pytest.mark.parametrize("kind, density, negate",
                         _with_negate(sorted(DENSE_WEIGHTS), [1.0, 0.5]))
def test_blossom_equals_networkx_dense(kind, density, negate):
    """Edge for edge networkx's matching on K_n and G(n, 0.5), n 60-128;
    with ``negate``, networkx's matching on the negated weights."""
    draw_weight = DENSE_WEIGHTS[kind]
    sign = -1 if negate else 1
    for seed in range(3):
        rng = random.Random(f"dense-{kind}-{density}-{seed}")
        n = rng.randint(60, 128)
        cut = rng.randint(n // 4, 3 * n // 4)
        edges = [(u, v, draw_weight(rng, u >= cut))
                 for u, v in itertools.combinations(range(n), 2)
                 if rng.random() < density]
        adj = [{} for _ in range(n)]
        for u, v, w in edges:
            adj[u][v] = adj[v][u] = w
        mate = blossom_mate(adj, negate)
        want = _nx_matching(n, [(u, v, sign * w) for u, v, w in edges])
        assert {(u, v) for u, v in enumerate(mate) if u < v} == want, seed


def _weighted_adj(n, edges):
    """Neighbor maps of the weighted edges ``(u, v, w)``, in the order given."""
    adj = [{} for _ in range(n)]
    for u, v, w in edges:
        adj[u][v] = adj[v][u] = w
    return adj


def _assert_blossom_is_networkx(n, edges, negate, case):
    """Edge for edge, blossom's matching on ascending maps of ``edges`` is
    networkx's, read negated when ``negate`` is set."""
    sign = -1 if negate else 1
    edges = sorted(edges)
    mate = blossom_mate(_weighted_adj(n, edges), negate)
    want = _nx_matching(n, [(u, v, sign * w) for u, v, w in edges])
    assert {(u, v) for u, v in enumerate(mate) if u < v} == want, case


@pytest.mark.parametrize("negate", [False, True])
def test_blossom_equals_networkx_sparse_large(negate):
    """G(n, c/n) at n 100-300 and c 2-8, weights -5..9: most neighbor maps
    are shorter than the single-vertex list, so the greedy stages walk the
    maps, and ``add_blossom``'s merge reads the leaves' short maps."""
    for seed in range(6):
        rng = random.Random(f"sparse-large-{seed}")
        n = rng.randint(100, 300)
        g = random_colored_graph(n, rng.choice([2, 3, 5, 8]) / n, seed)
        edges = [(u, v, rng.randint(-5, 9)) for u, v in g.edges()]
        _assert_blossom_is_networkx(n, edges, negate, seed)


@pytest.mark.parametrize("negate", [False, True])
def test_blossom_equals_networkx_dense_lists(negate):
    """G(n, 0.7) at n 60-128, weights 0-3: the single-vertex list is
    shorter than most neighbor maps, so the greedy stages walk the list,
    while ``add_blossom``'s merge walks the leaves' long maps."""
    for seed in range(3):
        rng = random.Random(f"dense-lists-{seed}")
        n = rng.randint(60, 128)
        edges = [(u, v, rng.randint(0, 3)) for u, v in itertools.combinations(range(n), 2)
                 if rng.random() < 0.7]
        _assert_blossom_is_networkx(n, edges, negate, seed)


@pytest.mark.parametrize("negate", [False, True])
def test_blossom_equals_networkx_color_biased(negate):
    """G(n, p) at n 10-80 with weight 1 on a share of 0.05-0.95 of the edges
    and 0 elsewhere, the red engines' weights: some first dry stages form
    blossoms and are run again in full, others form none."""
    for seed in range(40):
        rng = random.Random(f"color-biased-{seed}")
        n = rng.randint(10, 80)
        p = rng.choice([0.1, 0.3, 0.6, 1.0])
        red_share = rng.choice([0.05, 0.2, 0.5, 0.8, 0.95])
        edges = [(u, v, int(rng.random() < red_share))
                 for u, v in itertools.combinations(range(n), 2) if rng.random() < p]
        _assert_blossom_is_networkx(n, edges, negate, seed)


def test_blossom_equals_networkx_nested_rotations():
    """G(n, p) at n 30-60, p 0.1-0.3, weights 1-5.  Here augmentations
    rotate blossoms that hold blossoms: 228 such rotations in 95 of the 200
    runs.  A leaf list kept across a rotation would queue vertices in a
    stale order; without the reset in ``augment_blossom``, three of these
    matchings differ from networkx's.  ``add_blossom``'s merge also reads
    the leaves' neighbor maps of a sub-blossom that holds blossoms and has
    no least-slack list here: 49 such sub-blossoms over the 200 runs."""
    for seed in range(100):
        rng = random.Random(f"nested-{seed}")
        n = rng.randint(30, 60)
        p = rng.choice([0.1, 0.2, 0.3])
        edges = [(u, v, rng.randint(1, 5)) for u, v in itertools.combinations(range(n), 2)
                 if rng.random() < p]
        for negate in (False, True):
            _assert_blossom_is_networkx(n, edges, negate, (seed, negate))


def test_blossom_equals_networkx_on_a_tie_in_target_order():
    """G(16, 0.7), weights 0-3, drawn from the seed below.  Here two
    least-slack edges to S-blossoms tie, and the edge that ``add_blossom``'s
    merge meets first decides the matching: a merge that walks the leaves'
    neighbor maps backwards breaks networkx's tie-break."""
    rng = random.Random("tie-756")
    n = rng.randint(10, 70)
    p = rng.choice([0.1, 0.2, 0.4, 0.7, 1.0])
    edges = [(u, v, rng.randint(0, 3)) for u, v in itertools.combinations(range(n), 2)
             if rng.random() < p]
    assert (n, p, len(edges)) == (16, 0.7, 93)
    _assert_blossom_is_networkx(n, edges, False, "tie-756")


@pytest.mark.parametrize("negate", [False, True])
def test_blossom_on_shuffled_maps_keeps_the_optimum(negate):
    """Neighbor maps in shuffled order may break ties differently from
    networkx, but the matching keeps networkx's cardinality and weight and
    passes the optimality check, sparse and dense."""
    sign = -1 if negate else 1
    for seed in range(8):
        rng = random.Random(f"shuffled-{seed}")
        n = rng.randint(40, 100)
        p = rng.choice([3 / n, 0.2, 0.7])
        edges = [(u, v, rng.randint(-2, 4)) for u, v in itertools.combinations(range(n), 2)
                 if rng.random() < p]
        rng.shuffle(edges)
        adj = _weighted_adj(n, edges)
        mate = blossom_mate(adj, negate)
        got = {(u, v) for u, v in enumerate(mate) if u < v}
        want = _nx_matching(n, [(u, v, sign * w) for u, v, w in edges])
        assert len(got) == len(want), seed
        assert (sum(adj[u][v] for u, v in got)
                == sum(adj[u][v] for u, v in want)), seed


@pytest.mark.parametrize("negate", [False, True])
def test_dual_record_proves_the_weight(negate):
    """On every perfect matching blossom returns for random general and
    bipartite graphs, n 6-30, the record's sets have positive duals, come
    after the sets they contain and are otherwise disjoint, and the record
    proves the weight by LP duality, without ``check_optimum``:
    2 w(M) = sum(vertex2) + sum of z (|B| - 1), each weight read negated
    with ``negate``."""
    sign = -1 if negate else 1
    perfect = with_sets = 0
    for seed in range(400):
        rng = random.Random(f"record-{seed}")
        n = 2 * rng.randint(3, 15)
        make = random_bipartite_colored_graph if seed % 2 else random_colored_graph
        g = make(n, rng.choice([0.2, 0.4, 0.7, 1.0]), seed)
        draw_weight = WEIGHT_RANGES[rng.choice(sorted(WEIGHT_RANGES))]
        adj = _weighted_adj(n, [(u, v, draw_weight(rng)) for u, v in g.edges()])
        mate, duals = blossom.max_weight_matching(
            adj, largest_read_weight(adj, negate), negate=negate)
        if -1 in mate:
            continue
        perfect += 1
        sets = [set(vertices) for _, vertices in duals.blossoms]
        with_sets += bool(sets)
        assert all(z > 0 for z, _ in duals.blossoms), seed
        for i, j in itertools.combinations(range(len(sets)), 2):
            assert sets[i] <= sets[j] or not sets[i] & sets[j], seed
        weight = sum(sign * adj[u][v] for u, v in enumerate(mate) if u < v)
        assert 2 * weight == (sum(duals.vertex2)
                              + sum(z * (len(b) - 1) for z, b in duals.blossoms)), seed
    assert perfect >= 250 and with_sets >= 50, (perfect, with_sets)


@pytest.mark.parametrize("color", [RED, BLUE])
def test_red_engines_equal_networkx_monochrome(color):
    """min/max-red on all-red and all-blue K_n."""
    for n in (64, 128):
        g = ColoredGraph(n, {e: color for e in itertools.combinations(range(n), 2)})
        for engine, red in ((min_red_pm, -1), (max_red_pm, 1)):
            want = _nx_matching(n, [(u, v, red if color == RED else 0) for u, v in g.edges()])
            assert engine(g).edges == want, (engine.__name__, n)


@pytest.mark.parametrize("density", [1.0, 0.5])
def test_red_engines_equal_networkx_dense(density):
    """min/max-red on mixed-color K_n and G(n, 0.5), n 60-128, where both
    engines run the stages that form and expand blossoms."""
    for seed in range(3):
        rng = random.Random(f"red-dense-{density}-{seed}")
        n = 2 * rng.randint(30, 64)
        red_frac = rng.choice([0.3, 0.5, 0.7])
        g = ColoredGraph(n, {e: RED if rng.random() < red_frac else BLUE
                             for e in itertools.combinations(range(n), 2)
                             if rng.random() < density})
        for engine, red in ((min_red_pm, -1), (max_red_pm, 1)):
            want = _nx_matching(n, [(u, v, red if c == RED else 0)
                                    for (u, v), c in g.colors.items()])
            assert engine(g).edges == want, (engine.__name__, density, seed)


# Every split up to n = 40; beyond, the splits at the ends and round n/2.
PARITY_SPLITS = {n: range(1, n) for n in (10, 20, 30, 40)}
PARITY_SPLITS.update({n: (1, 2, 3, 5, 7, n // 2 - 1, n // 2, n // 2 + 1, n - 1)
                      for n in (60, 80, 100)})


@pytest.mark.parametrize("n", sorted(PARITY_SPLITS))
def test_red_engines_equal_networkx_parity(n):
    """min/max-red on parity K_n.  Before the duals first move, a stage runs
    without ``add_blossom``'s least-slack merge.  With an odd split the
    min-red call's first such stage forms n/2 - 1 blossoms and then runs out
    of tight edges, so it is undone and run again in full.  With a split
    below n/2 the max-red call's tight subgraph is bipartite, so its first
    dry stage forms no blossom and goes straight on to the dual step."""
    for split in PARITY_SPLITS[n]:
        g = parity_graph(n, split)
        for engine, red in ((min_red_pm, -1), (max_red_pm, 1)):
            want = _nx_matching(n, [(u, v, red if c == RED else 0)
                                    for (u, v), c in g.colors.items()])
            assert engine(g).edges == want, (engine.__name__, split)


def test_red_engines_leave_the_shared_index_as_it_was():
    """Both engines read ``neighbor_index`` in place: same object, same
    contents, same key order afterwards."""
    rng = random.Random("index")
    g = ColoredGraph(40, {e: RED if rng.random() < 0.4 else BLUE
                          for e in itertools.combinations(range(40), 2)
                          if rng.random() < 0.5})
    index = g.neighbor_index
    before = [list(nbrs.items()) for nbrs in index]
    assert min_red_pm(g) is not None and max_red_pm(g) is not None
    assert g.neighbor_index is index
    assert [list(nbrs.items()) for nbrs in index] == before


@contextlib.contextmanager
def _collector_off():
    """Run the block with the cycle collector disabled, starting clean."""
    enabled = gc.isenabled()
    gc.collect()
    gc.disable()
    try:
        yield
    finally:
        if enabled:
            gc.enable()


def test_engine_and_solve_leave_no_reference_cycles():
    """Nothing an engine call or a hinted solve leaves behind needs the
    cycle collector: with it disabled, a collection right after finds no
    garbage.  Both graphs make the engine form blossoms, and both solves
    find their witness in phase 2."""
    general = random_colored_graph(40, 0.5, 3)
    bipartite = random_bipartite_colored_graph(30, 0.5, 4)
    with _collector_off():
        for g in (general, bipartite):
            adj = g.neighbor_index
            mate, _ = blossom.max_weight_matching(adj, 1)
            assert -1 not in mate
            assert gc.collect() == 0
            assert min_red_pm(g) is not None
            assert gc.collect() == 0
        v = solve_em(general, 8, SolverParams(alpha_hint=2))
        assert (v.status, v.L_used) == ("yes", 8)
        assert gc.collect() == 0
        v = solve_em(bipartite, 5, SolverParams(beta_hint=1))
        assert (v.status, v.L_used) == ("yes", 4)
        assert gc.collect() == 0


def test_oracles_and_unhinted_solves_leave_no_reference_cycles():
    """The same for every public oracle, for a brute-force decision that
    abandons the enumeration at its first hit, and for solves without a
    hint, which measure their bound with the independence oracles."""
    general = random_colored_graph(12, 0.5, 2)
    bipartite = random_bipartite_colored_graph(12, 0.5, 2)
    planted = [gen_planted_yes(20, 5, BaseFamily(kind, 2), 7) for kind in ("alpha", "beta")]
    with _collector_off():
        for g in (general, bipartite):
            first = next(enumerate_perfect_matchings(g))
            assert gc.collect() == 0
            assert em_decide_bruteforce(g, first.red_count) == first
            assert gc.collect() == 0
            assert len(list(enumerate_perfect_matchings(g))) == count_perfect_matchings(g)
            assert gc.collect() == 0
            assert first.red_count in perfect_matching_red_counts(g)
            assert gc.collect() == 0
            assert 1 <= distance_d_independence_number(g, 3) <= independence_number(g)
            assert gc.collect() == 0
        assert bipartite_independence_number(bipartite) >= 1
        assert gc.collect() == 0
        for g in planted:
            assert solve_em(g, 5).status == "yes"
            assert gc.collect() == 0


def test_import_does_not_load_networkx():
    src = os.path.dirname(os.path.dirname(os.path.abspath(blossom.__file__)))
    env = dict(os.environ, PYTHONPATH=src)
    code = "import sys, exactmatching; print('networkx' in sys.modules)"
    out = subprocess.run([sys.executable, "-c", code], env=env, check=True,
                         capture_output=True, text=True).stdout
    assert out.strip() == "False"


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
    # Far past the recursion limit.  The second path, 2399-0-1-2-...-2398,
    # leaves greedy two exposed ends joined by one augmenting path through
    # every vertex.
    edges = [(i, i + 1) for i in range(2399)]
    assert perfect_matching_on(range(2400), edges) == tuple(edges[::2])
    edges = [(0, 2399)] + [(i, i + 1) for i in range(2398)]
    assert perfect_matching_on(range(2400), edges) == ((0, 2399),) + tuple(edges[2::2])


def test_perfect_matching_on_ignores_outside_edges():
    got = perfect_matching_on([0, 1], [(0, 1), (2, 3), (0, 9)])
    assert got == ((0, 1),)


def test_perfect_matching_on_ignores_self_loops():
    # The greedy pass used to pair 0 with itself and then find no mate for 1.
    assert perfect_matching_on([0, 1, 2, 3], [(0, 0), (2, 3), (0, 1)]) == ((0, 1), (2, 3))
    assert perfect_matching_on([0, 1], [(1, 1), (0, 0)]) is None


@settings(max_examples=60, deadline=None)
@given(seed=st.integers(0, 10_000), n=st.sampled_from([4, 6, 8, 10]),
       drop=st.integers(0, 3))
def test_adjacency_variant_matches_edge_variant(seed, n, drop):
    """Both entry points return the identical matching on every remainder,
    the adjacency variant reading one color's flag in the neighbor index."""
    g = random_colored_graph(n, 0.6, seed)
    verts = [v for v in range(n) if v >= drop]
    for color, flag in ((BLUE, 0), (RED, 1)):
        edges = [e for e, c in g.colors.items() if c == color]
        assert (perfect_matching_on(verts, edges)
                == perfect_matching_on_adjacency(g.neighbor_index, verts, flag))


def _has_perfect_matching(adjacency, verts):
    """Existence by an engine other than completion: the count at up to 12
    vertices, blossom's cardinality above that."""
    index = {v: i for i, v in enumerate(verts)}
    pairs = [(index[u], index[v]) for u in verts for v in adjacency[u]
             if u < v and v in index]
    if len(verts) <= 12:
        sub = ColoredGraph(len(verts), {e: RED for e in pairs})
        return count_perfect_matchings(sub) > 0
    adj = [{} for _ in verts]
    for a, b in pairs:
        adj[a][b] = adj[b][a] = 1
    return -1 not in blossom_mate(adj)


def _compare_completion(adj, verts, outcomes, seed):
    """Completion against lowest-vertex-first backtracking, which finds the
    lexicographically first perfect matching; where backtracking runs out
    of budget, only existence is compared."""
    got = perfect_matching_on_adjacency(adj, verts, 0)
    try:
        want = backtrack_match(adj, verts, budget=20_000)
    except BudgetExhausted:
        assert (got is not None) == _has_perfect_matching(adj, verts), seed
        outcomes["exhausted"] += 1
    else:
        assert got == want, seed
        outcomes["equal" if got is not None else "none"] += 1


def test_completion_equals_backtracking(monkeypatch):
    """The lexicographically first perfect matching on random remainders of
    general and bipartite graphs: sparse to dense ones of up to 40
    vertices, then dense ones (n 40 to 60, p 0.5 to 0.95, about n/2 free
    vertices), where greedy leaves vertices exposed, so the repair and the
    lexicographic pass's trials run."""
    remainders = _completion_remainders()
    outcomes = {"equal": 0, "none": 0, "exhausted": 0}
    for seed, (adj, verts) in enumerate(itertools.islice(remainders, 600)):
        _compare_completion(adj, verts, outcomes, seed)
    assert min(outcomes.values()) >= 5, outcomes

    searches = []
    augment = engines._augment
    monkeypatch.setattr(engines, "_augment", lambda *args: searches.append(1) or augment(*args))
    dense = {"equal": 0, "none": 0, "exhausted": 0}
    for seed, (adj, verts) in enumerate(remainders):
        _compare_completion(adj, verts, dense, seed)
    assert min(dense.values()) >= 5 and dense["equal"] >= 100, dense
    assert len(searches) >= 100, len(searches)


def _completion_remainders():
    """The remainders ``test_completion_equals_backtracking`` completes, as
    (adjacency, vertices): its 600 sparse to dense ones, then its 200 dense
    ones."""
    for seed in range(600):
        rng = random.Random(f"completion-{seed}")
        n = 2 * rng.randint(2, 20)
        make = random_bipartite_colored_graph if seed % 2 else random_colored_graph
        g = make(n, rng.choice([0.1, 0.2, 0.35, 0.5, 0.7, 0.95]), seed)
        adj = {v: dict.fromkeys(nbrs, 0) for v, nbrs in enumerate(g.neighbor_index)}
        yield adj, sorted(rng.sample(range(n), 2 * rng.randint(1, n // 2)))
    for seed in range(200):
        rng = random.Random(f"dense-completion-{seed}")
        n = 2 * rng.randint(20, 30)
        make = random_bipartite_colored_graph if seed % 2 else random_colored_graph
        g = make(n, rng.choice([0.5, 0.7, 0.85, 0.95]), seed)
        adj = {v: dict.fromkeys(nbrs, 0) for v, nbrs in enumerate(g.neighbor_index)}
        yield adj, sorted(rng.sample(range(n), 2 * rng.randint(n // 5, 3 * n // 10)))


def test_completion_greedy_walks_agree_with_the_map_walk():
    """Completion's greedy pass walks the vertices above u or u's map,
    whichever is shorter; on every remainder it must mate as plain map walks
    do, and each walk must be taken often.  A map walk is counted by its one
    ``items()`` call, and every other turn of an exposed vertex walks the
    list."""
    walks = {"map": 0, "list": 0}
    for adj, verts in _completion_remainders():
        items = []

        class CountingMap(dict):
            def items(self):
                items.append(1)
                return super().items()

        counting = {v: CountingMap(nbrs) for v, nbrs in adj.items()}
        got = engines._greedy(counting, 0, verts, set(verts))
        assert got == greedy_map_walk(adj, 0, verts), verts
        turns = sum(u not in got or got[u] > u for u in verts)
        walks["map"] += len(items)
        walks["list"] += turns - len(items)
    assert min(walks.values()) >= 100, walks


@pytest.mark.parametrize("a", [13, 21, 41])
def test_completion_of_two_odd_cliques(a):
    """K_a and K_a with one bridge from 0 to 2a-1: only the bridge can join
    the two odd cliques, which backtracking learns once per partner of 0, by
    exhausting a whole clique each time."""
    n = 2 * a
    cliques = [(u, v) for part in (range(a), range(a, n))
               for u, v in itertools.combinations(part, 2)]
    start = time.perf_counter()
    got = perfect_matching_on(range(n), cliques + [(0, n - 1)])
    elapsed = time.perf_counter() - start
    print(f"two odd cliques, a={a}: {1000 * elapsed:.1f} ms")
    assert got == ((0, n - 1),) + tuple((v, v + 1) for v in range(1, n - 1, 2))
    assert elapsed < 2.0
    assert perfect_matching_on(range(n), cliques) is None


def _counted_completion(monkeypatch, n, edges):
    """Completion of the plain graph on range(n), and the number of
    augmenting-path searches it made."""
    searches = []
    augment = engines._augment
    monkeypatch.setattr(engines, "_augment", lambda *args: searches.append(1) or augment(*args))
    return perfect_matching_on(range(n), edges), len(searches)


def test_completion_covered_by_greedy_searches_nothing(monkeypatch):
    # Greedy pairs 0-1, 2-3 and 4-5 and covers every vertex: no repair, and
    # no vertex is scanned for a trial.
    edges = [(0, 1), (1, 2), (2, 3), (3, 4), (4, 5), (0, 5), (1, 4)]
    got, searches = _counted_completion(monkeypatch, 6, edges)
    assert got == ((0, 1), (2, 3), (4, 5))
    assert searches == 0


def test_completion_after_a_repair_searches_twice(monkeypatch):
    # Greedy pairs 0-3 and 1-2 and leaves 4 and 5 exposed.  The repair from
    # 4, scanning highest first, flips 4-1=2-5 and keeps 0-3; an ascending
    # scan would flip 4-0=3-5 and re-mate 0, which then needs a trial to get
    # 3 back.  Here 0 lies below the least re-mated vertex, 1, so it keeps 3
    # unscanned; 1's one trial, 2, fails.
    edges = [(0, 3), (0, 4), (1, 2), (1, 4), (2, 5), (3, 5)]
    got, searches = _counted_completion(monkeypatch, 6, edges)
    assert got == ((0, 3), (1, 4), (2, 5))
    assert searches == 2


def test_adjacency_variant_validity():
    g = random_colored_graph(12, 0.5, 99)
    adj = {v: dict.fromkeys(nbrs, 0) for v, nbrs in enumerate(g.neighbor_index)}
    for combo in itertools.combinations(range(12), 4):
        verts = [v for v in range(12) if v not in combo]
        got = perfect_matching_on_adjacency(adj, verts, 0)
        if got is None:
            continue
        used = [v for e in got for v in e]
        assert sorted(used) == verts
        assert all(g.has_edge(*e) for e in got)
