"""Seeded generators for test and benchmark instances.

Every generator is a pure function of its arguments: the same seed yields
the same graph.  Randomness is drawn from ``random.Random(seed)`` and only
consumed while iterating structures in sorted order, so results are stable
across platforms and Python versions.

Structural bounds are guaranteed by construction where possible (clique
covers for the independence number, forbidden-subgraph breaking for the
complement tricks) and double-checked against the brute-force oracle
whenever the instance is small enough.
"""

from __future__ import annotations

import itertools
import random
from dataclasses import dataclass

from .engines import max_weight_perfect_matching
from .graphs import (
    AlternatingCycle,
    BLUE,
    RED,
    ColoredGraph,
    Edge,
    PerfectMatching,
    edge_key,
)
from .oracle import (
    INDEPENDENCE_CAP,
    bipartite_independence_number,
    independence_number,
)

_REROLL_BUDGET = 60


class GenerationError(RuntimeError):
    """The requested instance could not be produced within the retry budget."""


@dataclass(frozen=True)
class BaseFamily:
    """Recipe for the base graph a planted instance is drawn from.

    ``kind`` is "alpha" (general, bounded independence number) or "beta"
    (bipartite, bounded bipartite independence number); ``bound`` is the
    promised bound; ``edge_keep_prob`` steers density where the family has
    room for it.
    """

    kind: str
    bound: int
    edge_keep_prob: float = 0.5

    def __post_init__(self) -> None:
        if self.kind not in ("alpha", "beta"):
            raise GenerationError(f"unknown base family kind {self.kind!r}")
        if self.bound < 1:
            raise GenerationError(f"family bound must be >= 1, got {self.bound}")
        _check_prob(self.edge_keep_prob)


def _check_prob(p: float) -> None:
    """Reject an edge probability outside [0, 1], NaN included."""
    if not 0.0 <= p <= 1.0:
        raise GenerationError(f"edge keep probability must lie in [0, 1], got {p}")


def _check_n(n: int, even: bool) -> None:
    """Reject a negative vertex count, and an odd one when ``even``."""
    if n < 0 or (even and n % 2 != 0):
        rule = "even and >= 0" if even else ">= 0"
        raise GenerationError(f"vertex count must be {rule}, got {n}")


def _random_colors(rng: random.Random, pairs: list[Edge]) -> dict[Edge, str]:
    return {e: (RED if rng.random() < 0.5 else BLUE) for e in sorted(pairs)}


def gen_bounded_alpha(
    n: int, alpha_max: int, seed: int, edge_keep_prob: float = 0.5
) -> ColoredGraph:
    """Random graph with independence number at most ``alpha_max``.

    alpha_max 1 is the complete graph (density is forced, so the keep
    probability is unused).  alpha_max 2 takes the complement of a random
    triangle-free graph: independent sets of the result are cliques of the
    complement, hence have at most two vertices.  Larger bounds cover the
    vertices by ``alpha_max`` cliques and sprinkle cross edges, which caps
    the independence number at the number of cliques.  Edge colors are
    uniform.  The bound is re-checked with the oracle when n is within its
    cap.
    """
    _check_n(n, even=False)
    if alpha_max < 1:
        raise GenerationError(f"alpha_max must be >= 1, got {alpha_max}")
    _check_prob(edge_keep_prob)
    rng = random.Random(seed)
    all_pairs = list(itertools.combinations(range(n), 2))
    if alpha_max == 1:
        pairs = all_pairs
    elif alpha_max == 2:
        absent = {e for e in all_pairs if rng.random() >= edge_keep_prob}
        _break_triangles(absent, rng)
        pairs = [e for e in all_pairs if e not in absent]
    else:
        labels = [i % alpha_max for i in range(n)]
        rng.shuffle(labels)
        pairs = []
        for u, v in all_pairs:
            if labels[u] == labels[v] or rng.random() < edge_keep_prob:
                pairs.append((u, v))
    graph = ColoredGraph(n, _random_colors(rng, pairs))
    if n <= INDEPENDENCE_CAP and independence_number(graph) > alpha_max:
        raise GenerationError("constructed graph violates its independence bound")
    return graph


def _break_triangles(edges: set[Edge], rng: random.Random) -> None:
    """Delete edges until the graph is triangle-free (mutates ``edges``).

    One pass suffices: clearing every triangle through an edge before
    moving on is permanent, because deletions never create triangles.
    """
    adj: dict[int, set[int]] = {}
    for u, v in edges:
        adj.setdefault(u, set()).add(v)
        adj.setdefault(v, set()).add(u)
    for u, v in sorted(edges):
        while (u, v) in edges:
            common = adj[u] & adj[v]
            if not common:
                break
            w = min(common)
            victim = rng.choice([edge_key(u, v), edge_key(u, w), edge_key(v, w)])
            edges.discard(victim)
            adj[victim[0]].discard(victim[1])
            adj[victim[1]].discard(victim[0])


def gen_bounded_beta(
    n: int, beta_max: int, seed: int, edge_keep_prob: float = 0.5
) -> ColoredGraph:
    """Random bipartite graph with bipartite independence number <= beta_max.

    Sides are ``0 .. n/2-1`` and ``n/2 .. n-1``.  beta_max 1 is the complete
    bipartite graph.  beta_max 2 takes the bipartite complement of a random
    four-cycle-free bipartite graph: a balanced independent pair of the
    result is a complete bipartite subgraph of the complement, which
    four-cycle-freeness caps at one vertex per side.  Larger bounds fall
    back to rejection sampling against the oracle, which requires n within
    the oracle cap.
    """
    _check_n(n, even=True)
    if beta_max < 1:
        raise GenerationError(f"beta_max must be >= 1, got {beta_max}")
    _check_prob(edge_keep_prob)
    half = n // 2
    side_a = range(half)
    side_b = range(half, n)
    cross = [(a, b) for a in side_a for b in side_b]
    rng = random.Random(seed)
    if beta_max == 1:
        pairs = cross
    elif beta_max == 2:
        absent = {e for e in cross if rng.random() >= edge_keep_prob}
        _break_four_cycles(absent, rng)
        pairs = [e for e in cross if e not in absent]
    else:
        if n > INDEPENDENCE_CAP:
            raise GenerationError(
                f"rejection sampling for beta_max={beta_max} needs n <= {INDEPENDENCE_CAP}")
        for attempt in range(_REROLL_BUDGET):
            sub_rng = random.Random(seed + 7919 * attempt)
            pairs = [e for e in cross if sub_rng.random() < edge_keep_prob]
            candidate = ColoredGraph(n, _random_colors(sub_rng, pairs),
                                     (frozenset(side_a), frozenset(side_b)))
            if bipartite_independence_number(candidate) <= beta_max:
                return candidate
        raise GenerationError(
            f"no graph with beta <= {beta_max} found in {_REROLL_BUDGET} attempts")
    graph = ColoredGraph(n, _random_colors(rng, pairs),
                         (frozenset(side_a), frozenset(side_b)))
    if n <= INDEPENDENCE_CAP and bipartite_independence_number(graph) > beta_max:
        raise GenerationError("constructed graph violates its bipartite independence bound")
    return graph


def _break_four_cycles(edges: set[Edge], rng: random.Random) -> None:
    """Delete edges until no four-cycle remains (mutates ``edges``).

    Edges are canonical (a, b) cross pairs with a below b, so iterating
    over pairs of b-side vertices covers every four-cycle.  As with
    triangles, deletions never create four-cycles, so one pass suffices.
    """
    adj: dict[int, set[int]] = {}
    for a, b in edges:
        adj.setdefault(a, set()).add(b)
        adj.setdefault(b, set()).add(a)
    b_side = sorted({b for _, b in edges})
    for i, b1 in enumerate(b_side):
        for b2 in b_side[i + 1:]:
            while True:
                common = adj.get(b1, set()) & adj.get(b2, set())
                if len(common) < 2:
                    break
                a1, a2 = sorted(common)[:2]
                four = [(a1, b1), (a1, b2), (a2, b1), (a2, b2)]
                victim = rng.choice(four)
                edges.discard(victim)
                adj[victim[0]].discard(victim[1])
                adj[victim[1]].discard(victim[0])


def _base_graph(n: int, family: BaseFamily, seed: int) -> ColoredGraph:
    if family.kind == "alpha":
        return gen_bounded_alpha(n, family.bound, seed, family.edge_keep_prob)
    return gen_bounded_beta(n, family.bound, seed, family.edge_keep_prob)


def gen_planted_yes(n: int, k: int, family: BaseFamily, seed: int) -> ColoredGraph:
    """Instance from the family that certainly has a solution for this k.

    A perfect matching of the base graph is selected by maximizing random
    edge weights, k of its edges are recolored red and the rest blue, and
    every other edge keeps an independent uniform color.  Base graphs
    without a perfect matching are re-rolled within a fixed budget.
    """
    _check_n(n, even=True)
    if not 0 <= k <= n // 2:
        raise GenerationError(f"k={k} outside [0, {n // 2}]")
    for attempt in range(_REROLL_BUDGET):
        base = _base_graph(n, family, seed + 104729 * attempt)
        rng = random.Random(f"plant-{seed}-{attempt}")
        weights = {e: rng.randrange(1, 1_000_000) for e in base.edges()}
        pm = max_weight_perfect_matching(base, weights)
        if pm is None:
            continue
        planted = rng.sample(pm.sorted_edges(), k)
        colors = {}
        red_set = set(planted)
        for e in base.edges():
            if e in pm.edges:
                colors[e] = RED if e in red_set else BLUE
            else:
                colors[e] = RED if rng.random() < 0.5 else BLUE
        return ColoredGraph(n, colors, base.bipartition)
    raise GenerationError(
        f"no base graph with a perfect matching found in {_REROLL_BUDGET} attempts")


def random_colored_graph(n: int, edge_prob: float, seed: int) -> ColoredGraph:
    """Uniform random graph with uniform random edge colors."""
    _check_n(n, even=False)
    _check_prob(edge_prob)
    rng = random.Random(seed)
    pairs = [e for e in itertools.combinations(range(n), 2)
             if rng.random() < edge_prob]
    return ColoredGraph(n, _random_colors(rng, pairs))


def random_bipartite_colored_graph(n: int, edge_prob: float, seed: int) -> ColoredGraph:
    """Uniform random bipartite graph on two equal sides, colored uniformly."""
    _check_n(n, even=True)
    _check_prob(edge_prob)
    half = n // 2
    rng = random.Random(seed)
    pairs = [(a, b) for a in range(half) for b in range(half, n)
             if rng.random() < edge_prob]
    return ColoredGraph(n, _random_colors(rng, pairs),
                        (frozenset(range(half)), frozenset(range(half, n))))


# -- cycle-centric instances for the shortcut machinery -----------------------


def _cycle_instance(
    n: int,
    cycle_colors: dict[Edge, str],
    chord_decider,
    bipartite: bool,
) -> tuple[ColoredGraph, PerfectMatching, AlternatingCycle]:
    """Assemble (graph, matching, cycle) from a colored n-cycle plus chords.

    The cycle is 0-1-...-(n-1)-0 and the matching is its even-position
    edges.  ``chord_decider(u, v)`` returns a color or None for every
    non-cycle pair (cross pairs only, in the bipartite case).
    """
    colors = dict(cycle_colors)
    if bipartite:
        candidates = [(a, b) for a in range(0, n, 2) for b in range(1, n, 2)]
    else:
        candidates = list(itertools.combinations(range(n), 2))
    for u, v in sorted(edge_key(u, v) for u, v in candidates):
        if (u, v) in colors or abs(u - v) == 1 or {u, v} == {0, n - 1}:
            continue
        color = chord_decider(u, v)
        if color is not None:
            colors[(u, v)] = color
    bipartition = None
    if bipartite:
        bipartition = (frozenset(range(0, n, 2)), frozenset(range(1, n, 2)))
    graph = ColoredGraph(n, colors, bipartition)
    matching = PerfectMatching.from_edges(
        graph, [(2 * i, 2 * i + 1) for i in range(n // 2)])
    cycle = AlternatingCycle.from_vertices(graph, matching, range(n))
    return graph, matching, cycle


def gen_alternating_cycle_instance(
    length: int, chord_prob: float, seed: int, bipartite: bool = False
) -> tuple[ColoredGraph, PerfectMatching, AlternatingCycle]:
    """Random alternating cycle with random chords, for shortcut testing.

    Returns the host graph, the cycle's own even-position matching, and the
    full cycle.  Chords (random presence, random color) never touch the
    matching, so the cycle alternates by construction.
    """
    if length < 4 or length % 2 != 0:
        raise GenerationError(f"cycle length must be even and >= 4, got {length}")
    rng = random.Random(seed)
    cycle_colors = {}
    for i in range(length):
        e = edge_key(i, (i + 1) % length)
        cycle_colors[e] = RED if rng.random() < 0.5 else BLUE

    def decide(u: int, v: int) -> str | None:
        if rng.random() >= chord_prob:
            return None
        return RED if rng.random() < 0.5 else BLUE

    return _cycle_instance(length, cycle_colors, decide, bipartite)


_SUBPATH_PATTERNS = {
    2: (RED, BLUE, RED),
    1: (RED, BLUE, BLUE),
    0: (RED, RED, BLUE),
    -1: (BLUE, RED, BLUE),
}


def gen_skip_extraction_instance(
    subpath_weight: int, subpath_count: int, seed: int, bipartite: bool = False
) -> tuple[ColoredGraph, PerfectMatching, AlternatingCycle]:
    """Cycle built from disjoint equal-weight sub-paths, on a complete host.

    The cycle repeats a four-edge period: a blue connector matching edge,
    then a three-edge sub-path (non-matching, matching, non-matching) whose
    colors realize the requested weight.  The host graph is complete
    (complete bipartite when requested) with uniformly colored chords, so
    its independence bound is minimal and an exhaustive chord search must
    extract a shortcut whose weight class is predicted by the sub-path
    weight.
    """
    if subpath_weight not in _SUBPATH_PATTERNS:
        raise GenerationError(
            f"sub-path weight must be one of {sorted(_SUBPATH_PATTERNS)}, "
            f"got {subpath_weight}")
    if subpath_count < 1:
        raise GenerationError(f"sub-path count must be >= 1, got {subpath_count}")
    n = 4 * subpath_count
    first, middle, last = _SUBPATH_PATTERNS[subpath_weight]
    cycle_colors: dict[Edge, str] = {}
    for j in range(subpath_count):
        cycle_colors[edge_key(4 * j, 4 * j + 1)] = BLUE
        cycle_colors[edge_key(4 * j + 1, 4 * j + 2)] = first
        cycle_colors[edge_key(4 * j + 2, 4 * j + 3)] = middle
        cycle_colors[edge_key(4 * j + 3, (4 * j + 4) % n)] = last
    rng = random.Random(seed)

    def decide(u: int, v: int) -> str:
        return RED if rng.random() < 0.5 else BLUE

    return _cycle_instance(n, cycle_colors, decide, bipartite)
