"""Relations between verdicts that hold for every graph and every k, checked
at sizes no brute-force oracle reaches (n 40-120), with no hints: the walk's
bound is measured, up to a*, on every graph.

- Color swap: a perfect matching with k red edges has n/2 - k blue ones, so
  status(G, k) = status(swap(G), n/2 - k).  The reason keeps its kind, and
  a red-count range [a, b] becomes [n/2 - b, n/2 - a].
- Relabeling: status and reason are those of the graph under any vertex
  permutation, the bipartition mapped along.

The instances are dense random graphs (general, bipartite, and complete
ones, alpha = 1, where the unhinted walk iterates), a sparse one on which
phase 2 tries blue guesses before its witness, unbridged unions of
alternating cycles and parity graphs, whose holes the lattice certifies.
"""

import random
import re

import pytest

from exactmatching import (
    BLUE,
    RED,
    YES,
    ColoredGraph,
    random_bipartite_colored_graph,
    random_colored_graph,
    run_phase1,
    solve_em,
)

from ._support import cycle_union, parity_graph

RANGE = re.compile(r"k outside the red-count range \[(\d+), (\d+)\]")


def swapped(g: ColoredGraph) -> ColoredGraph:
    return ColoredGraph.from_edges(
        g.n, [(u, v, BLUE if c == RED else RED) for (u, v), c in g.colors.items()],
        g.bipartition)


def relabeled(g: ColoredGraph, seed: int) -> ColoredGraph:
    perm = list(range(g.n))
    random.Random(seed).shuffle(perm)
    sides = None if g.bipartition is None else [[perm[v] for v in side]
                                                for side in g.bipartition]
    return ColoredGraph.from_edges(
        g.n, [(perm[u], perm[v], c) for (u, v), c in g.colors.items()], sides)


def mirrored(reason: str | None, half: int) -> str | None:
    """The reason the swapped instance gives: a range [a, b] mirrored to
    [half - b, half - a], any other reason unchanged."""
    match = RANGE.fullmatch(reason or "")
    if match is None:
        return reason
    a, b = map(int, match.groups())
    return f"k outside the red-count range [{half - b}, {half - a}]"


def targets(g: ColoredGraph) -> list[int]:
    """Both ends of the red-count range, the values just outside it, and
    three inside it."""
    lo, hi = run_phase1(g, 0).red_range
    inside = {lo + (hi - lo) * i // 4 for i in (1, 2, 3)}
    return sorted({k for k in (lo - 1, lo, hi, hi + 1, *inside) if 0 <= k <= g.n // 2})


# name -> (generator, its arguments, the k to check or None for
# ``targets``).  A union's red counts are the subset sums of its
# half-lengths; between them it is checked only at holes, which the lattice
# certifies, since phase 2 reaches most in-range sums only after
# exponentially many guesses.
INSTANCES = {
    **{f"G({n}, {p}) seed {seed}": (random_colored_graph, (n, p, seed), None)
       for n, p, seed in ((40, 0.1, 3), (40, 0.5, 1), (60, 0.3, 1), (80, 0.8, 2),
                          (120, 0.5, 3))},
    **{f"K_{n} seed {seed}": (random_colored_graph, (n, 1.0, seed), None)
       for n, seed in ((64, 1), (100, 2))},
    **{f"bipartite G({n}, {p}) seed {seed}": (random_bipartite_colored_graph, (n, p, seed), None)
       for n, p, seed in ((40, 0.5, 1), (80, 0.4, 2), (120, 0.7, 3))},
    "union (5, 7, 9)": (cycle_union, ((5, 7, 9),), [0, 4, 10, 15, 21]),
    "union (3, 8, 13, 17)": (cycle_union, ((3, 8, 13, 17),), [0, 10, 19, 29, 40, 41]),
    "parity K_40 split 7": (parity_graph, (40, 7), None),
    "parity K_60 split 12": (parity_graph, (60, 12), None),
}


@pytest.fixture(scope="module")
def verdicts():
    """Per instance: (graph, k, verdict) for each k checked, shared by both
    relations."""
    found = {}
    for name, (make, args, ks) in INSTANCES.items():
        g = make(*args)
        found[name] = [(g, k, solve_em(g, k)) for k in ks or targets(g)]
    return found


def kind(verdict) -> str:
    if verdict.status == YES:
        return YES
    return verdict.reason.split(" [")[0]


def test_the_instances_reach_every_certificate(verdicts):
    cases = [(name, v) for name, found in verdicts.items() for _, _, v in found]
    assert {kind(v) for _, v in cases} == {
        YES, "k outside the red-count range", "k outside the red-count lattice"}
    # The complete graphs' walks iterate, under the alpha = 1 they measure.
    assert sum(v.iterations > 0 for name, v in cases if name.startswith("K_")) == 6


@pytest.mark.parametrize("name", INSTANCES)
def test_color_swap(verdicts, name):
    for g, k, v in verdicts[name]:
        half = g.n // 2
        w = solve_em(swapped(g), half - k)
        assert (w.status, w.reason) == (v.status, mirrored(v.reason, half)), (name, k)


@pytest.mark.parametrize("name", INSTANCES)
def test_relabeling(verdicts, name):
    for i, (g, k, v) in enumerate(verdicts[name]):
        w = solve_em(relabeled(g, i), k)
        assert (w.status, w.reason) == (v.status, v.reason), (name, k)
