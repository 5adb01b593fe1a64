"""The benchmark's workloads: a fixed, versioned pool of operations each.

A core instance is built from a recipe (a generator call with a fixed seed)
once per set-up.  Each core contributes ``draws`` operations to the pool;
every draw is an isomorphic copy of the core under a vertex relabeling fixed
by the core and draw number, made outside every timer.  The pool is the same
on every run, so its digest can be recorded; the run's ``--seed`` sets the
order in which each pass over the pool runs.  The pool is fixed rather than
drawn from the seed because operation times are heavy-tailed: with seeded
relabelings, which rare slow draws a run got moved p90 by half between
seeds on ``walk_large`` and ``decided_per_s`` by a third on ``planted_yes``.

Each workload was chosen to stress one layer and to leave others flat (the
shares are of operation time, from a traced run):

* ``planted_yes``: ``solve_em`` on planted instances, n 20-80; the two
  blossom calls per solve dominate (engines 48-60%, skip search 34-47%).
* ``certified_no``: ``solve_em`` on no-instances confirmed by the
  brute-force oracle; phase-2 enumeration dominates (76-80%, completion
  matching 20-22%).  One n=14 parity instance is past today's reach and fails
  over budget on every pass.
* ``walk_large``: ``approx_em`` on alpha=1 planted instances, n 100 and 128;
  the only workload where the phase-1 walk iterates (about 10 times per
  operation), so the skip search takes 47%, beside engines 51%.  (n=160
  triples the set-up time and is left out.)
* ``scale_yes``: ``solve_em`` at n 100 and 120 from all five families.  Two
  crash reproducers run unrelabeled (they raise ``RecursionError`` today)
  and make up 1% of the pool, which keeps p90 a yes-path time; the
  relabeled draws come from alpha=3 and beta cores.  Relabeled alpha=1 and
  alpha=2 instances at n >= 100 crash on about 20% and 60% of relabelings,
  so those families enter through the reproducers only.  Engines take 89%.
  The reproducers alpha=1 n=160 seed 3 and beta=1 n=200 seed 3 are left
  out: generating them takes 4 s of a 7 s set-up at reference speed, and
  a run sets up three times.
"""

from __future__ import annotations

import itertools
import random
from dataclasses import dataclass, field

from exactmatching import BLUE, RED, ColoredGraph, SolverParams, edge_key
from exactmatching.generators import BaseFamily, gen_planted_yes, random_colored_graph

SOLVE = "solve"
APPROX = "approx"
YES = "yes"
NO = "no"


@dataclass(frozen=True)
class Core:
    """One core instance and how the workload draws operations from it.

    ``recipe`` names the generator call: ``("planted", kind, bound, n, seed)``,
    ``("parity", n, split)`` or ``("random", n, edge_prob, seed)``.
    ``truth`` is "yes" for planted instances and "no" for instances the
    oracle confirms absent at set-up.  ``draws`` is the number of operations
    in the pool; ``relabel`` False runs the instance exactly as generated.
    """

    recipe: tuple
    k: int
    op: str = SOLVE
    hints: dict = field(default_factory=dict)
    truth: str = YES
    draws: int = 1
    relabel: bool = True

    @property
    def label(self) -> str:
        return "-".join(str(x) for x in self.recipe) + f"-k{self.k}"

    def params(self) -> SolverParams:
        return SolverParams(**self.hints)


@dataclass(frozen=True)
class Workload:
    """``budget_s`` is the per-operation time budget."""

    name: str
    budget_s: float
    cores: tuple[Core, ...]


def parity_graph(n: int, split: int) -> ColoredGraph:
    """K_n whose red edges are exactly those crossing {0 .. split-1}.

    Every perfect matching has a red count of the same parity as ``split``,
    so an odd k with an even split is a certified no.
    """
    return ColoredGraph(n, {
        (u, v): RED if (u < split) != (v < split) else BLUE
        for u, v in itertools.combinations(range(n), 2)
    })


def build(recipe: tuple) -> ColoredGraph:
    kind, *args = recipe
    if kind == "planted":
        family, bound, n, seed = args
        return gen_planted_yes(n, n // 4, BaseFamily(family, bound), seed)
    if kind == "parity":
        return parity_graph(*args)
    if kind == "random":
        return random_colored_graph(*args)
    raise ValueError(f"unknown recipe {recipe!r}")


def relabel(graph: ColoredGraph, seed: str) -> ColoredGraph:
    """An isomorphic copy of ``graph`` under a vertex permutation fixed by ``seed``."""
    perm = list(range(graph.n))
    random.Random(seed).shuffle(perm)
    colors = {edge_key(perm[u], perm[v]): c for (u, v), c in graph.colors.items()}
    sides = None
    if graph.bipartition is not None:
        sides = tuple(frozenset(perm[v] for v in side) for side in graph.bipartition)
    return ColoredGraph(graph.n, colors, sides)


def _hint(family: str, bound: int) -> dict:
    return {"alpha_hint": bound} if family == "alpha" else {"beta_hint": bound}


def _planted_yes() -> Workload:
    # Hints only above n=40: smaller graphs have their bound measured by the
    # oracle inside the solve, as the README documents.
    cores = tuple(
        Core(("planted", family, bound, n, 1000 + n), n // 4,
             hints=_hint(family, bound) if n > 40 else {}, draws=6)
        for n in (20, 40, 60, 80)
        for family, bound in (("alpha", 1), ("alpha", 2), ("alpha", 3),
                              ("beta", 1), ("beta", 2)))
    return Workload("planted_yes", 5.0, cores)


_RANDOM_NO = ((0, 4), (0, 5), (0, 6), (1, 6), (5, 0), (6, 6), (8, 0), (12, 6), (13, 6),
              (15, 0), (16, 0), (17, 6), (19, 0), (22, 0), (22, 6), (24, 0), (24, 1),
              (26, 6), (27, 6), (29, 0), (30, 6), (31, 0), (35, 0), (36, 0), (36, 1),
              (37, 0), (38, 0), (39, 0))


def _certified_no() -> Workload:
    # Parity variants whose solve takes about 1 s or more (n=12 with split 2
    # and k=1, split 4 with k 1 or 5, split 8 with k=5) are left out, so the
    # 2 s budget sits 20x above every included operation; the n=14 instance
    # (about 145 s) stands for the slow end and fails over budget.
    parity = [(10, s, k) for s in (2, 4, 6) for k in (1, 3, 5)]
    parity += [(12, 2, 3), (12, 2, 5), (12, 4, 3), (12, 6, 1), (12, 6, 3),
               (12, 6, 5), (12, 8, 3), (12, 10, 3)]
    cores = [Core(("parity", n, s), k, hints={"alpha_hint": 1}, truth=NO, draws=4)
             for n, s, k in parity]
    # Unhinted G(12, 0.6) graphs: every seed below 40 and k the oracle
    # proves absent.
    cores += [Core(("random", 12, 0.6, seed), k, truth=NO, draws=4)
              for seed, k in _RANDOM_NO]
    cores.append(Core(("parity", 14, 4), 1, hints={"alpha_hint": 1}, truth=NO))
    return Workload("certified_no", 2.0, tuple(cores))


def _walk_large() -> Workload:
    cores = tuple(
        Core(("planted", "alpha", 1, n, 1), k, op=APPROX, hints={"alpha_hint": 1}, draws=40)
        for n in (100, 128)
        for k in (n // 4, n // 3))
    return Workload("walk_large", 15.0, cores)


def _scale_yes() -> Workload:
    reproducers = tuple(
        Core(("planted", family, bound, n, seed), n // 4,
             hints=_hint(family, bound), relabel=False)
        for family, bound, n, seed in (("alpha", 1, 120, 5), ("alpha", 2, 120, 3)))
    draws = tuple(
        Core(("planted", family, bound, n, 1), n // 4, hints=_hint(family, bound),
             draws=64)
        for family, bound, n in (("alpha", 3, 100), ("beta", 1, 120), ("beta", 2, 120)))
    return Workload("scale_yes", 5.0, reproducers + draws)


WORKLOADS = {w.name: w for w in
             (_planted_yes(), _certified_no(), _walk_large(), _scale_yes())}
