"""Deciding whether a perfect matching with exactly k red edges exists.

Two phases.  Phase 1 walks a minimum-red and a maximum-red perfect matching
toward each other along positive-weight cycles of their symmetric
difference, using negative skips (or biskips, in the bipartite variant) to
shrink heavy cycles; on yes-instances it lands within an additive constant
of k that depends only on the independence bound.  Phase 2 guesses how the
red (then blue) edges of a solution differ from the phase-1 matching, by
increasing guess size, and completes each guess with the lexicographically
first perfect matching of the rest of the opposite-color graph.

Exhausting phase 2 up to radius n is a certificate that no solution exists;
with a smaller caller-imposed budget the result is merely unknown.  The paper
certifies at radius min(n, f) with f = 1000 * (256 * 4^(2 alpha))^6, or
1000 * (256 * 4^(4 beta + 4))^6 for the bipartite bound beta; f is at least
1000 * 4096^6, far above any n that fits in memory, so the radius is always
n.  Before any search, a k outside [r(min-red PM), r(max-red PM)], both
computed by phase 1, is a certified no: every perfect matching's red count
lies in that range.

Inside the range, a second certificate cuts phase 2 short: a k outside
``red_count_lattice`` (the red counts that a mod-d vertex potential allows
on each component, summed over the components) is a certified no.  Phase 2
asks for it at its first failed recovery and stops there if it excludes k.
It is built at most once per solve, and never for a search that succeeds at
its first guess.  One rule after the search names the verdict: the lattice
whenever it excludes k, else exhaustion when uncapped, else unknown.

The search stops after size min(r + k, n - r - k), where r is the red count
of the phase-1 matching: every solution is found by a guess no larger than
that, so the sizes past it are provably empty, and the early stop changes
no verdict and no witness.  Completion is the only test of a guess.
"""

from __future__ import annotations

import itertools
from bisect import bisect_left
from dataclasses import dataclass
from functools import cache, cached_property, partial
from math import gcd
from typing import Iterator

# perfect_matching_on is not called here, but perfbench/tracing.py wraps it
# under this module's name, so it stays importable from here.
from .engines import (  # noqa: F401
    max_red_pm,
    min_red_pm,
    perfect_matching_on,
    perfect_matching_on_adjacency,
)
from .graphs import (
    BLUE,
    RED,
    ColoredGraph,
    CycleSet,
    Edge,
    GraphError,
    PerfectMatching,
    apply_cycles,
    symmetric_difference,
    validate_matching,
)
from .oracle import bipartite_independence_number, independence_number
# orient is not called here, but perfbench/tracing.py wraps it under this
# module's name, so it stays importable from here.
from .skips import (  # noqa: F401
    NEGATIVE_WEIGHTS,
    apply_biskip,
    apply_skip,
    find_biskip,
    find_skip,
    orient,
)

YES = "yes"
NO_CERTIFIED = "no"
UNKNOWN = "unknown"


class ConfigurationError(ValueError):
    """Solver cannot run as configured (a bad knob, a missing shortcut, ...)."""


class SolverError(RuntimeError):
    """An internal invariant of the solver failed."""


class SkipSearchError(ConfigurationError):
    """A guaranteed shortcut was not found: a hint or ``t_override`` is too small."""


@dataclass(frozen=True)
class SolverParams:
    """Knobs for the solver, each checked when the params are built: a hint
    below 1 or a negative ``L_cap`` or ``t_override`` raises
    ``ConfigurationError``, whether or not a walk would read it.

    ``alpha_hint`` / ``beta_hint`` override measuring the independence bound
    with the oracle; ``walk_bound`` caps a hint, as it caps the measured
    bound, at the least bound whose threshold exceeds n // 2.
    ``L_cap`` limits the phase-2 guess size; None means uncapped, in which
    case exhaustion certifies a no-instance.  ``t_override`` replaces the
    phase-1 cycle-weight threshold (experimentation only).
    """

    alpha_hint: int | None = None
    beta_hint: int | None = None
    L_cap: int | None = None
    t_override: int | None = None

    def __post_init__(self) -> None:
        for name, value, least in (("L_cap", self.L_cap, 0),
                                   ("t_override", self.t_override, 0),
                                   ("alpha hint", self.alpha_hint, 1),
                                   ("beta hint", self.beta_hint, 1)):
            if value is not None and value < least:
                raise ConfigurationError(f"{name} must be >= {least}, got {value}")


@dataclass(frozen=True)
class Verdict:
    """Outcome of ``solve_em``.

    ``status`` is "yes" (witness attached), "no" (certified absence), or
    "unknown" (caller-imposed budget exhausted).  ``L_used`` is the guess
    size of the successful recovery for yes verdicts found in phase 2, the
    certified radius n for a "no" from exhausting phase 2 (the search may
    stop earlier, since the sizes past its stop are provably empty), the cap
    for an "unknown", and 0 otherwise.  That includes a "no" certified
    without exhausting phase 2: no perfect matching, k outside the red-count
    range, or k outside the red-count lattice.
    ``phase1_r`` is the red count of the phase-1 matching when one exists.
    """

    status: str
    witness: PerfectMatching | None = None
    reason: str | None = None
    L_used: int = 0
    phase1_r: int | None = None
    iterations: int = 0

    def to_json_dict(self) -> dict:
        doc: dict = {"verdict": self.status}
        if self.witness is not None:
            doc["witness"] = [list(e) for e in self.witness.sorted_edges()]
        doc["L_used"] = self.L_used
        doc["phase1_r"] = self.phase1_r
        doc["iterations"] = self.iterations
        if self.reason is not None:
            doc["reason"] = self.reason
        return doc


def _threshold(bipartite: bool, bound: int) -> int:
    """The walk's cycle-weight threshold: 2 * 4^alpha = 2^(2 alpha + 1), or
    2 * 4^(2 beta + 2) = 2^(4 beta + 5) in the bipartite variant."""
    return 1 << (4 * bound + 5 if bipartite else 2 * bound + 1)


def _bound_cap(bipartite: bool, n: int) -> int:
    """a*, the least bound whose threshold exceeds n // 2.  The walk's loop
    test r(low) <= k - threshold, with k <= n // 2, never passes under such
    a threshold, so every bound from a* up gives the same walk."""
    # 2^e > n // 2 exactly when e >= the bit length of n // 2.
    bits = (n // 2).bit_length()
    return max(1, (bits - 2) // 4 if bipartite else bits // 2)


def walk_bound(graph: ColoredGraph, params: SolverParams | None = None) -> tuple[int, int]:
    """(bound, threshold) of the phase-1 walk on ``graph``.  The bound is
    beta with a bipartition and alpha otherwise: max(1, min(B, a*)), where B
    is the hint, else the oracle's value, and a* is ``_bound_cap``.  Every
    bound from a* up gives the same walk, so the oracle's search stops at
    a*, which measures a graph of any size.  The threshold is
    ``t_override`` if set, else the guaranteed one."""
    params = params or SolverParams()
    bipartite = graph.bipartition is not None
    cap = _bound_cap(bipartite, graph.n)
    value = params.beta_hint if bipartite else params.alpha_hint
    if value is None:
        oracle = bipartite_independence_number if bipartite else independence_number
        value = oracle(graph, limit=cap)
    bound = max(1, min(value, cap))
    if params.t_override is not None:
        return bound, params.t_override
    return bound, _threshold(bipartite, bound)


@dataclass(frozen=True)
class Phase1Result:
    """The walk's final matching (None when the graph has no PM) and its
    bookkeeping.  ``low`` and ``high`` are the min-red and max-red perfect
    matchings the walk started from, None when there is no PM.
    ``walk_bound`` gives the walk's bound and threshold.
    """

    matching: PerfectMatching | None
    iterations: int
    low: PerfectMatching | None = None
    high: PerfectMatching | None = None

    @property
    def red_range(self) -> tuple[int, int] | None:
        """(r(min-red PM), r(max-red PM)), the range of every perfect
        matching's red count, or None when there is no PM."""
        if self.low is None or self.high is None:
            return None
        return self.low.red_count, self.high.red_count


def _check_k(graph: ColoredGraph, k: int) -> None:
    if graph.n % 2 != 0:
        raise ConfigurationError(f"vertex count {graph.n} is odd")
    if not 0 <= k <= graph.n // 2:
        raise ConfigurationError(f"k={k} outside [0, {graph.n // 2}]")


def _missing_cause(graph: ColoredGraph, params: SolverParams) -> str:
    """Why the walk found no shortcut: the setting that fixed the threshold.
    With ``t_override`` set the walk read no bound, so the bound is measured
    here, and the override is named when it lies below the guaranteed
    threshold."""
    if params.t_override is not None:
        guaranteed = _threshold(graph.bipartition is not None, walk_bound(graph, params)[0])
        if params.t_override < guaranteed:
            return (f"t_override (--t-override) {params.t_override} is below "
                    f"the guaranteed threshold {guaranteed}")
    if graph.bipartition is None:
        return "the independence bound hint alpha_hint (--alpha) is too small"
    return "the bipartite independence bound hint beta_hint (--beta) is too small"


def run_phase1(
    graph: ColoredGraph, k: int, params: SolverParams | None = None
) -> Phase1Result:
    """Approximation walk shared by ``approx_em``, ``solve_em`` and
    ``emsolve approx``.

    The walk is the bipartite one (biskips, bound beta) exactly when the
    graph carries a bipartition, and the general one (skips, bound alpha)
    otherwise.  It selects its step once, ``find_biskip``/``apply_biskip``
    or ``find_skip``/``apply_skip``, and calls either alike.
    On yes-instances the returned matching M satisfies
    ``k - threshold <= r(M) <= k`` where threshold is 2 * 4^alpha
    (2 * 4^(2*beta+2) in the bipartite variant); on no-instances the final
    matching carries no bound claim.  The loop runs at most n iterations.

    The engines run first, and the walk calls ``walk_bound`` only when its
    loop test passes under the smallest threshold any bound gives (8, or
    512 in the bipartite variant): r(high) > k and r(low) <= k - 8.  With
    ``t_override`` set it reads none, except to word a ``SkipSearchError``.
    Raises ``ConfigurationError`` for an odd n or k outside [0, n/2] (both
    before the engines run) or a missing shortcut (``SkipSearchError``: a
    hint or ``t_override`` is too small), and ``SolverError`` when an
    invariant of the walk fails.
    """
    _check_k(graph, k)
    params = params or SolverParams()
    bipartite = graph.bipartition is not None
    if bipartite:
        find, apply, name = find_biskip, apply_biskip, "biskip"
    else:
        find, apply, name = find_skip, apply_skip, "skip"

    low = min_red_pm(graph)
    if low is None:
        return Phase1Result(None, 0)
    high = max_red_pm(graph)
    assert high is not None
    start = (low, high)
    r_high = high.red_count

    threshold = params.t_override
    if threshold is None:
        # Every bound is at least 1.  A loop test that fails under the
        # threshold of 1 fails under every larger one, so the walk reads
        # the bound only when the test can pass.
        threshold = _threshold(bipartite, 1)
        if r_high > k and low.red_count <= k - threshold:
            _, threshold = walk_bound(graph, params)

    # Invariant: high = low ^ context (low flipped along the context's cycles)
    # and r_high = r(low) + context.total_weight, the context being weighted
    # against low.  A skip or biskip rewrites only the context; flipping a
    # cycle onto low drops it, and the other cycles keep their weights.  The
    # graph was validated when it was built, so a GraphError from a walk step
    # is a broken invariant.
    context = None
    iterations = 0
    try:
        while low.red_count <= k - threshold and r_high > k:
            iterations += 1
            if iterations > graph.n:
                raise SolverError("phase-1 walk exceeded its iteration bound")
            if context is None:
                context = symmetric_difference(graph, low, high)
            cycle = next((c for c in context if c.weight > 0), None)
            if cycle is None:
                raise SolverError("no positive cycle although red counts differ")
            if cycle.weight <= threshold:
                low = apply_cycles(low, CycleSet.from_cycles([cycle]))
                context = CycleSet.from_cycles(c for c in context if c is not cycle)
            else:
                shortcut = find(graph, low, cycle, NEGATIVE_WEIGHTS)
                if shortcut is None:
                    raise SkipSearchError(f"no negative {name} on a heavy cycle; "
                                          + _missing_cause(graph, params))
                context = apply(shortcut, context)
            r_high = low.red_count + context.total_weight
        if r_high <= k and context is not None:
            high = apply_cycles(low, context)
    except GraphError as exc:
        raise SolverError(f"phase-1 walk broke an invariant: {exc}") from exc
    final = high if r_high <= k else low
    return Phase1Result(final, iterations, *start)


def approx_em(
    graph: ColoredGraph, k: int, params: SolverParams | None = None
) -> PerfectMatching | None:
    """Phase 1 alone: the matching of ``run_phase1``, None when the graph
    has no PM.  The walk is bipartite exactly when the graph carries a
    bipartition; pass the graph without it to run the general walk."""
    return run_phase1(graph, k, params).matching


# -- the red-count lattice ----------------------------------------------------


def red_count_lattice(graph: ColoredGraph, low: PerfectMatching, high: PerfectMatching) -> int:
    """A bitmask whose bit r is set for every red count r of a perfect
    matching of ``graph``, and possibly for more.  ``low`` and ``high`` are a
    min-red and a max-red perfect matching.

    A perfect matching of the graph is one of each component C, so its red
    count is a sum of one count per component.  Suppose some d, a potential
    pi: C -> Z_d and a constant c satisfy red(uv) = pi(u) + pi(v) + c (mod d)
    on every edge uv of C.  Then every perfect matching M of C has
    r(M) = sum(pi) + (|C|/2) c (mod d), so C's counts lie in lo_C, lo_C + d,
    ..., hi_C, where lo_C and hi_C are the red counts of ``low`` and ``high``
    on C: a min-red perfect matching restricted to C is min-red on C.  This
    is the mod-d potential of the matching lattice (Lovasz, "Matching
    structure and the matching lattice", JCTB 1987).  The mask is the sumset
    of these progressions.

    One depth-first search per component finds the largest such d.  Shifting
    pi by t and c by -2t keeps a solution, so pi(root) = 0, and the tree
    edges then fix pi(v) = a_v - p_v c, where p_v is the depth parity of v.
    An edge uv with p_u != p_v asks d | a_u + a_v - red(uv); one with
    p_u == p_v fixes c = +-(red(uv) - a_u - a_v), and any two such values
    must agree mod d.  So the valid moduli are the divisors of the gcd of
    these numbers and hi_C - lo_C, and d is that gcd.
    """
    index = graph.neighbor_index
    root_of = [-1] * graph.n
    a = [0] * graph.n
    parity = [0] * graph.n
    moduli: dict[int, int] = {}
    for root in range(graph.n):
        if root_of[root] >= 0:
            continue
        root_of[root] = root
        d, fixed = 0, None          # fixed: the first value of c an edge fixes
        stack = [root]
        while stack:
            v = stack.pop()
            av, pv = a[v], parity[v]
            for w, red in index[v].items():
                if root_of[w] < 0:
                    root_of[w], a[w], parity[w] = root, red - av, 1 - pv
                    stack.append(w)
                elif parity[w] != pv:
                    d = gcd(d, av + a[w] - red)
                else:
                    c = red - av - a[w] if pv == 0 else av + a[w] - red
                    if fixed is None:
                        fixed = c
                    d = gcd(d, c - fixed)
        moduli[root] = d
    lo = dict.fromkeys(moduli, 0)
    hi = dict.fromkeys(moduli, 0)
    for matching, counts in ((low, lo), (high, hi)):
        for u, v in matching.edges:
            counts[root_of[u]] += index[u][v]
    mask = 1
    for root, d in moduli.items():
        sums = 0
        for r in range(lo[root], hi[root] + 1, gcd(d, hi[root] - lo[root]) or 1):
            sums |= mask << r
        mask = sums
    return mask


# -- phase 2: guess-and-complete -----------------------------------------------


@dataclass(frozen=True)
class _RecoveryContext:
    """Per-(matching, color) state shared by every guess and recovery attempt.

    Made in O(n): ``base`` is the matching's edges of ``color``.  Everything
    that costs O(m) is built on first use, each from the graph's sorted edge
    map ``colors``: ``color_edges`` by the first ``_split`` whose sizes fit,
    and ``layout`` by the first guess enumeration.  So a context that the
    search never enters pays for neither.  Nothing copies the opposite-color
    graph: completion reads ``neighbor_index``.
    """

    graph: ColoredGraph
    k: int
    target: int
    base: frozenset[Edge]
    color: str

    @cached_property
    def color_edges(self) -> tuple[Edge, ...]:
        """The color class, sorted: it fixes the guess order and answers
        where each vertex's block of edges ends."""
        color = self.color
        return tuple([e for e, c in self.graph.colors.items() if c == color])

    @cached_property
    def layout(self) -> tuple[tuple[bool, ...], tuple[int, ...], tuple[int, ...]]:
        """(is_base, base_of, base_left) over the color class.

        ``is_base[j]`` tells whether ``color_edges[j]`` is in the base,
        ``base_of[v]`` is the index of the base edge at vertex v (or -1), and
        ``base_left[j]`` counts the base edges at index >= j.  The first two
        are filled from the base edges alone.
        """
        color_edges = self.color_edges
        is_base = [False] * len(color_edges)
        base_of = [-1] * self.graph.n
        for e in self.base:
            j = bisect_left(color_edges, e)
            is_base[j] = True
            base_of[e[0]] = base_of[e[1]] = j
        base_left = tuple(itertools.accumulate(reversed(is_base), initial=0))[::-1]
        return tuple(is_base), tuple(base_of), base_left


def _make_context(
    graph: ColoredGraph, matching: PerfectMatching, k: int, color: str
) -> _RecoveryContext:
    base = frozenset(e for e in matching.edges if graph.colors[e] == color)
    target = k if color == RED else graph.n // 2 - k
    return _RecoveryContext(graph, k, target, base, color)


def _split(ctx: _RecoveryContext, size: int) -> tuple[int, int] | None:
    """(removals, additions) of a guess of ``size`` edges whose proposal
    has the target size, or None when no such guess exists.

    The bound on additions reads ``color_edges`` only after the other three
    bounds hold, so a context whose sizes never fit builds no color class.
    """
    n_base = len(ctx.base)
    gap = ctx.target - n_base
    if (size - gap) % 2 != 0:
        return None
    nb, nn = (size - gap) // 2, (size + gap) // 2
    if not (0 <= nb <= n_base and 0 <= nn <= len(ctx.color_edges) - n_base):
        return None
    return nb, nn


def _recover(ctx: _RecoveryContext, guess: tuple[Edge, ...]) -> PerfectMatching | None:
    """Complete one guess that ``_guesses(ctx, size)`` yielded, or None.

    Xor-ing the guess with the base proposes the solution's whole color
    class.  ``_guesses`` yields only guesses whose proposal has the target
    size and shares no vertex, so neither is checked again here.  The
    proposal's endpoints are removed, and the lexicographically first
    perfect matching of the rest of the opposite-color graph completes the
    solution, which then has red count k: completion reads the index's
    blue (0) entries in a red context and its red (1) ones in a blue one.
    None when completion finds no such matching.
    """
    proposal = ctx.base.symmetric_difference(guess)
    used = {w for e in proposal for w in e}
    free = [w for w in range(ctx.graph.n) if w not in used]
    completion = perfect_matching_on_adjacency(
        ctx.graph.neighbor_index, free, 0 if ctx.color == RED else 1)
    if completion is None:
        return None
    return PerfectMatching(proposal | frozenset(completion), ctx.k)


def _guesses(ctx: _RecoveryContext, size: int) -> Iterator[tuple[Edge, ...]]:
    """Every guess of ``size`` edges that recovery could accept, in lex order.

    A guess S proposes ``base xor S`` as the solution's color class, which
    must have the exact target size and share no vertex.  So the size fixes
    how many base edges a guess removes and how many other edges it adds,
    and this yields exactly the subsets of the sorted color class with that
    split whose proposal is vertex-disjoint.  Every guess left out proposes
    a class that no solution has, so this never changes which guess succeeds
    first.  ``_recover`` relies on it and checks neither property again.

    An explicit-stack search extends a partial guess by its next included
    edge, in index order, so the stack holds one frame per guess edge
    whatever the size of the color class.  An added edge prunes the partial
    guess when it
      (a) shares a vertex with another added edge,
      (b) touches an earlier base edge that was kept, or
      (c) touches a later base edge, which forces that edge's removal: the
          search never skips (keeps) a forced edge, and cuts as soon as the
          distinct forced edges outnumber the removals still allowed.
    The class is sorted, so the edges (u, .) form one block.  When (a)
    rejects an edge because u is used, it rejects the rest of u's block
    too, and the scan jumps past it, to the first edge of the class whose
    lower end is above u (a binary search from the next index).  u's base
    edge, if it has one in the class, is taken or forced, so the jump stops
    at the first forced edge; the loop's exit tests only weaken as the
    index grows, so the jump changes no outcome.
    ``ctx.layout`` is built by the first call that gets past ``_split``.
    """
    split = _split(ctx, size)
    if split is None:
        return
    if size == 0:
        yield ()
        return
    nb, nn = split                  # removals and additions still to choose
    edges = ctx.color_edges
    is_base, base_of, base_left = ctx.layout
    m = len(edges)
    chosen: list[int] = []
    undo: list = []                 # per chosen index: what to restore on pop
    taken = [False] * m
    used: set[int] = set()          # vertices of the added edges
    pending: set[int] = set()       # forced base edges not chosen yet
    j = 0
    while True:
        # Extend by the first admissible index >= j, never skipping a
        # forced base edge; with none, backtrack.
        stop = min(pending) if pending else m - 1
        while j <= stop and base_left[j] >= nb and m - j - base_left[j] >= nn:
            if is_base[j]:
                # A removal nothing forces must leave room for those (c).
                if nb and (j in pending or len(pending) < nb):
                    break
            elif nn:
                u, v = edges[j]
                if u in used:
                    # (a) rejects the rest of u's block; u's base edge is
                    # taken or pending, so the jump stops short of it.
                    end = bisect_left(edges, (u + 1,), j + 1)
                    j = end if end <= stop else (stop if stop > j else j + 1)
                    continue
                if v not in used:                                       # (a)
                    new = []
                    for b in (base_of[u], base_of[v]):
                        if b > j:
                            if b not in pending:
                                new.append(b)
                        elif b >= 0 and not taken[b]:                   # (b)
                            break
                    else:
                        if len(pending) + len(new) <= nb:               # (c)
                            break
            j += 1
        else:
            j = -1
        if j >= 0:
            chosen.append(j)
            taken[j] = True
            if is_base[j]:
                nb -= 1
                undo.append(j in pending)
                pending.discard(j)
            else:
                nn -= 1
                used.update(edges[j])
                undo.append(new)
                pending.update(new)
            if nb or nn:
                j += 1
                continue
            yield tuple(map(edges.__getitem__, chosen))
        if not chosen:
            return
        j = chosen.pop()
        info = undo.pop()
        taken[j] = False
        if is_base[j]:
            nb += 1
            if info:
                pending.add(j)
        else:
            nn += 1
            used.difference_update(edges[j])
            pending.difference_update(info)
        j += 1


def _candidates(
    contexts: tuple[_RecoveryContext, ...], limit: int
) -> Iterator[tuple[int, _RecoveryContext, tuple[Edge, ...]]]:
    """Every guess that recovery could accept, as (size, context, guess):
    by size up to ``limit``, then by context order, then lex.  ``solve_em``
    recovers them in this order, so its first success is the witness.

    The stream stops early, after size min(base + target) over the
    contexts.  If a solution S exists, each context's guess ``base xor
    S_color`` has at most base + target edges, and recovery accepts it: its
    proposal is S's color class, and S's other edges match the remainder.
    So the first success, if any, comes at a size no larger than any
    context's bound, and the sizes past the smallest bound are provably
    empty.  With the anchor's red count r this is min(r + k, n - r - k).

    The stream starts at the least size any context can fill, |target -
    base| = |k - r| in both: a smaller guess cannot both remove and add a
    non-negative number of edges, so ``_split`` rejects it in every context.
    """
    start = min(abs(ctx.target - len(ctx.base)) for ctx in contexts)
    stop = min(limit, min(len(ctx.base) + ctx.target for ctx in contexts))
    for size in range(start, stop + 1):
        for ctx in contexts:
            for guess in _guesses(ctx, size):
                yield size, ctx, guess


def _verified(graph: ColoredGraph, pm: PerfectMatching, k: int, phase: str) -> PerfectMatching:
    """``pm`` after checking that it is a perfect matching with exactly k red
    edges, counted from the graph rather than taken from ``pm.red_count``."""
    if (not validate_matching(graph, pm)
            or list(map(graph.colors.__getitem__, pm.edges)).count(RED) != k):
        raise SolverError(f"{phase} produced an invalid witness")
    return pm


def solve_em(graph: ColoredGraph, k: int, params: SolverParams | None = None) -> Verdict:
    """Decide whether some perfect matching has exactly k red edges.

    Yes verdicts carry a verified witness.  A no verdict is only emitted
    when it is certain: an odd n or a k outside [0, n/2], no perfect
    matching at all, a k outside the red-count range of phase 1's min- and
    max-red perfect matchings, a k outside ``red_count_lattice``, or a
    phase-2 search that covers radius n, which it does once it passes its
    early stop.  The range and the lattice certify whatever the cap.
    Otherwise a caller-imposed ``L_cap`` below n turns exhaustion into an
    unknown verdict, even when the search stopped early under the cap.

    Phase 1 runs the engines before it reads the independence bound, and
    reads it (``walk_bound``) only when its walk can iterate.
    ``ConfigurationError`` is raised for a missing shortcut
    (``SkipSearchError``: a hint or ``t_override`` is too small).

    Phase 2 recovers the guesses of ``_candidates`` in order and returns
    the first success.  At its first failed recovery it asks the lattice,
    and stops if the lattice excludes k: any successful recovery has k red
    edges, so no later guess can succeed.  One rule then names the verdict:
    the lattice whenever it excludes k, else exhaustion at radius n when
    uncapped, else unknown.
    """
    params = params or SolverParams()
    n = graph.n
    if n % 2 != 0:
        return Verdict(NO_CERTIFIED, reason="odd vertex count")
    if not 0 <= k <= n // 2:
        return Verdict(NO_CERTIFIED, reason=f"k={k} outside [0, {n // 2}]")

    phase1 = run_phase1(graph, k, params)
    if phase1.matching is None:
        return Verdict(NO_CERTIFIED, reason="graph has no perfect matching")
    m = phase1.matching
    verdict = partial(Verdict, phase1_r=m.red_count, iterations=phase1.iterations)
    if m.red_count == k:
        return verdict(YES, witness=_verified(graph, m, k, "phase 1"))
    lo, hi = phase1.red_range
    if not lo <= k <= hi:
        return verdict(NO_CERTIFIED, reason=f"k outside the red-count range [{lo}, {hi}]")

    limit = n if params.L_cap is None else min(params.L_cap, n)

    @cache
    def excludes_k() -> bool:
        return not red_count_lattice(graph, phase1.low, phase1.high) >> k & 1

    contexts = (_make_context(graph, m, k, RED), _make_context(graph, m, k, BLUE))
    for size, ctx, guess in _candidates(contexts, limit):
        pm = _recover(ctx, guess)
        if pm is not None:
            return verdict(YES, witness=_verified(graph, pm, k, "phase 2"), L_used=size)
        if excludes_k():
            break
    if excludes_k():
        return verdict(NO_CERTIFIED, reason="k outside the red-count lattice")
    if limit == n:
        return verdict(NO_CERTIFIED, reason="exhausted the certified search radius", L_used=n)
    return verdict(UNKNOWN, reason=f"search exhausted at guess-size budget {limit}", L_used=limit)
