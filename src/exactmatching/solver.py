"""Deciding whether a perfect matching with exactly k red edges exists.

Two phases.  Phase 1 walks a minimum-red and a maximum-red perfect matching
toward each other along positive-weight cycles of their symmetric
difference, using negative skips (or biskips, in the bipartite variant) to
shrink heavy cycles; on yes-instances it lands within an additive constant
of k that depends only on the independence bound.  Phase 2 closes the gap
by guessing how the red (then blue) edge set of the unknown solution
differs from the phase-1 matching, in increasing guess size, and completing
each guess with a perfect matching on the remaining single-color graph.

Exhausting phase 2 up to radius min(n, f_bound) is a certificate that no
solution exists; with a smaller caller-imposed budget the result is merely
unknown.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Iterable, Iterator

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
    edge_key,
    symmetric_difference,
    validate_matching,
)
from .oracle import OracleLimitError, bipartite_independence_number, independence_number
from .skips import (
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
    """Solver cannot run as configured (bad budget, unmeasurable bound, ...)."""


class SolverError(RuntimeError):
    """An internal invariant of the solver failed."""


class SkipSearchError(SolverError):
    """A guaranteed shortcut was not found; the independence bound hint is too small."""


def t_alpha(alpha: int) -> int:
    """Reporting constant for the general algorithm; grows as 256 * 4^(2a)."""
    if alpha < 1:
        raise ConfigurationError(f"bound must be >= 1, got {alpha}")
    return 256 * 4 ** (2 * alpha)


def f_alpha(alpha: int) -> int:
    """Certified search radius for independence number at most alpha."""
    return 1000 * t_alpha(alpha) ** 6


def t_beta(beta: int) -> int:
    """Reporting constant for the bipartite algorithm; grows as 256 * 4^(4b+4)."""
    if beta < 1:
        raise ConfigurationError(f"bound must be >= 1, got {beta}")
    return 256 * 4 ** (4 * beta + 4)


def f_beta(beta: int) -> int:
    """Certified search radius for bipartite independence number at most beta."""
    return 1000 * t_beta(beta) ** 6


@dataclass(frozen=True)
class SolverParams:
    """Knobs for the solver.

    ``alpha_hint`` / ``beta_hint`` override measuring the independence bound
    with the brute-force oracle (mandatory for graphs above the oracle cap).
    ``L_cap`` limits the phase-2 guess size; None means uncapped, in which
    case exhaustion certifies a no-instance.  ``t_override`` replaces the
    phase-1 cycle-weight threshold (experimentation only).
    """

    alpha_hint: int | None = None
    beta_hint: int | None = None
    L_cap: int | None = None
    t_override: int | None = None


@dataclass(frozen=True)
class Verdict:
    """Outcome of ``solve_em``.

    ``status`` is "yes" (witness attached), "no" (certified absence), or
    "unknown" (caller-imposed budget exhausted).  ``L_used`` is the guess
    size of the successful recovery for yes verdicts found in phase 2, else
    the executed phase-2 budget.  ``phase1_r`` is the red count of the
    phase-1 matching when one exists.
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


@dataclass(frozen=True)
class Phase1Result:
    matching: PerfectMatching | None
    iterations: int
    threshold: int
    bound: int
    bipartite: bool


def _resolve_alpha(graph: ColoredGraph, params: SolverParams) -> int:
    if params.alpha_hint is not None:
        if params.alpha_hint < 1:
            raise ConfigurationError(f"alpha hint must be >= 1, got {params.alpha_hint}")
        return params.alpha_hint
    try:
        return max(1, independence_number(graph))
    except OracleLimitError as exc:
        raise ConfigurationError(
            f"cannot measure the independence bound ({exc}); pass an explicit hint"
        ) from None


def _resolve_beta(graph: ColoredGraph, params: SolverParams) -> int:
    if params.beta_hint is not None:
        if params.beta_hint < 1:
            raise ConfigurationError(f"beta hint must be >= 1, got {params.beta_hint}")
        return params.beta_hint
    try:
        return max(1, bipartite_independence_number(graph))
    except OracleLimitError as exc:
        raise ConfigurationError(
            f"cannot measure the bipartite independence bound ({exc}); pass an explicit hint"
        ) from None


def run_phase1(
    graph: ColoredGraph,
    k: int,
    params: SolverParams | None = None,
    bipartite: bool | None = None,
) -> Phase1Result:
    """Approximation walk shared by ``approx_em`` and ``solve_em``.

    On yes-instances the returned matching M satisfies
    ``k - threshold <= r(M) <= k`` where threshold is 2 * 4^alpha
    (2 * 4^(2*beta+2) in the bipartite variant); on no-instances the final
    matching carries no bound claim.  The loop runs at most n iterations.
    """
    params = params or SolverParams()
    if bipartite is None:
        bipartite = graph.bipartition is not None
    if bipartite:
        bound = _resolve_beta(graph, params)
        threshold = 2 * 4 ** (2 * bound + 2)
    else:
        bound = _resolve_alpha(graph, params)
        threshold = 2 * 4 ** bound
    if params.t_override is not None:
        threshold = params.t_override

    low = min_red_pm(graph)
    if low is None:
        return Phase1Result(None, 0, threshold, bound, bipartite)
    high = max_red_pm(graph)
    assert high is not None
    view = orient(graph, low) if bipartite else None

    # ``context`` is always symmetric_difference(graph, low, high), weighted
    # against low.  It is computed once and then carried forward: a skip or
    # biskip returns the updated context, and flipping one cycle onto low
    # just drops that cycle, since the others are vertex-disjoint from it and
    # keep their weights.
    context = None
    iterations = 0
    while low.red_count <= k - threshold and high.red_count > k:
        iterations += 1
        if iterations > graph.n:
            raise SolverError("phase-1 walk exceeded its iteration bound")
        if context is None:
            context = symmetric_difference(graph, low, high)
        elif not (validate_matching(graph, low) and validate_matching(graph, high)):
            raise SolverError("phase-1 walk produced an invalid matching")
        cycle = next((c for c in context if c.weight > 0), None)
        if cycle is None:
            raise SolverError("no positive cycle although red counts differ")
        if cycle.weight <= threshold:
            low = apply_cycles(low, CycleSet.from_cycles([cycle]))
            context = CycleSet.from_cycles(c for c in context if c is not cycle)
            if bipartite:
                view = orient(graph, low)
        elif bipartite:
            shortcut = find_biskip(view, low, cycle, NEGATIVE_WEIGHTS)
            if shortcut is None:
                raise SkipSearchError(
                    "no negative biskip on a heavy cycle; "
                    "the bipartite independence bound hint is too small")
            high, context = apply_biskip(high, shortcut, context)
        else:
            shortcut = find_skip(graph, low, cycle, NEGATIVE_WEIGHTS)
            if shortcut is None:
                raise SkipSearchError(
                    "no negative skip on a heavy cycle; "
                    "the independence bound hint is too small")
            high, context = apply_skip(high, shortcut, context)

    final = high if high.red_count <= k else low
    return Phase1Result(final, iterations, threshold, bound, bipartite)


def _check_k(graph: ColoredGraph, k: int) -> None:
    if graph.n % 2 != 0:
        raise ConfigurationError(f"vertex count {graph.n} is odd")
    if not 0 <= k <= graph.n // 2:
        raise ConfigurationError(f"k={k} outside [0, {graph.n // 2}]")


def approx_em(
    graph: ColoredGraph, k: int, params: SolverParams | None = None
) -> PerfectMatching | None:
    """Phase 1 alone, general variant.  None when the graph has no PM."""
    _check_k(graph, k)
    return run_phase1(graph, k, params, bipartite=False).matching


def approx_em_bipartite(
    graph: ColoredGraph, k: int, params: SolverParams | None = None
) -> PerfectMatching | None:
    """Phase 1 alone, bipartite variant (requires a bipartition)."""
    _check_k(graph, k)
    if graph.bipartition is None:
        raise GraphError("bipartite variant needs a bipartition")
    return run_phase1(graph, k, params, bipartite=True).matching


# -- phase 2: guess-and-complete -----------------------------------------------


def recover_from_color_guess(
    graph: ColoredGraph,
    matching: PerfectMatching,
    guess: Iterable[tuple[int, int]],
    color: str,
    k: int,
) -> PerfectMatching | None:
    """Try one guess of how a solution's ``color`` class differs from ``matching``.

    The guess is a set of ``color``-colored edges; xor-ing it with the
    matching's own ``color`` class proposes the solution's full ``color``
    class.  For red, the proposal must have exactly k edges; for blue,
    exactly n/2 - k.  The proposal's endpoints are removed and the rest of
    the graph, restricted to the opposite color, must carry a perfect
    matching.  Returns the assembled solution (always with red count k) or
    None when this guess cannot be completed.
    """
    if color not in (RED, BLUE):
        raise GraphError(f"unknown color {color!r}")
    guess_set = set()
    for u, v in guess:
        e = edge_key(u, v)
        if graph.color(e) != color:
            raise GraphError(f"guess contains edge {e} of the wrong color")
        guess_set.add(e)
    return _recover(_make_context(graph, matching, k, color), tuple(guess_set))


@dataclass(frozen=True)
class _RecoveryContext:
    """Per-(matching, color) state shared by every recovery attempt.

    Precomputing the color class, the matching's share of it, and the
    opposite-color adjacency keeps the per-guess cost independent of the
    graph size.
    """

    graph: ColoredGraph
    color: str
    k: int
    target: int
    base: frozenset[Edge]
    color_edges: tuple[Edge, ...]
    other_adjacency: dict[int, tuple[int, ...]]


def _make_context(
    graph: ColoredGraph, matching: PerfectMatching, k: int, color: str
) -> _RecoveryContext:
    other = BLUE if color == RED else RED
    color_edges = []
    neighbors: dict[int, list[int]] = {v: [] for v in range(graph.n)}
    for (u, v), c in graph.colors.items():
        if c == color:
            color_edges.append((u, v))
        else:
            neighbors[u].append(v)
            neighbors[v].append(u)
    base = frozenset(e for e in matching.edges if graph.colors[e] == color)
    target = k if color == RED else graph.n // 2 - k
    adjacency = {v: tuple(sorted(ws)) for v, ws in neighbors.items()}
    return _RecoveryContext(graph, color, k, target, base,
                            tuple(color_edges), adjacency)


def _recover(ctx: _RecoveryContext, guess: tuple[Edge, ...]) -> PerfectMatching | None:
    """``recover_from_color_guess`` minus input validation, on shared state."""
    proposal = ctx.base.symmetric_difference(guess)
    if len(proposal) != ctx.target:
        return None
    used: set[int] = set()
    for u, v in proposal:
        if u in used or v in used:
            return None
        used.update((u, v))
    free = [w for w in range(ctx.graph.n) if w not in used]
    completion = perfect_matching_on_adjacency(ctx.other_adjacency, free)
    if completion is None:
        return None
    return PerfectMatching(frozenset(proposal) | frozenset(completion), ctx.k)


def _guess_stream(
    ctx: _RecoveryContext, limit: int
) -> Iterator[tuple[int, tuple[Edge, ...]]]:
    """Every guess recovery could accept, as (size, edges), by size then lex.

    A guess S proposes ``base xor S`` as the solution's color class, which
    must have the exact target size and share no vertex.  So the size fixes
    how many base edges a guess removes and how many other edges it adds,
    and this yields exactly the subsets of the sorted color class with that
    split whose proposal is vertex-disjoint.  Only guesses that recovery
    rejects are left out, so this never changes which guess succeeds first.

    One explicit-stack search per size extends a partial guess by its next
    included edge, in index order, so the stack holds one frame per guess
    edge whatever the size of the color class.  An added edge prunes the
    partial guess when it
      (a) shares a vertex with another added edge,
      (b) touches an earlier base edge that was kept, or
      (c) touches a later base edge, which forces that edge's removal: the
          search never skips (keeps) a forced edge, and cuts as soon as the
          distinct forced edges outnumber the removals still allowed.
    """
    edges = ctx.color_edges
    m = len(edges)
    if ctx.target < 0 or ctx.target > m or limit < 0:
        return
    is_base = [e in ctx.base for e in edges]
    base_of = [-1] * ctx.graph.n    # vertex -> index of its base edge, or -1
    for j, (u, v) in enumerate(edges):
        if is_base[j]:
            base_of[u] = base_of[v] = j
    # base_left[j]: base edges at index >= j
    base_left = list(itertools.accumulate(reversed(is_base), initial=0))[::-1]
    n_base = base_left[0]
    gap = ctx.target - n_base
    for size in range(limit + 1):
        if (size - gap) % 2 != 0:
            continue
        nb = (size - gap) // 2      # removals still to choose
        nn = (size + gap) // 2      # additions still to choose
        if not (0 <= nb <= n_base and 0 <= nn <= m - n_base):
            continue
        if size == 0:
            yield 0, ()
            continue
        chosen: list[int] = []
        undo: list = []             # per chosen index: what to restore on pop
        taken = [False] * m
        used: set[int] = set()      # vertices of the added edges
        pending: set[int] = set()   # forced base edges not chosen yet
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
                    if u not in used and v not in used:                 # (a)
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
                yield size, tuple(map(edges.__getitem__, chosen))
            if not chosen:
                break
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


def _first_success(
    items: Iterator[tuple[_RecoveryContext, int, tuple[Edge, ...]]],
) -> tuple[int, PerfectMatching] | None:
    """Evaluate (context, size, guess) items in order; first hit wins."""
    for ctx, size, guess in items:
        pm = _recover(ctx, guess)
        if pm is not None:
            return size, pm
    return None


def small_diff_search(
    graph: ColoredGraph,
    matching: PerfectMatching,
    k: int,
    limit: int,
    color: str,
) -> PerfectMatching | None:
    """First successful recovery over guesses of size at most ``limit``.

    Guesses are subsets of the graph's ``color`` class, tried in increasing
    size and lexicographically within a size.  If some solution's ``color``
    class differs from the matching's by at most ``limit`` edges, this
    finds a solution.
    """
    if limit < 0:
        raise ConfigurationError(f"subset budget must be >= 0, got {limit}")
    ctx = _make_context(graph, matching, k, color)
    items = ((ctx, size, guess) for size, guess in _guess_stream(ctx, limit))
    hit = _first_success(items)
    return hit[1] if hit is not None else None


def _interleave(
    red_ctx: _RecoveryContext,
    red: Iterator[tuple[int, tuple[Edge, ...]]],
    blue_ctx: _RecoveryContext,
    blue: Iterator[tuple[int, tuple[Edge, ...]]],
) -> Iterator[tuple[_RecoveryContext, int, tuple[Edge, ...]]]:
    """Merge two size-ascending guess streams, red before blue per size."""
    r = next(red, None)
    b = next(blue, None)
    while r is not None or b is not None:
        if b is None or (r is not None and r[0] <= b[0]):
            yield (red_ctx, r[0], r[1])
            r = next(red, None)
        else:
            yield (blue_ctx, b[0], b[1])
            b = next(blue, None)


def solve_em(graph: ColoredGraph, k: int, params: SolverParams | None = None) -> Verdict:
    """Decide whether some perfect matching has exactly k red edges.

    Yes verdicts carry a verified witness.  A no verdict is only emitted
    when it is certain: trivial parity/range violations, no perfect
    matching at all, or a fully exhausted phase-2 search of radius
    min(n, f_bound).  A caller-imposed ``L_cap`` below that radius turns
    exhaustion into an unknown verdict instead.
    """
    params = params or SolverParams()
    if params.L_cap is not None and params.L_cap < 0:
        raise ConfigurationError(f"L_cap must be >= 0, got {params.L_cap}")
    n = graph.n
    if n % 2 != 0:
        return Verdict(NO_CERTIFIED, reason="odd vertex count")
    if not 0 <= k <= n // 2:
        return Verdict(NO_CERTIFIED, reason=f"k={k} outside [0, {n // 2}]")

    bipartite = graph.bipartition is not None
    phase1 = run_phase1(graph, k, params, bipartite)
    if phase1.matching is None:
        return Verdict(NO_CERTIFIED, reason="graph has no perfect matching")
    m = phase1.matching
    if m.red_count == k:
        if not validate_matching(graph, m):
            raise SolverError("phase-1 produced an invalid matching")
        return Verdict(YES, witness=m, L_used=0,
                       phase1_r=m.red_count, iterations=phase1.iterations)

    f_bound = f_beta(phase1.bound) if bipartite else f_alpha(phase1.bound)
    certified_radius = min(n, f_bound)
    limit = certified_radius if params.L_cap is None else min(params.L_cap, certified_radius)

    red_ctx = _make_context(graph, m, k, RED)
    blue_ctx = _make_context(graph, m, k, BLUE)
    items = _interleave(red_ctx, _guess_stream(red_ctx, limit),
                        blue_ctx, _guess_stream(blue_ctx, limit))
    hit = _first_success(items)
    if hit is not None:
        size, pm = hit
        if not validate_matching(graph, pm) or pm.red_count != k:
            raise SolverError("phase-2 produced an invalid witness")
        return Verdict(YES, witness=pm, L_used=size,
                       phase1_r=m.red_count, iterations=phase1.iterations)
    if limit >= certified_radius:
        return Verdict(NO_CERTIFIED, reason="exhausted the certified search radius",
                       L_used=limit, phase1_r=m.red_count, iterations=phase1.iterations)
    return Verdict(UNKNOWN, reason=f"search exhausted at guess-size budget {limit}",
                   L_used=limit, phase1_r=m.red_count, iterations=phase1.iterations)
