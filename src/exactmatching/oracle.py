"""Brute-force ground truth: matching enumeration and independence numbers.

Everything here is exponential-time by design and guarded by configurable
size caps, or by a ``limit`` on an independence measure.  The enumeration
recursion always matches the lowest uncovered vertex first and scans its
neighbors in ascending order, so matchings come out in lexicographic order
of their sorted edge lists.  Counting and the achievable red counts share
one memoized recursion over vertex subsets, so one pass yields both.  Every
search is a module-level function that takes its state as arguments, so no
call leaves a reference cycle behind.
"""

from __future__ import annotations

from typing import Iterator

from .graphs import ColoredGraph, GraphError, PerfectMatching

ENUMERATION_CAP = 16
COUNTING_CAP = 20
INDEPENDENCE_CAP = 40
# Vertices in the output of a densifying lift (``reductions``), which adds a
# hub edge per vertex: without it an edgeless graph of huge n would grow
# until memory runs out.
LIFT_CAP = 1_000_000


class OracleLimitError(RuntimeError):
    """Instance too large for a size-capped call: a brute-force oracle or a
    densifying lift."""


def _check_cap(graph: ColoredGraph, max_n: int, what: str) -> None:
    if graph.n > max_n:
        raise OracleLimitError(
            f"instance too large for oracle {what}: n={graph.n} exceeds cap {max_n}")


def _neighbor_masks(graph: ColoredGraph, red_only: bool = False) -> list[int]:
    """Bit w of ``masks[v]`` is set when w is a neighbor of v (a red one,
    with ``red_only``)."""
    return [sum((red if red_only else 1) << w for w, red in nbrs.items())
            for nbrs in graph.neighbor_index]


def _extend(
    index: list[dict[int, int]], uncovered: set[int], chosen: list[tuple[int, int]]
) -> Iterator[PerfectMatching]:
    """Every way to finish ``chosen`` on ``uncovered``, lowest vertex first."""
    if not uncovered:
        yield PerfectMatching(frozenset(chosen), sum(index[u][v] for u, v in chosen))
        return
    u = min(uncovered)
    uncovered.discard(u)
    for v in index[u]:
        if v not in uncovered:
            continue
        uncovered.discard(v)
        chosen.append((u, v))
        yield from _extend(index, uncovered, chosen)
        chosen.pop()
        uncovered.add(v)
    uncovered.add(u)


def enumerate_perfect_matchings(
    graph: ColoredGraph, max_n: int = ENUMERATION_CAP
) -> Iterator[PerfectMatching]:
    """Yield every perfect matching, lexicographically by sorted edge list."""
    _check_cap(graph, max_n, "enumeration")
    if graph.n % 2 != 0:
        return
    yield from _extend(graph.neighbor_index, set(range(graph.n)), [])


def _matchings(
    mask: int, nbr: list[int], red: list[int], memo: dict[int, tuple[int, int]]
) -> tuple[int, int]:
    """Number of perfect matchings of the vertices in ``mask``, and an int
    whose bit j is set when one of them has j red edges."""
    cached = memo.get(mask)
    if cached is not None:
        return cached
    u = (mask & -mask).bit_length() - 1
    rest = mask & ~(1 << u)
    total = counts = 0
    cand = rest & nbr[u]
    while cand:
        vbit = cand & -cand
        sub_total, sub_counts = _matchings(rest & ~vbit, nbr, red, memo)
        total += sub_total
        counts |= sub_counts << 1 if red[u] & vbit else sub_counts
        cand ^= vbit
    memo[mask] = total, counts
    return total, counts


def _all_matchings(graph: ColoredGraph, max_n: int, what: str) -> tuple[int, int]:
    """``_matchings`` over every vertex; (0, 0) for an odd vertex count."""
    _check_cap(graph, max_n, what)
    if graph.n % 2 != 0:
        return 0, 0
    return _matchings((1 << graph.n) - 1, _neighbor_masks(graph),
                      _neighbor_masks(graph, red_only=True), {0: (1, 1)})


def count_perfect_matchings(graph: ColoredGraph, max_n: int = COUNTING_CAP) -> int:
    """Number of perfect matchings, via bitmask dynamic programming.

    Independent of the enumeration code path: counts over subsets without
    materializing any matching.  The pass that counts also collects the red
    counts that ``perfect_matching_red_counts`` returns.
    """
    return _all_matchings(graph, max_n, "counting")[0]


def perfect_matching_red_counts(graph: ColoredGraph, max_n: int = COUNTING_CAP) -> frozenset[int]:
    """Every k for which some perfect matching has exactly k red edges.

    The bitmask dynamic programming pass of ``count_perfect_matchings``
    also keeps, per vertex subset, an int whose bit j is set when the subset
    has a perfect matching with j red edges, so one pass answers every k
    without enumerating matchings.
    """
    counts = _all_matchings(graph, max_n, "red counts")[1]
    return frozenset(j for j in range(graph.n // 2 + 1) if counts >> j & 1)


def em_decide_bruteforce(
    graph: ColoredGraph, k: int, max_n: int = ENUMERATION_CAP
) -> PerfectMatching | None:
    """First perfect matching with exactly ``k`` red edges, or None."""
    for pm in enumerate_perfect_matchings(graph, max_n=max_n):
        if pm.red_count == k:
            return pm
    return None


def _clique_bound(comp: list[int], cand: int, limit: int) -> int:
    """min(``limit``, the largest clique of the graph ``comp`` inside
    ``cand``), by branch and bound.  A node greedily colors its candidates
    and branches on them highest color first, while the clique size plus
    the color can beat the best.  Nodes are frames on an explicit stack, so
    no recursion grows with the answer; the search stops at ``limit``."""
    best = 0
    frames = [[0, cand, None]]          # (clique size, candidates left, coloring)
    while frames and best < limit:
        frame = frames[-1]
        size, rest, order = frame
        if order is None:
            order = frame[2] = []
            uncolored, color = rest, 0
            while uncolored:
                color += 1
                avail = uncolored
                while avail:
                    v = (avail & -avail).bit_length() - 1
                    avail &= ~(comp[v] | (1 << v))
                    uncolored &= ~(1 << v)
                    order.append((v, color))
        if not order or size + order[-1][1] <= best:
            frames.pop()
            continue
        v = order.pop()[0]
        frame[1] = rest & ~(1 << v)
        frames.append([size + 1, rest & comp[v], None])
        best = max(best, size + 1)
    return min(best, limit)


def max_independent_set_size(n: int, neighbor_masks: list[int], limit: int | None = None) -> int:
    """Maximum independent set size from adjacency bitmasks, or min(it,
    ``limit``) when a limit is given.

    Branch and bound on the complement's cliques with a greedy-coloring
    bound (an independent set of the graph is a clique of the complement).
    """
    full = (1 << n) - 1
    comp = [full & ~(neighbor_masks[v] | (1 << v)) for v in range(n)]
    return _clique_bound(comp, full, n if limit is None else limit)


def independence_number(graph: ColoredGraph, max_n: int = INDEPENDENCE_CAP,
                        limit: int | None = None) -> int:
    """Exact independence number (size of the largest independent set), or
    min(it, ``limit``) with no size cap when a limit is given.  Turan's bound
    alpha >= n^2 / (2m + n) answers from n and m alone when it exceeds
    ``limit`` - 1, so only dense graphs reach the search, where the n-bit
    masks are no larger than the graph."""
    n = graph.n
    if limit is None:
        _check_cap(graph, max_n, "independence number")
    elif n * n > (limit - 1) * (2 * graph.m + n):
        return limit
    return max_independent_set_size(n, _neighbor_masks(graph), limit)


def _biclique_bound(nonadj: list[int], cand_b: int, limit: int) -> int:
    """min(``limit``, the largest min(side-A count, common side-B
    non-neighbors)) over every choice among the side-A vertices, whose
    side-B non-neighbors ``nonadj`` holds, by branch and bound: each vertex
    is first included, then skipped.  A loop follows the includes and an
    explicit stack holds the skips (index, count, common non-neighbors)."""
    n_a = len(nonadj)
    best = 0
    stack = [(0, 0, cand_b)]
    while stack and best < limit:
        i, chosen, cand = stack.pop()
        while True:
            count = cand.bit_count()
            best = max(best, min(chosen, count))
            if best >= limit or i == n_a or min(chosen + n_a - i, count) <= best:
                break
            narrowed = cand & nonadj[i]
            i += 1
            if narrowed.bit_count() > chosen:
                stack.append((i, chosen, cand))
                chosen, cand = chosen + 1, narrowed
    return min(best, limit)


def bipartite_independence_number(graph: ColoredGraph, max_n: int = INDEPENDENCE_CAP,
                                  limit: int | None = None) -> int:
    """Largest b such that some independent set has b vertices on each side,
    or min(it, ``limit``) when a limit is given.

    Requires a bipartition.  Equivalent to the maximum balanced biclique of
    the bipartite complement; solved by branch and bound over one side.  A
    limited search has no size cap, and answers ``limit`` from the sizes
    alone when a side of p vertices has p >= limit and p q >= limit (m + p):
    its ``limit`` vertices of least degree then have at least ``limit``
    common non-neighbors among the other side's q.
    """
    if limit is None:
        _check_cap(graph, max_n, "bipartite independence number")
    if graph.bipartition is None:
        raise GraphError("bipartite independence number needs a bipartition")
    p, q = map(len, graph.bipartition)
    if limit is not None and any(a >= limit and a * b >= limit * (graph.m + a)
                                 for a, b in ((p, q), (q, p))):
        return limit
    index_b = {v: i for i, v in enumerate(sorted(graph.bipartition[1]))}
    full_b = (1 << q) - 1
    # Per side-A vertex, the bitmask of its side-B non-neighbors.
    nonadj = [full_b & ~sum(1 << index_b[b] for b in graph.neighbor_index[a])
              for a in sorted(graph.bipartition[0])]
    return _biclique_bound(nonadj, full_b, min(p, q) if limit is None else limit)
