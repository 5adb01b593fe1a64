"""Brute-force ground truth: matching enumeration and independence numbers.

Everything here is exponential-time by design and guarded by configurable
size caps.  The enumeration recursion always matches the lowest uncovered
vertex first and scans its neighbors in ascending order, so matchings come
out in lexicographic order of their sorted edge lists.  Counting and the
achievable red counts share one memoized recursion over vertex subsets, so
one pass yields both.  Every search is a module-level function that takes
its state as arguments, so no call leaves a reference cycle behind.
"""

from __future__ import annotations

from typing import Iterator

from .graphs import ColoredGraph, GraphError, PerfectMatching

ENUMERATION_CAP = 16
COUNTING_CAP = 20
INDEPENDENCE_CAP = 40


class OracleLimitError(RuntimeError):
    """Instance too large for a brute-force oracle call."""


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


def _clique_bound(comp: list[int], size: int, cand: int, best: int) -> int:
    """The larger of ``best`` and ``size`` plus the largest clique of the
    graph ``comp`` inside ``cand``, pruned by a greedy coloring of ``cand``."""
    if cand == 0:
        return max(best, size)
    order: list[tuple[int, int]] = []
    uncolored = cand
    color = 0
    while uncolored:
        color += 1
        avail = uncolored
        while avail:
            v = (avail & -avail).bit_length() - 1
            avail &= ~(comp[v] | (1 << v))
            uncolored &= ~(1 << v)
            order.append((v, color))
    rest = cand
    for v, color in reversed(order):
        if size + color <= best:
            break
        best = _clique_bound(comp, size + 1, rest & comp[v], best)
        rest &= ~(1 << v)
    return best


def max_independent_set_size(n: int, neighbor_masks: list[int]) -> int:
    """Exact maximum independent set size from adjacency bitmasks.

    Branch and bound on the complement's cliques with a greedy-coloring
    bound (an independent set of the graph is a clique of the complement).
    """
    full = (1 << n) - 1
    comp = [full & ~(neighbor_masks[v] | (1 << v)) for v in range(n)]
    return _clique_bound(comp, 0, full, 0)


def independence_number(graph: ColoredGraph, max_n: int = INDEPENDENCE_CAP) -> int:
    """Exact independence number (size of the largest independent set)."""
    _check_cap(graph, max_n, "independence number")
    return max_independent_set_size(graph.n, _neighbor_masks(graph))


def _biclique_bound(nonadj: list[int], i: int, chosen: int, cand_b: int, best: int) -> int:
    """``best`` raised to the largest min(side-A count, common side-B
    non-neighbors) over every choice among the side-A vertices from ``i``
    on, given ``chosen`` picked before ``i`` with common non-neighbors
    ``cand_b``; branches that cannot beat ``best`` are pruned."""
    best = max(best, min(chosen, cand_b.bit_count()))
    n_a = len(nonadj)
    if i == n_a or min(chosen + (n_a - i), cand_b.bit_count()) <= best:
        return best
    narrowed = cand_b & nonadj[i]
    if narrowed.bit_count() > chosen:
        best = _biclique_bound(nonadj, i + 1, chosen + 1, narrowed, best)
    return _biclique_bound(nonadj, i + 1, chosen, cand_b, best)


def bipartite_independence_number(graph: ColoredGraph, max_n: int = INDEPENDENCE_CAP) -> int:
    """Largest b such that some independent set has b vertices on each side.

    Requires a bipartition.  Equivalent to the maximum balanced biclique of
    the bipartite complement; solved by branch and bound over one side.
    """
    _check_cap(graph, max_n, "bipartite independence number")
    if graph.bipartition is None:
        raise GraphError("bipartite independence number needs a bipartition")
    side_a = sorted(graph.bipartition[0])
    side_b = sorted(graph.bipartition[1])
    index_b = {v: i for i, v in enumerate(side_b)}
    full_b = (1 << len(side_b)) - 1
    # nonadj[i] = bitmask over side_b of vertices NOT adjacent to side_a[i]
    nonadj = []
    for a in side_a:
        mask = full_b
        for b in graph.neighbor_index[a]:
            mask &= ~(1 << index_b[b])
        nonadj.append(mask)
    return _biclique_bound(nonadj, 0, 0, full_b, 0)
