"""Brute-force ground truth: matching enumeration and independence numbers.

Everything here is exponential-time by design and guarded by configurable
size caps.  The enumeration recursion always matches the lowest uncovered
vertex first and scans its neighbors in ascending order, so matchings come
out in lexicographic order of their sorted edge lists.
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


def enumerate_perfect_matchings(
    graph: ColoredGraph, max_n: int = ENUMERATION_CAP
) -> Iterator[PerfectMatching]:
    """Yield every perfect matching, lexicographically by sorted edge list."""
    _check_cap(graph, max_n, "enumeration")
    if graph.n % 2 != 0:
        return
    index = graph.neighbor_index
    uncovered = set(range(graph.n))
    chosen: list[tuple[int, int]] = []

    def extend() -> Iterator[PerfectMatching]:
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
            yield from extend()
            chosen.pop()
            uncovered.add(v)
        uncovered.add(u)

    yield from extend()


def count_perfect_matchings(graph: ColoredGraph, max_n: int = COUNTING_CAP) -> int:
    """Number of perfect matchings, via bitmask dynamic programming.

    Independent of the enumeration code path: counts over subsets without
    materializing any matching.
    """
    _check_cap(graph, max_n, "counting")
    n = graph.n
    if n % 2 != 0:
        return 0
    nbr = _neighbor_masks(graph)
    memo: dict[int, int] = {0: 1}

    def count(mask: int) -> int:
        cached = memo.get(mask)
        if cached is not None:
            return cached
        u = (mask & -mask).bit_length() - 1
        rest = mask & ~(1 << u)
        total = 0
        cand = rest & nbr[u]
        while cand:
            vbit = cand & -cand
            total += count(rest & ~vbit)
            cand ^= vbit
        memo[mask] = total
        return total

    return count((1 << n) - 1)


def perfect_matching_red_counts(graph: ColoredGraph, max_n: int = COUNTING_CAP) -> frozenset[int]:
    """Every k for which some perfect matching has exactly k red edges.

    Bitmask dynamic programming with the recursion of
    ``count_perfect_matchings``: ``reach(mask)`` is an int whose bit j is set
    when the vertices in ``mask`` have a perfect matching with j red edges,
    so one pass answers every k without enumerating matchings.
    """
    _check_cap(graph, max_n, "red counts")
    n = graph.n
    if n % 2 != 0:
        return frozenset()
    nbr = _neighbor_masks(graph)
    red = _neighbor_masks(graph, red_only=True)
    memo: dict[int, int] = {0: 1}

    def reach(mask: int) -> int:
        cached = memo.get(mask)
        if cached is not None:
            return cached
        u = (mask & -mask).bit_length() - 1
        rest = mask & ~(1 << u)
        counts = 0
        cand = rest & nbr[u]
        while cand:
            vbit = cand & -cand
            sub = reach(rest & ~vbit)
            counts |= sub << 1 if red[u] & vbit else sub
            cand ^= vbit
        memo[mask] = counts
        return counts

    counts = reach((1 << n) - 1)
    return frozenset(j for j in range(n // 2 + 1) if counts >> j & 1)


def em_decide_bruteforce(
    graph: ColoredGraph, k: int, max_n: int = ENUMERATION_CAP
) -> PerfectMatching | None:
    """First perfect matching with exactly ``k`` red edges, or None."""
    for pm in enumerate_perfect_matchings(graph, max_n=max_n):
        if pm.red_count == k:
            return pm
    return None


def max_independent_set_size(n: int, neighbor_masks: list[int]) -> int:
    """Exact maximum independent set size from adjacency bitmasks.

    Branch and bound on the complement's cliques with a greedy-coloring
    bound (an independent set of the graph is a clique of the complement).
    """
    full = (1 << n) - 1
    comp = [full & ~(neighbor_masks[v] | (1 << v)) for v in range(n)]
    best = 0

    def expand(size: int, cand: int) -> None:
        nonlocal best
        if cand == 0:
            if size > best:
                best = size
            return
        color_of: dict[int, int] = {}
        order: list[int] = []
        uncolored = cand
        color = 0
        while uncolored:
            color += 1
            avail = uncolored
            while avail:
                v = (avail & -avail).bit_length() - 1
                avail &= ~(comp[v] | (1 << v))
                uncolored &= ~(1 << v)
                color_of[v] = color
                order.append(v)
        rest = cand
        for v in reversed(order):
            if size + color_of[v] <= best:
                return
            expand(size + 1, rest & comp[v])
            rest &= ~(1 << v)

    expand(0, full)
    return best


def independence_number(graph: ColoredGraph, max_n: int = INDEPENDENCE_CAP) -> int:
    """Exact independence number (size of the largest independent set)."""
    _check_cap(graph, max_n, "independence number")
    return max_independent_set_size(graph.n, _neighbor_masks(graph))


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
    best = 0
    n_a = len(side_a)

    def expand(i: int, chosen: int, cand_b: int) -> None:
        nonlocal best
        value = min(chosen, cand_b.bit_count())
        if value > best:
            best = value
        if i == n_a:
            return
        if min(chosen + (n_a - i), cand_b.bit_count()) <= best:
            return
        narrowed = cand_b & nonadj[i]
        if narrowed.bit_count() > chosen:
            expand(i + 1, chosen + 1, narrowed)
        expand(i + 1, chosen, cand_b)

    expand(0, 0, full_b)
    return best
