"""Exact optimum-weight perfect matching engines.

The heavy lifting is delegated to networkx's blossom implementation
(``max_weight_matching`` with ``maxcardinality=True``), which is exact for
integer weights.  A maximum-cardinality matching of maximum weight is a
maximum-weight perfect matching whenever a perfect matching exists at all,
so perfection is detected by size.
"""

from __future__ import annotations

from typing import Iterable, Iterator, Mapping, Sequence

import networkx as nx

from .graphs import BLUE, RED, ColoredGraph, Edge, GraphError, PerfectMatching


def max_weight_perfect_matching(
    graph: ColoredGraph,
    weights: Mapping[Edge, int],
) -> PerfectMatching | None:
    """A perfect matching of maximum total ``weights``, or None if none exists.

    ``weights`` must assign an integer to every edge of the graph.  Among
    equal-weight optima the choice is deterministic but otherwise arbitrary.
    """
    for e in graph.colors:
        if e not in weights:
            raise GraphError(f"no weight given for edge {e}")
    if graph.n % 2 != 0:
        return None
    if graph.n == 0:
        return PerfectMatching(frozenset(), 0)
    g = nx.Graph()
    g.add_nodes_from(range(graph.n))
    for e in graph.edges():
        g.add_edge(*e, weight=weights[e])
    mate = nx.max_weight_matching(g, maxcardinality=True)
    if 2 * len(mate) != graph.n:
        return None
    return PerfectMatching.from_edges(graph, mate)


def min_red_pm(graph: ColoredGraph) -> PerfectMatching | None:
    """A perfect matching with as few red edges as possible."""
    weights = {e: (-1 if c == RED else 0) for e, c in graph.colors.items()}
    return max_weight_perfect_matching(graph, weights)


def max_red_pm(graph: ColoredGraph) -> PerfectMatching | None:
    """A perfect matching with as many red edges as possible."""
    weights = {e: (1 if c == RED else 0) for e, c in graph.colors.items()}
    return max_weight_perfect_matching(graph, weights)


_SEARCH_BUDGET = 60_000


class _BudgetExhausted(Exception):
    pass


def _backtrack_match(
    adjacency: Mapping[int, Sequence[int]], verts: list[int]
) -> tuple[Edge, ...] | None:
    """Bounded lowest-vertex-first search for a perfect matching on ``verts``
    (sorted, distinct and non-empty).

    Neighbors outside ``verts`` (or already matched) are skipped by the
    uncovered test, so a shared oversized adjacency and a pre-filtered one
    walk the identical search tree.  The search keeps an explicit stack of
    one frame per matched pair, so its depth is not bounded by the
    interpreter's recursion limit.  Each search node costs one unit of
    budget; raises when the budget runs out.
    """
    budget = _SEARCH_BUDGET - 1     # the root node
    uncovered = set(verts)
    # ``verts`` is sorted, so the lowest uncovered vertex is found by
    # scanning forward from the position of the one matched last.
    pos = 0
    u = verts[0]
    uncovered.discard(u)
    untried = iter(adjacency.get(u, ()))
    chosen: list[Edge] = []
    stack: list[tuple[int, int, Iterator[int]]] = []
    while True:
        for v in untried:
            if v in uncovered:
                break
        else:
            # Every neighbor of u failed: undo the parent's pair and try
            # the parent's next neighbor.
            uncovered.add(u)
            if not stack:
                return None
            pos, u, untried = stack.pop()
            uncovered.add(chosen.pop()[1])
            continue
        # u is the lowest uncovered vertex, so its partner v is above it.
        uncovered.discard(v)
        chosen.append((u, v))
        budget -= 1
        if budget < 0:
            raise _BudgetExhausted
        if not uncovered:
            return tuple(sorted(chosen))
        stack.append((pos, u, untried))
        pos += 1
        while verts[pos] not in uncovered:
            pos += 1
        u = verts[pos]
        uncovered.discard(u)
        untried = iter(adjacency.get(u, ()))


def _blossom_match(pairs: list[Edge], verts: list[int]) -> tuple[Edge, ...] | None:
    g = nx.Graph()
    g.add_nodes_from(verts)
    g.add_edges_from(sorted(pairs))
    mate = nx.max_weight_matching(g, maxcardinality=True)
    if 2 * len(mate) != len(verts):
        return None
    return tuple(sorted((u, v) if u < v else (v, u) for u, v in mate))


def perfect_matching_on(
    vertices: Iterable[int], edges: Sequence[Edge]
) -> tuple[Edge, ...] | None:
    """Some perfect matching of the plain graph (vertices, edges), or None.

    Deterministic.  Tries a bounded backtracking search first (fast on the
    small or dense remainder graphs this is used for); if the budget runs
    out, falls back to the blossom engine, which is exact in polynomial time.
    """
    verts = sorted(set(vertices))
    if len(verts) % 2 != 0:
        return None
    if not verts:
        return ()
    vset = set(verts)
    pairs = [e for e in edges if e[0] in vset and e[1] in vset]
    adj: dict[int, list[int]] = {v: [] for v in verts}
    for u, v in pairs:
        adj[u].append(v)
        adj[v].append(u)
    for v in adj:
        adj[v].sort()
    try:
        return _backtrack_match(adj, verts)
    except _BudgetExhausted:
        return _blossom_match(pairs, verts)


def perfect_matching_on_adjacency(
    adjacency: Mapping[int, Sequence[int]], vertices: Iterable[int]
) -> tuple[Edge, ...] | None:
    """``perfect_matching_on`` against a shared adjacency, result-identical.

    ``adjacency`` must list neighbors in ascending order and may cover far
    more vertices than ``vertices``; edges leaving the vertex set are
    ignored.  Callers that repeatedly match different remainders of one
    fixed graph avoid rebuilding the edge list on every call.
    """
    verts = sorted(set(vertices))
    if len(verts) % 2 != 0:
        return None
    if not verts:
        return ()
    try:
        return _backtrack_match(adjacency, verts)
    except _BudgetExhausted:
        vset = set(verts)
        pairs = [(u, v) for u in verts for v in adjacency.get(u, ())
                 if u < v and v in vset]
        return _blossom_match(pairs, verts)
