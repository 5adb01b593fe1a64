"""Exact perfect matching engines.

Optimum weight is the blossom engine's work in ``blossom`` (Edmonds'
primal-dual method, translated from networkx's ``max_weight_matching`` with
``maxcardinality=True``), which is exact for integer weights and runs on the
standard library alone.  A maximum-cardinality matching of maximum weight is
a maximum-weight perfect matching whenever a perfect matching exists at all,
so perfection is detected by size.  Completion (``perfect_matching_on``) is
the lexicographically first perfect matching, found with one augmenting-path
search in polynomial time and no search budget.
"""

from __future__ import annotations

from collections import deque
from typing import Iterable, Mapping, Sequence

from .blossom import max_weight_matching
from .graphs import RED, ColoredGraph, Edge, GraphError, PerfectMatching


def max_weight_perfect_matching(
    graph: ColoredGraph,
    weights: Mapping[Edge, int],
) -> PerfectMatching | None:
    """A perfect matching of maximum total ``weights``, or None if none exists.

    ``weights`` must assign an ``int`` to every edge of the graph.  Among
    equal-weight optima the choice is deterministic but otherwise arbitrary.
    """
    adj: list[dict[int, int]] = [{} for _ in range(graph.n)]
    top = 0
    for e in graph.colors:
        if e not in weights:
            raise GraphError(f"no weight given for edge {e}")
        w = weights[e]
        if type(w) is not int:
            raise GraphError(f"weight {w!r} of edge {e} is not an int")
        if w > top:
            top = w
        u, v = e
        adj[u][v] = w
        adj[v][u] = w
    return _best_perfect(graph, adj, top)


def min_red_pm(graph: ColoredGraph) -> PerfectMatching | None:
    """A perfect matching with as few red edges as possible: the blossom
    engine reads ``graph.neighbor_index`` with every weight negated, so no
    negated copy of the index is built.  Read negated, every weight is 0 or
    -1, so the largest weight it is given is 0.  None at once, before the
    index is built, when the graph has too few edges to cover n vertices."""
    if 2 * graph.m < graph.n:
        return None
    return _best_perfect(graph, graph.neighbor_index, 0, negate=True)


def max_red_pm(graph: ColoredGraph) -> PerfectMatching | None:
    """A perfect matching with as many red edges as possible.  The largest
    weight the blossom engine is given is 1 if some edge is red and 0
    otherwise; the test stops at the first red edge.  None at once when the
    graph has too few edges to cover n vertices, as in ``min_red_pm``."""
    if 2 * graph.m < graph.n:
        return None
    return _best_perfect(graph, graph.neighbor_index, 1 if RED in graph.colors.values() else 0)


def _best_perfect(
    graph: ColoredGraph, adj: Sequence[Mapping[int, int]], top: int, *, negate: bool = False
) -> PerfectMatching | None:
    """Blossom on ``graph`` with ``adj[v]`` mapping each neighbor of ``v`` to
    the edge weight, read negated when ``negate`` is set.  ``top`` must be
    the largest weight as read, or 0 if that is negative or there is no
    edge; the engine starts its duals there instead of scanning ``adj``.
    Every neighbor map must list its neighbors ascending, as
    ``graph.neighbor_index`` does, which both ``max_red_pm`` and
    ``min_red_pm`` pass as it is, the latter with ``negate``; networkx's
    adjacency is in that order when a graph is built edge by edge in sorted
    order.  ``adj`` is only read.  An odd vertex count always leaves some
    vertex single, so it gives None; the empty graph gives the empty
    matching.  ``mate`` is not validated again: the optimality check proved
    it symmetric and on edges of ``adj``, every caller's graph, and no -1
    makes it perfect."""
    mate, _ = max_weight_matching(adj, top, negate=negate)
    if -1 in mate:
        return None
    edges = [(u, v) for u, v in enumerate(mate) if u < v]
    return PerfectMatching(frozenset(edges), sum(graph.colors[e] == RED for e in edges))


def _augment(
    adjacency: Sequence[Mapping[int, int]] | Mapping[int, Mapping[int, int]],
    color: int, mate: dict[int, int], alive: set[int], root: int,
) -> bool:
    """Edmonds' augmenting-path search from the exposed vertex ``root`` over
    the ``alive`` vertices, contracting each odd cycle it meets into a
    blossom (Edmonds 1965, "Paths, trees, and flowers").

    ``mate`` maps every matched alive vertex to its partner; exposed ones are
    absent.  Neighbors flagged ``color`` are scanned in adjacency order from
    an explicit queue.
    Flips the first augmenting path found and returns True; returns False,
    with ``mate`` untouched, when no augmenting path starts at ``root``.
    """
    base = {root: root}             # each labeled vertex's blossom base
    parent: dict[int, int] = {}     # tree link into odd (and blossom) vertices
    even = {root}
    queue = deque((root,))
    while queue:
        v = queue.popleft()
        mv = mate.get(v)
        for w, flag in adjacency[v].items():
            if flag != color or w not in alive or w == mv or base.get(w) == base[v]:
                continue
            if w in even:
                # An odd cycle: contract it onto the nearest common base.
                top, path = base[v], {base[v]}
                while top != root:
                    top = base[parent[mate[top]]]
                    path.add(top)
                top = base[w]
                while top not in path:
                    top = base[parent[mate[top]]]
                blossom: set[int] = set()
                for x, child in ((v, w), (w, v)):
                    while base[x] != top:
                        m = mate[x]
                        blossom.update((base[x], base[m]))
                        parent[x] = child
                        child, x = m, parent[m]
                for x, b in base.items():
                    if b in blossom:
                        base[x] = top
                        if x not in even:
                            even.add(x)
                            queue.append(x)
            elif w not in parent:
                parent[w] = v
                if w not in mate:
                    while w is not None:    # flip the path back to the root
                        p = parent[w]
                        mate[w], mate[p], w = p, w, mate.get(p)
                    return True
                m = mate[w]
                base[w], base[m] = w, m
                even.add(m)
                queue.append(m)
    return False


def perfect_matching_on(
    vertices: Iterable[int], edges: Sequence[Edge]
) -> tuple[Edge, ...] | None:
    """The lexicographically first perfect matching of the plain graph
    (vertices, edges), or None if it has none.

    Lexicographically first: the lowest vertex takes the lowest partner that
    still leaves a perfect matching, then the lowest vertex left, and so on.
    Exact in polynomial time, with no search budget.  Edges with an endpoint
    outside ``vertices`` are ignored, and so are self-loops, which lie in no
    matching.
    """
    adj: dict[int, dict[int, int]] = {v: {} for v in vertices}
    for u, v in sorted((u, v) if u < v else (v, u) for u, v in edges):
        if u != v and u in adj and v in adj:
            adj[u][v] = adj[v][u] = 0
    return perfect_matching_on_adjacency(adj, adj.keys(), 0)


def perfect_matching_on_adjacency(
    adjacency: Sequence[Mapping[int, int]] | Mapping[int, Mapping[int, int]],
    vertices: Iterable[int], color: int,
) -> tuple[Edge, ...] | None:
    """``perfect_matching_on`` over the edges flagged ``color``.

    ``adjacency[v]`` maps v's neighbors, ascending, to flags, as
    ``ColoredGraph.neighbor_index`` does, so phase 2 completes from the
    index itself.  It must hold every vertex of ``vertices`` and may cover
    more; edges leaving the vertex set are ignored.

    A lowest-first greedy pass and one ``_augment`` per vertex it leaves
    exposed find some perfect matching.  Then the lowest unfixed vertex u
    keeps the first neighbor v that leaves one: its mate, or a v such that
    deleting u and v leaves an augmenting path between their former mates.
    """
    verts = sorted(set(vertices))
    alive = set(verts)
    mate: dict[int, int] = {}
    for u in verts:
        if u not in mate:
            for v, flag in adjacency[u].items():
                if flag == color and v in alive and v not in mate:
                    mate[u], mate[v] = v, u
                    break
    for r in verts:
        if r not in mate and not _augment(adjacency, color, mate, alive, r):
            return None
    chosen: list[Edge] = []
    for u in verts:
        if u not in alive:
            continue
        alive.discard(u)
        mu = mate[u]
        for v, flag in adjacency[u].items():
            if v == mu:
                break
            if flag != color or v not in alive:
                continue
            mv = mate[v]
            alive.discard(v)
            del mate[mu], mate[mv]
            if _augment(adjacency, color, mate, alive, mu):
                break
            alive.add(v)
            mate[mu], mate[mv] = u, v
        alive.discard(v)
        chosen.append((u, v))
    return tuple(chosen)
