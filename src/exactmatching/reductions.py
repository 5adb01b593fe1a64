"""Reductions that densify a graph while preserving the red-count problem.

Both lifts append a small blue gadget whose edges are forced into every
perfect matching, so perfect matchings of the lifted graph correspond one
to one with perfect matchings of the original, with identical red counts.
The gadget's hub vertices put every original vertex within a short distance
of each other, which collapses distance-based independence measures.  Each
lift checks its output size against ``LIFT_CAP`` before it builds anything
per vertex.
"""

from __future__ import annotations

from .graphs import BLUE, ColoredGraph, GraphError, PerfectMatching, edge_key
from .oracle import (
    INDEPENDENCE_CAP,
    LIFT_CAP,
    OracleLimitError,
    _check_cap,
    max_independent_set_size,
)


def _check_lift(graph: ColoredGraph, added: int) -> None:
    """Raise ``OracleLimitError`` if lifting ``graph`` by ``added`` gadget
    vertices would pass ``LIFT_CAP``."""
    size = graph.n + added
    if size > LIFT_CAP:
        raise OracleLimitError(
            f"instance too large for a lift: n={graph.n} would become {size} vertices,"
            f" above cap {LIFT_CAP}")


def lift_to_dense(graph: ColoredGraph) -> ColoredGraph:
    """Append a blue universal hub u and a pendant v matched to it.

    The hub ``u = n`` gets a blue edge to every original vertex and to
    ``v = n + 1``, whose only neighbor is the hub; every perfect matching
    must therefore pair u with v and leave the original graph to cover the
    rest.  Any two vertices of the result are within distance 2 of each
    other, so its distance-3 independence number is 1.
    """
    _check_lift(graph, 2)
    n = graph.n
    colors = dict(graph.colors)
    hub, pendant = n, n + 1
    for x in range(n):
        colors[(x, hub)] = BLUE
    colors[(hub, pendant)] = BLUE
    return ColoredGraph(n + 2, colors)


def lift_to_dense_bipartite(graph: ColoredGraph) -> ColoredGraph:
    """Append two blue hubs with pendants, one per side.

    Hub ``u = n`` joins side A and sees all of side B plus its own pendant
    ``v' = n + 3``; hub ``v = n + 2`` joins side B and sees all of side A
    plus its pendant ``u' = n + 1``.  The pendants force the matching edges
    (u, v') and (v, u'), so perfect matchings pull back to the original
    graph.  Every cross pair of the result is within distance 3 except the
    two pendants, so its distance-3 independence number is 2.
    """
    if graph.bipartition is None:
        raise GraphError("bipartite lift needs a bipartition")
    _check_lift(graph, 4)
    n = graph.n
    side_a, side_b = graph.bipartition
    hub_a, pendant_a, hub_b, pendant_b = n, n + 1, n + 2, n + 3
    colors = dict(graph.colors)
    for b in sorted(side_b):
        colors[edge_key(hub_a, b)] = BLUE
    colors[edge_key(hub_a, pendant_b)] = BLUE
    for a in sorted(side_a):
        colors[edge_key(a, hub_b)] = BLUE
    colors[edge_key(pendant_a, hub_b)] = BLUE
    bipartition = (side_a | {hub_a, pendant_a}, side_b | {hub_b, pendant_b})
    return ColoredGraph(n + 4, colors, bipartition)


def pullback_matching(graph: ColoredGraph, lifted: PerfectMatching) -> PerfectMatching:
    """Strip the gadget edges from a matching of a lifted graph.

    ``graph`` is the original; the lift kind is inferred from the size of
    the lifted matching (n + 2 or n + 4 covered vertices).  The forced
    gadget edges must be present, everything else must form a perfect
    matching of the original.
    """
    n = graph.n
    covered = 2 * len(lifted.edges)
    if covered == n + 2:
        forced = {(n, n + 1)}
    elif covered == n + 4:
        forced = {(n, n + 3), (n + 1, n + 2)}
    else:
        raise GraphError(
            f"matching covers {covered} vertices; expected {n + 2} or {n + 4}")
    if not forced <= lifted.edges:
        raise GraphError(f"lifted matching is missing forced gadget edges {sorted(forced)}")
    rest = lifted.edges - forced
    return PerfectMatching.from_edges(graph, rest)


def distance_d_independence_number(
    graph: ColoredGraph, d: int, max_n: int = INDEPENDENCE_CAP
) -> int:
    """Largest set of vertices pairwise at distance at least ``d``.

    At d = 1 every vertex set qualifies; at d = 2 this is the ordinary
    independence number.  Computed exactly by building the conflict graph
    of pairs closer than d (BFS to depth d - 1 from every vertex) and
    running the independence oracle on it, so the same size cap applies.
    """
    if d < 1:
        raise ValueError(f"distance must be >= 1, got {d}")
    _check_cap(graph, max_n, f"distance-{d} independence")
    n = graph.n
    index = graph.neighbor_index
    masks = [0] * n
    for start in range(n):
        dist = {start: 0}
        frontier = [start]
        depth = 0
        while frontier and depth < d - 1:
            depth += 1
            nxt = []
            for v in frontier:
                for w in index[v]:
                    if w not in dist:
                        dist[w] = depth
                        nxt.append(w)
            frontier = nxt
        for v in dist:
            if v != start:
                masks[start] |= 1 << v
                masks[v] |= 1 << start
    return max_independent_set_size(n, masks)
