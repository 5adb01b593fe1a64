"""Cycle-shortcut machinery: skips and biskips.

A *skip* shortcuts an alternating cycle C through two non-matching chords,
producing a strictly shorter alternating cycle C' on a subset of C's
vertices whose weight differs from C's by at most 4.  That difference, C'
minus C, is the skip's ``weight`` and its red-count shift: swapping C for C'
in the symmetric difference of two perfect matchings moves the second
matching's red count by exactly ``weight``, which is how the approximation
loop walks the red count toward its target.

A *biskip* is the bipartite counterpart.  Orienting matching edges from
side A to side B and all other edges the opposite way turns alternating
cycles into directed cycles; a biskip replaces one directed cycle with two
shorter vertex-disjoint ones closed off by two chord arcs; its ``weight``,
the replacements' weight minus the host's, is the same red-count shift.

All searches are exhaustive and deterministic: candidate chords are scanned
in lexicographic order and the first valid shortcut whose weight lies in
the requested filter wins.  Each candidate pair is judged in O(1) from
per-cycle tables built once in O(L), from one read of the cycle's edges:
the position of each cycle vertex, the parity of the matching-edge
positions, and prefix sums of the edge weights.  Alternation reduces to
position parity, so chords that can never take part are never formed.  The
skip search generates its first chords lazily, in order, and pairs each
only with its partners, the chords that could cross it, read from sorted
vertex lists; so it builds nothing past the winner, and only the winner's
cycles are built.
"""

from __future__ import annotations

from bisect import bisect_right
from dataclasses import dataclass
from itertools import accumulate
from typing import Iterable, Iterator, Sequence

from .graphs import (
    RED,
    AlternatingCycle,
    ColoredGraph,
    CycleSet,
    Edge,
    GraphError,
    PerfectMatching,
    closed_walk,
    edge_key,
)

NEGATIVE_WEIGHTS = frozenset({-4, -3, -2, -1})
POSITIVE_WEIGHTS = frozenset({1, 2, 3, 4})
SKIP_WEIGHTS = frozenset(range(-4, 5))

Arc = tuple[int, int]


def guaranteed_skip_weights(subpath_weight: int) -> frozenset[int]:
    """Skip weights guaranteed to exist for equal sub-path weight x.

    On a cycle carrying enough disjoint weight-x sub-paths, an exhaustive
    chord search must find a skip whose weight lies in this set:
    x=2 -> negative; x=1 -> negative or zero; x=0 -> positive or zero;
    x=-1 -> positive.
    """
    table = {
        2: NEGATIVE_WEIGHTS,
        1: NEGATIVE_WEIGHTS | {0},
        0: POSITIVE_WEIGHTS | {0},
        -1: POSITIVE_WEIGHTS,
    }
    try:
        return table[subpath_weight]
    except KeyError:
        raise ValueError(f"no guarantee for sub-path weight {subpath_weight}") from None


# -- skips ---------------------------------------------------------------------


@dataclass(frozen=True)
class Skip:
    """A pair of chords shortcutting ``host_cycle`` into ``shortcut_cycle``.
    ``weight`` is the red-count shift: the shortcut's weight minus the host's."""

    e1: Edge
    e2: Edge
    weight: int
    shortcut_cycle: AlternatingCycle
    host_cycle: AlternatingCycle


def _vrange(vertices: tuple[int, ...], start: int, stop: int) -> list[int]:
    """Vertices from position start to stop inclusive, walking forward."""
    length = len(vertices)
    if stop < start:
        stop += length
    return [vertices[i % length] for i in range(start, stop + 1)]


def _walk_layout(
    graph: ColoredGraph, matching: PerfectMatching, order: Sequence[int]
) -> tuple[dict[int, int], int, list[int]]:
    """Position map, matching parity and weight prefix sums along ``order``.

    Edge i joins ``order[i]`` and ``order[i+1]`` (cyclically).  The cycle
    must alternate with ``matching``; then edge i is a matching edge exactly
    when ``i % 2 == par``.  ``prefix[i]`` is the weight of edges 0..i-1
    relative to ``matching``, so ``prefix[-1]`` is the whole cycle's.

    The edges are read once, by ``closed_walk``.  ``GraphError`` names a
    self-loop (two equal consecutive vertices) first, then a cycle that does
    not alternate, then an edge missing from the graph (a vertex outside the
    graph included), the first one along ``order``.
    """
    pos = {v: i for i, v in enumerate(order)}
    if len(pos) < len(order):    # a repeated vertex: edge_key rejects a self-loop
        for u, v in zip(order, order[1:] + order[:1]):
            edge_key(u, v)
    ring, colors, par = closed_walk(graph, matching, order)
    if par is None:
        raise GraphError("cycle does not alternate with the given matching")
    if None in colors:
        raise GraphError(f"unknown edge {ring[colors.index(None)]}")
    # A red edge weighs -1 in the matching, at positions par, par + 2, ...
    # and +1 off it; a blue edge weighs 0.
    weights = [1 if c == RED else 0 for c in colors]
    weights[par::2] = [-w for w in weights[par::2]]
    return pos, par, list(accumulate(weights, initial=0))


def _skip_chords(
    index: Sequence[dict[int, int]], pos: dict[int, int], same: tuple[list[int], list[int]]
) -> Iterator[tuple[Edge, int, int, int, int]]:
    """(chord, lower position, upper position, position parity, weight) for
    every edge joining two cycle vertices whose positions ``pos`` have the
    same parity, generated in lexicographic order of the chord.  ``same``
    holds the cycle vertices, ascending, split by the parity of ``pos``.

    Same-parity positions are never adjacent on the even cycle, and every
    matching edge between cycle vertices is a cycle edge, so each chord is a
    non-matching edge and weighs 1 if red, 0 if blue.  For each cycle vertex
    u, ascending, the partners v > u are the same-parity cycle vertices
    above u that are in u's entry of the neighbor ``index``, so each vertex
    costs O(L) whatever the degree, and only when the caller asks for its
    chords.
    """
    seen = [0, 0]
    for u in sorted(pos):
        pu = pos[u]
        side = pu % 2
        seen[side] += 1
        nbrs = index[u]
        for v in same[side][seen[side]:]:
            if v not in nbrs:
                continue
            pv = pos[v]
            p, q = (pu, pv) if pu < pv else (pv, pu)
            yield (u, v), p, q, side, nbrs[v]


def find_skip(
    graph: ColoredGraph,
    matching: PerfectMatching,
    cycle: AlternatingCycle,
    weight_filter: Iterable[int],
) -> Skip | None:
    """First chord pair that shortcuts ``cycle`` with weight in the filter.

    Candidate chords are the non-matching edges with both endpoints on the
    cycle that are not cycle edges themselves.  Unordered chord pairs are
    scanned in lexicographic order; for an interleaved pair both removal
    patterns are tried (which covers both cyclic orientations).  A candidate
    is valid when the rebuilt cycle is a strictly shorter alternating cycle
    and the weight difference has absolute value at most 4.

    Each candidate costs O(1).  A kept arc must start and end with a
    matching edge, so a chord takes part only if its two endpoints have the
    same position parity, and the two chords of a skip have opposite
    parities.  One rule then picks the removal pattern that alternates.
    With the four chord endpoints at positions s0 < s1 < s2 < s3, the kept
    arcs, walking forward, are [p, q] and [r, t] with (p, q, r, t) =
    (s1, s2, s3, s0) when s1 has the matching edges' parity and
    (s0, s1, s2, s3) otherwise.  The pair is no shortcut when the arcs
    leave out no cycle edge (r = q + 1 and t + 1 = p, cyclically).  The
    weight, the kept arcs' plus the chords' minus the whole cycle's, comes
    from the prefix sums; the whole cycle's term cancels when [r, t] wraps
    past position 0.  Only the winner's shortcut cycle, [p, q] followed by
    [r, t] walked backwards, is built.

    Only partners are scanned.  The first chords f are generated one at a
    time, in lexicographic order, so nothing is built for the chords after
    the winner's.  A partner g of f = (u, v) has the other position parity
    and exactly one endpoint strictly inside f's position span [a0, a1].
    It shares no endpoint with f and comes after it, so its lower endpoint
    x is above u, and one of x and its upper endpoint y lies inside the
    span, the other outside.  The vertices of that parity, ascending, are
    split once per f into those inside and those outside; for each x,
    ascending, ``bisect`` finds the vertices above x in the group x is not
    in, tried ascending.  So g runs in lexicographic order and no pair that
    the full scan would reject at once is formed.  One f costs O(L) plus
    O(1) per pair (x, y) tried, at most L²/16.
    """
    wanted = frozenset(weight_filter) & SKIP_WEIGHTS
    if not wanted:
        return None
    verts = cycle.vertices
    length = len(verts)
    pos, par, prefix = _walk_layout(graph, matching, verts)
    index = graph.neighbor_index
    same: tuple[list[int], list[int]] = ([], [])    # by position parity
    for v in sorted(pos):
        same[pos[v] % 2].append(v)
    for f, a0, a1, side, wf in _skip_chords(index, pos, same):
        other = same[1 - side]
        inner = [v for v in other if a0 < pos[v] < a1]
        outer = [v for v in other if not a0 < pos[v] < a1]
        for x in other[bisect_right(other, f[0]):]:
            px = pos[x]
            group = outer if a0 < px < a1 else inner
            nbrs = index[x]
            for y in group[bisect_right(group, x):]:
                if y not in nbrs:
                    continue
                py = pos[y]
                b0, b1 = (px, py) if px < py else (py, px)
                s0, s1, s2, s3 = (a0, b0, a1, b1) if a0 < b0 else (b0, a0, b1, a1)
                # Keep arcs [p, q] and [r, t]: e_p, e_q-1, e_r, e_t-1 in M.
                p, q, r, t = (s1, s2, s3, s0) if s1 % 2 == par else (s0, s1, s2, s3)
                if r == q + 1 and (t + 1) % length == p:
                    continue
                weight = prefix[q] - prefix[p] + prefix[t] - prefix[r] + wf + nbrs[y]
                if r < t:
                    weight -= prefix[-1]
                if weight not in wanted:
                    continue
                seq = _vrange(verts, p, q) + _vrange(verts, r, t)[::-1]
                shortcut = AlternatingCycle.from_vertices(graph, matching, seq)
                return Skip(f, (x, y), weight, shortcut, cycle)
    return None


def _swap_host(
    host: AlternatingCycle,
    replacements: Sequence[AlternatingCycle],
    context: CycleSet,
    what: str,
) -> CycleSet:
    """``context`` with ``host`` replaced by ``replacements``, after checking
    membership, vertex-disjointness and shrink."""
    if host not in context.cycles:
        raise GraphError(f"{what} does not belong to any cycle of the context")
    rest = [c for c in context.cycles if c != host]
    new_context = CycleSet.from_cycles(rest + list(replacements))
    if not new_context.edge_count() < context.edge_count():
        raise GraphError(f"{what} application failed to shrink the context")
    return new_context


def apply_skip(skip: Skip, context: CycleSet) -> CycleSet:
    """Swap the skip's host cycle for its shortcut inside ``context``.

    ``context``, the symmetric difference of a reference matching M with a
    perfect matching M' weighted against M, must contain the host cycle.
    M flipped along the result is then a perfect matching with
    ``skip.weight`` more red edges than M', and the result has fewer edges.
    """
    return _swap_host(skip.host_cycle, (skip.shortcut_cycle,), context, "skip")


# -- biskips -------------------------------------------------------------------


def orient(graph: ColoredGraph, matching: PerfectMatching) -> None:
    """Check in O(n) that ``matching`` can orient ``graph`` for a biskip search.

    Orienting matching edges from side A to side B and every other edge the
    opposite way needs a bipartition and a matching inside the graph.
    ``find_biskip`` derives each direction from the two, so nothing is built.
    """
    if graph.bipartition is None:
        raise GraphError("orientation needs a bipartite graph")
    if not matching.edges <= graph.colors.keys():
        raise GraphError("matching uses edges outside the graph")


@dataclass(frozen=True)
class Biskip:
    """Two chord arcs splitting a directed cycle into two shorter ones.
    ``weight`` is the red-count shift: the two cycles' weight minus the host's."""

    a1: Arc
    a2: Arc
    weight: int
    cycles: tuple[AlternatingCycle, AlternatingCycle]
    host_cycle: AlternatingCycle


def find_biskip(
    graph: ColoredGraph,
    matching: PerfectMatching,
    cycle: AlternatingCycle,
    weight_filter: Iterable[int],
) -> Biskip | None:
    """First arc pair splitting ``cycle`` with combined weight in the filter.

    With a1 = (v1, v2) and a2 = (v1', v2'), the four endpoints must appear
    in cyclic order v1, v2', v1', v2 along the directed cycle; the two
    replacement cycles close the kept segments with a1 and a2, must be
    vertex-disjoint, strictly shorter in total, and shift the weight by at
    most 4 in absolute value.  Ordered arc pairs are scanned lexicographically.

    ``graph`` must carry a bipartition and ``cycle`` must alternate with
    ``matching`` (``orient`` checks the first two).  Each direction is
    derived from the bipartition and the matching, as the orientation sets
    it, so no directed view is built.  Sides and matching membership both
    alternate along the cycle, so the canonical vertex order is the
    directed order exactly when its first vertex is on side A iff its first
    edge is a matching edge, and the reversed order otherwise: the direction
    costs O(1).

    Each candidate costs O(1).  A replacement cycle runs from its arc's head
    forward to its tail, so it alternates exactly when the head starts a
    matching edge and the tail ends one.  That holds for every chord: a
    chord between cycle vertices that are not cycle neighbours is never a
    matching edge, so it runs from side B to side A, and side A holds the
    positions of parity ``par`` in directed order.  The chords come from the
    neighbor index: for each side-B cycle vertex, ascending, the side-A
    cycle vertices, ascending, that are in its entry.  The two cycle
    neighbours among them close a two-vertex segment or an empty span, which
    the length and order tests reject.  The cyclic order makes the two
    cycles vertex-disjoint, lengths come from positions and weights from
    prefix sums along the directed order, and only the winner's cycles are
    built.
    """
    wanted = frozenset(weight_filter) & SKIP_WEIGHTS
    if not wanted:
        return None
    verts = cycle.vertices
    forward = (verts[0] in graph.bipartition[0]) == (cycle.edges[0] in matching.edges)
    order = verts if forward else verts[::-1]
    length = len(order)
    pos, par, prefix = _walk_layout(graph, matching, order)
    total = prefix[-1]
    heads = sorted(order[par::2])
    # (arc, tail position, head position, weight of the segment from head
    # forward to tail plus the arc itself, whose weight is its red flag)
    chords = []
    for tail in sorted(order[1 - par::2]):
        pt = pos[tail]
        nbrs = graph.neighbor_index[tail]
        for head in heads:
            if head in nbrs:
                ph = pos[head]
                segment = prefix[pt] - prefix[ph] + (total if ph > pt else 0)
                chords.append(((tail, head), pt, ph, segment + nbrs[head]))
    for a1, p1, p2, w1 in chords:
        r2 = (p2 - p1) % length
        len1 = length - r2 + 1
        if len1 < 4:
            continue
        for a2, q1, q2, w2 in chords:
            # a2 == a1 fails the order test: its r1p is 0.
            r2p = (q2 - p1) % length
            r1p = (q1 - p1) % length
            if not 0 < r2p < r1p < r2:
                continue
            len2 = r1p - r2p + 1
            if len2 < 4 or len1 + len2 >= length:
                continue
            weight = w1 + w2 - total
            if weight not in wanted:
                continue
            c1 = AlternatingCycle.from_vertices(graph, matching, _vrange(order, p2, p1))
            c2 = AlternatingCycle.from_vertices(graph, matching, _vrange(order, q2, q1))
            return Biskip(a1, a2, weight, (c1, c2), cycle)
    return None


def apply_biskip(biskip: Biskip, context: CycleSet) -> CycleSet:
    """Swap the biskip's host cycle for its two replacement cycles inside
    ``context``, as ``apply_skip`` does for a skip."""
    return _swap_host(biskip.host_cycle, biskip.cycles, context, "biskip")
