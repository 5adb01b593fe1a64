"""Cycle-shortcut machinery: edge pairs, bundles, skips, and biskips.

A *skip* shortcuts an alternating cycle C through two non-matching chords,
producing a strictly shorter alternating cycle C' on a subset of C's
vertices whose weight differs from C's by at most 4.  Swapping C for C' in
the symmetric difference of two perfect matchings nudges the red count of
the second matching by exactly that weight difference, which is how the
approximation loop walks the red count toward its target.

A *biskip* is the bipartite counterpart.  Orienting matching edges from
side A to side B and all other edges the opposite way turns alternating
cycles into directed cycles; a biskip replaces one directed cycle with two
shorter vertex-disjoint ones closed off by two chord arcs.

All searches are exhaustive and deterministic: candidate chords are scanned
in lexicographic order and the first valid shortcut whose weight lies in
the requested filter wins.  Each candidate pair is judged in O(1) from
per-cycle tables built once in O(L): the position of each cycle vertex,
the parity of the matching-edge positions, and prefix sums of the edge
weights.  Alternation reduces to position parity, so chords that can never
take part are dropped before the pair loop, and only the winner's cycles
are built.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Sequence

from .graphs import (
    AlternatingCycle,
    ColoredGraph,
    CycleSet,
    Edge,
    GraphError,
    PerfectMatching,
    edge_key,
    edge_weight,
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


# -- pair decomposition, bundles, sign-alternating stretches ------------------


@dataclass(frozen=True)
class EdgePair:
    """One matching edge and the non-matching edge that follows it."""

    matching_edge: Edge
    nonmatching_edge: Edge
    label: int  # weight of the duo, in {-1, 0, +1}


@dataclass(frozen=True)
class Bundle:
    """Two same-sign nonzero pairs separated only by zero-label pairs.

    ``span`` lists the pair indices from the first to the second pair
    inclusive, in cyclic order; the labels over the span sum to ``2 * sign``.
    """

    sign: int
    first_index: int
    second_index: int
    span: tuple[int, ...]


@dataclass(frozen=True)
class Stretch:
    """Maximal bundle-free run of pairs; its labels sum to -1, 0, or +1."""

    indices: tuple[int, ...]
    weight: int


def pair_decomposition(
    cycle: AlternatingCycle, graph: ColoredGraph, matching: PerfectMatching
) -> list[EdgePair]:
    """Chop the cycle into consecutive (matching, non-matching) edge duos.

    Pairing starts at the first matching edge of the canonical edge walk.
    The pair labels sum to the cycle's weight.
    """
    edges = cycle.edges
    if edges[0] in matching.edges:
        start = 0
    elif edges[1] in matching.edges:
        start = 1
    else:
        raise GraphError("cycle does not alternate with the given matching")
    pairs = []
    for i in range(len(edges) // 2):
        m_edge = edges[(start + 2 * i) % len(edges)]
        nm_edge = edges[(start + 2 * i + 1) % len(edges)]
        if m_edge not in matching.edges or nm_edge in matching.edges:
            raise GraphError("cycle does not alternate with the given matching")
        label = edge_weight(graph, matching, m_edge) + edge_weight(graph, matching, nm_edge)
        pairs.append(EdgePair(m_edge, nm_edge, label))
    return pairs


def find_bundles(pairs: Sequence[EdgePair]) -> list[Bundle]:
    """Greedy maximal set of disjoint bundles, scanning left to right.

    The pair list is treated as cyclic; a final wrap-around bundle is formed
    when the first and last surviving nonzero pairs agree in sign.  After the
    scan no two remaining consecutive nonzero pairs share a sign.
    """
    total = len(pairs)
    nonzero = [i for i in range(total) if pairs[i].label != 0]
    bundles: list[Bundle] = []
    consumed: set[int] = set()
    prev: int | None = None
    for t, idx in enumerate(nonzero):
        if prev is not None and pairs[nonzero[prev]].label == pairs[idx].label:
            first = nonzero[prev]
            bundles.append(Bundle(pairs[idx].label, first, idx,
                                  tuple(range(first, idx + 1))))
            consumed.update((prev, t))
            prev = None
        else:
            prev = t
    if (len(nonzero) >= 2 and 0 not in consumed and prev == len(nonzero) - 1
            and pairs[nonzero[-1]].label == pairs[nonzero[0]].label):
        first, second = nonzero[-1], nonzero[0]
        span = tuple(range(first, total)) + tuple(range(0, second + 1))
        bundles.append(Bundle(pairs[first].label, first, second, span))
    return bundles


def find_saps(pairs: Sequence[EdgePair]) -> list[Stretch]:
    """Maximal cyclic runs of pairs not covered by any greedy bundle."""
    total = len(pairs)
    if total == 0:
        return []
    covered: set[int] = set()
    for b in find_bundles(pairs):
        covered.update(b.span)
    free = [i for i in range(total) if i not in covered]
    if not free:
        return []
    if not covered:
        weight = sum(p.label for p in pairs)
        return [Stretch(tuple(range(total)), weight)]
    runs: list[list[int]] = []
    for i in free:
        if runs and runs[-1][-1] == i - 1:
            runs[-1].append(i)
        else:
            runs.append([i])
    if len(runs) > 1 and runs[0][0] == 0 and runs[-1][-1] == total - 1:
        runs[0] = runs.pop() + runs[0]
    return [Stretch(tuple(r), sum(pairs[i].label for i in r)) for r in runs]


# -- skips ---------------------------------------------------------------------


@dataclass(frozen=True)
class Skip:
    """A pair of chords shortcutting ``host_cycle`` into ``shortcut_cycle``."""

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
    """
    length = len(order)
    prefix = [0]
    in_m = []
    for i in range(length):
        e = edge_key(order[i], order[(i + 1) % length])
        in_m.append(e in matching.edges)
        prefix.append(prefix[-1] + edge_weight(graph, matching, e))
    if any(flag == in_m[i - 1] for i, flag in enumerate(in_m)):
        raise GraphError("cycle does not alternate with the given matching")
    return {v: i for i, v in enumerate(order)}, 0 if in_m[0] else 1, prefix


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
    parities; that parity also decides which removal pattern can alternate.
    Lengths come from the positions and weights from prefix sums along the
    cycle, and only the winner's shortcut cycle is built.
    """
    wanted = frozenset(weight_filter) & SKIP_WEIGHTS
    if not wanted:
        return None
    verts = cycle.vertices
    length = len(verts)
    pos, par, prefix = _walk_layout(graph, matching, verts)
    on_cycle = cycle.edge_set()
    # (chord, lower position, upper position, position parity, weight)
    chords = []
    for e in graph.edges():
        if e[0] in pos and e[1] in pos and e not in on_cycle and e not in matching.edges:
            p, q = sorted((pos[e[0]], pos[e[1]]))
            if p % 2 == q % 2:
                chords.append((e, p, q, p % 2, edge_weight(graph, matching, e)))
    for i, (f, a0, a1, side, wf) in enumerate(chords):
        for g, b0, b1, g_side, wg in chords[i + 1:]:
            if g_side == side or (a0 < b0 < a1) == (a0 < b1 < a1):
                continue
            s0, s1, s2, s3 = (a0, b0, a1, b1) if a0 < b0 else (b0, a0, b1, a1)
            if s1 % 2 == par:
                # Keep arcs [s1, s2] and [s3, s0]: e_s1, e_s2-1, e_s3, e_s0-1 in M.
                if s1 == s0 + 1 and s3 == s2 + 1:
                    continue
                weight = prefix[s2] - prefix[s1] + prefix[s0] - prefix[s3] + wf + wg
                if weight not in wanted:
                    continue
                seq = _vrange(verts, s1, s2) + list(reversed(_vrange(verts, s3, s0)))
            else:
                # Keep arcs [s0, s1] and [s2, s3]: e_s0, e_s1-1, e_s2, e_s3-1 in M.
                if s2 == s1 + 1 and s0 == 0 and s3 == length - 1:
                    continue
                weight = (prefix[s1] - prefix[s0] + prefix[s3] - prefix[s2] + wf + wg
                          - prefix[-1])
                if weight not in wanted:
                    continue
                seq = _vrange(verts, s0, s1) + list(reversed(_vrange(verts, s2, s3)))
            shortcut = AlternatingCycle.from_vertices(graph, matching, seq)
            return Skip(f, g, weight, shortcut, cycle)
    return None


def apply_skip(
    matching2: PerfectMatching, skip: Skip, context: CycleSet
) -> tuple[PerfectMatching, CycleSet]:
    """Swap the skip's host cycle for its shortcut inside ``context``.

    ``context`` must be the symmetric difference of a reference matching
    with ``matching2``, containing the host cycle.  Returns the updated
    second matching (red count shifted by the skip weight) and the updated
    context, whose total edge count strictly decreases.
    """
    if skip.host_cycle not in context.cycles:
        raise GraphError("skip does not belong to any cycle of the context")
    host = skip.host_cycle
    in_m2 = [e in matching2.edges for e in host.edges]
    for i, flag in enumerate(in_m2):
        if flag == in_m2[(i + 1) % len(in_m2)]:
            raise GraphError("context cycle does not alternate with the second matching")
    rest = [c for c in context.cycles if c != host]
    new_context = CycleSet.from_cycles(rest + [skip.shortcut_cycle])
    if not new_context.edge_count() < context.edge_count():
        raise GraphError("skip application failed to shrink the context")
    flipped = matching2.edges ^ (host.edge_set() ^ skip.shortcut_cycle.edge_set())
    if len(flipped) != len(matching2.edges):
        raise GraphError("skip application broke the matching")
    return (PerfectMatching(frozenset(flipped), matching2.red_count + skip.weight),
            new_context)


# -- the bipartite directed view and biskips -----------------------------------


@dataclass(frozen=True)
class MatchingOrientation:
    """Bipartite graph with edges directed by a perfect matching.

    Matching edges run from side A to side B, everything else from B to A.
    Directed cycles of this view are exactly the alternating cycles of the
    underlying graph.
    """

    graph: ColoredGraph
    matching: PerfectMatching
    arcs: frozenset[Arc]

    def has_arc(self, u: int, v: int) -> bool:
        return (u, v) in self.arcs


def orient(graph: ColoredGraph, matching: PerfectMatching) -> MatchingOrientation:
    if graph.bipartition is None:
        raise GraphError("orientation needs a bipartite graph")
    if not matching.edges <= set(graph.colors):
        raise GraphError("matching uses edges outside the graph")
    side_a = graph.bipartition[0]
    arcs = set()
    for u, v in graph.colors:
        a, b = (u, v) if u in side_a else (v, u)
        arcs.add((a, b) if (u, v) in matching.edges else (b, a))
    return MatchingOrientation(graph, matching, frozenset(arcs))


def _directed_order(view: MatchingOrientation, cycle: AlternatingCycle) -> tuple[int, ...]:
    """The cycle's vertices rotated into arc direction."""
    verts = cycle.vertices
    forward = all(view.has_arc(verts[i], verts[(i + 1) % len(verts)])
                  for i in range(len(verts)))
    if forward:
        return verts
    backward = tuple(reversed(verts))
    if all(view.has_arc(backward[i], backward[(i + 1) % len(backward)])
           for i in range(len(backward))):
        return backward
    raise GraphError("cycle is not a directed cycle of the orientation")


@dataclass(frozen=True)
class Biskip:
    """Two chord arcs splitting a directed cycle into two shorter ones."""

    a1: Arc
    a2: Arc
    weight: int
    cycles: tuple[AlternatingCycle, AlternatingCycle]
    host_cycle: AlternatingCycle


def find_biskip(
    view: MatchingOrientation,
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

    Each candidate costs O(1).  A replacement cycle runs from its arc's head
    forward to its tail, so it alternates exactly when the head starts a
    matching edge and the tail ends one; arcs failing that position-parity
    test are dropped up front.  The cyclic order makes the two cycles
    vertex-disjoint, lengths come from positions and weights from prefix sums
    along the directed order, and only the winner's cycles are built.
    """
    wanted = frozenset(weight_filter) & SKIP_WEIGHTS
    if not wanted:
        return None
    graph = view.graph
    order = _directed_order(view, cycle)
    length = len(order)
    pos, par, prefix = _walk_layout(graph, matching, order)
    total = prefix[-1]
    cycle_arcs = {(order[i], order[(i + 1) % length]) for i in range(length)}
    # (arc, tail position, head position, weight of the segment from head
    # forward to tail plus the arc itself)
    chords = []
    for a in sorted(view.arcs):
        tail, head = a
        if tail in pos and head in pos and a not in cycle_arcs:
            pt, ph = pos[tail], pos[head]
            if ph % 2 == par and pt % 2 != par:
                segment = prefix[pt] - prefix[ph] + (total if ph > pt else 0)
                chords.append((a, pt, ph, segment + edge_weight(graph, matching, edge_key(*a))))
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


def apply_biskip(
    matching2: PerfectMatching, biskip: Biskip, context: CycleSet
) -> tuple[PerfectMatching, CycleSet]:
    """Swap the biskip's host cycle for its two replacement cycles."""
    if biskip.host_cycle not in context.cycles:
        raise GraphError("biskip does not belong to any cycle of the context")
    host = biskip.host_cycle
    in_m2 = [e in matching2.edges for e in host.edges]
    for i, flag in enumerate(in_m2):
        if flag == in_m2[(i + 1) % len(in_m2)]:
            raise GraphError("context cycle does not alternate with the second matching")
    c1, c2 = biskip.cycles
    rest = [c for c in context.cycles if c != host]
    new_context = CycleSet.from_cycles(rest + [c1, c2])
    if not new_context.edge_count() < context.edge_count():
        raise GraphError("biskip application failed to shrink the context")
    flipped = matching2.edges ^ (host.edge_set() ^ c1.edge_set() ^ c2.edge_set())
    if len(flipped) != len(matching2.edges):
        raise GraphError("biskip application broke the matching")
    return (PerfectMatching(frozenset(flipped), matching2.red_count + biskip.weight),
            new_context)
