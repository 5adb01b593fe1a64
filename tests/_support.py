"""Independent validity predicates for shortcut structures.

These re-evaluate the defining properties of skips and biskips from scratch
(edge-set walking, alternation, interleaving, weight arithmetic) without
reusing the library's own cycle or shortcut helpers, so tests can confront
the implementation with a second opinion.  Each checker returns a list of
violation strings; an empty list means the structure is valid.

``naive_find_skip`` and ``naive_find_biskip`` are the straightforward
shortcut searches that rebuild every candidate cycle, kept as the
reference the library's searches are tested against.
"""

from __future__ import annotations

from exactmatching import (
    BLUE,
    RED,
    SKIP_WEIGHTS,
    AlternatingCycle,
    Biskip,
    ColoredGraph,
    GraphError,
    MatchingOrientation,
    PerfectMatching,
    Skip,
)
from exactmatching.skips import _directed_order


def _key(u: int, v: int) -> tuple[int, int]:
    return (u, v) if u < v else (v, u)


def walk_cycle(edges) -> list[int] | None:
    """Vertex order of an edge set forming one simple cycle, else None."""
    adj: dict[int, list[int]] = {}
    for u, v in edges:
        adj.setdefault(u, []).append(v)
        adj.setdefault(v, []).append(u)
    if not adj or any(len(ns) != 2 for ns in adj.values()):
        return None
    start = min(adj)
    walk = [start]
    seen = {start}
    prev, cur = None, start
    while True:
        a, b = adj[cur]
        nxt = b if a == prev else a
        if nxt == start:
            break
        if nxt in seen:
            return None
        walk.append(nxt)
        seen.add(nxt)
        prev, cur = cur, nxt
    if len(walk) != len(adj):
        return None
    return walk


def is_alternating_cycle(graph: ColoredGraph, matching: PerfectMatching, edges) -> bool:
    """Direct evaluation: simple even cycle, edges exist, strict alternation."""
    order = walk_cycle(edges)
    if order is None or len(order) < 4 or len(order) % 2 != 0:
        return False
    length = len(order)
    ring = [_key(order[i], order[(i + 1) % length]) for i in range(length)]
    if any(not graph.has_edge(*e) for e in ring):
        return False
    flags = [e in matching.edges for e in ring]
    return all(flags[i] != flags[(i + 1) % length] for i in range(length))


def cycle_weight(graph: ColoredGraph, matching: PerfectMatching, edges) -> int:
    total = 0
    for e in edges:
        if graph.color(e) == RED:
            total += -1 if e in matching.edges else 1
    return total


def _interleaved(host_order: list[int], e1, e2) -> bool:
    pos = {v: i for i, v in enumerate(host_order)}
    marks = sorted([(pos[e1[0]], 1), (pos[e1[1]], 1), (pos[e2[0]], 2), (pos[e2[1]], 2)])
    if len({p for p, _ in marks}) != 4:
        return False
    owners = [o for _, o in marks]
    return owners in ([1, 2, 1, 2], [2, 1, 2, 1])


def _cyclic_runs(indices: set[int], modulus: int) -> int:
    """Number of maximal cyclic runs of consecutive indices."""
    if not indices or len(indices) == modulus:
        return 1 if indices else 0
    return sum(1 for i in indices if (i - 1) % modulus not in indices)


def check_skip(graph: ColoredGraph, matching: PerfectMatching, skip: Skip) -> list[str]:
    """All shortcut invariants, evaluated directly.  Empty list = valid."""
    out = []
    host_edges = set(skip.host_cycle.edges)
    host_order = walk_cycle(host_edges)
    if host_order is None or not is_alternating_cycle(graph, matching, host_edges):
        return ["host is not a simple alternating cycle"]
    host_verts = set(host_order)
    for name, e in (("first", skip.e1), ("second", skip.e2)):
        if not graph.has_edge(*e):
            out.append(f"{name} chord is not a graph edge")
        if e in matching.edges:
            out.append(f"{name} chord is a matching edge")
        if e in host_edges:
            out.append(f"{name} chord lies on the host cycle")
        if not set(e) <= host_verts:
            out.append(f"{name} chord leaves the host cycle")
    if out:
        return out
    if not _interleaved(host_order, skip.e1, skip.e2):
        out.append("chords do not interleave along the host")
    short_edges = set(skip.shortcut_cycle.edges)
    if not {skip.e1, skip.e2} <= short_edges:
        out.append("shortcut does not use both chords")
    if not short_edges - {skip.e1, skip.e2} <= host_edges:
        out.append("shortcut uses edges outside host plus chords")
    if not is_alternating_cycle(graph, matching, short_edges):
        out.append("shortcut is not a simple alternating cycle")
    if not len(short_edges) < len(host_edges):
        out.append("shortcut is not strictly shorter")
    kept = {i for i in range(len(host_order))
            if _key(host_order[i], host_order[(i + 1) % len(host_order)]) in short_edges}
    if _cyclic_runs(kept, len(host_order)) > 2:
        out.append("kept host edges form more than two arcs")
    expected = cycle_weight(graph, matching, short_edges) - cycle_weight(
        graph, matching, host_edges)
    if skip.weight != expected:
        out.append(f"weight {skip.weight} != recomputed {expected}")
    if abs(skip.weight) > 4:
        out.append("weight outside [-4, 4]")
    return out


def check_biskip(
    view: MatchingOrientation, matching: PerfectMatching, biskip: Biskip
) -> list[str]:
    """All split invariants, evaluated directly.  Empty list = valid."""
    graph = view.graph
    out = []
    host_edges = set(biskip.host_cycle.edges)
    order = walk_cycle(host_edges)
    if order is None or not is_alternating_cycle(graph, matching, host_edges):
        return ["host is not a simple alternating cycle"]
    length = len(order)
    if not all(view.has_arc(order[i], order[(i + 1) % length]) for i in range(length)):
        order = list(reversed(order))
        if not all(view.has_arc(order[i], order[(i + 1) % length])
                   for i in range(length)):
            return ["host is not a directed cycle of the orientation"]
    pos = {v: i for i, v in enumerate(order)}
    host_arcs = {(order[i], order[(i + 1) % length]) for i in range(length)}
    for name, arc in (("first", biskip.a1), ("second", biskip.a2)):
        if arc not in view.arcs:
            out.append(f"{name} arc is not an orientation arc")
        elif arc in host_arcs:
            out.append(f"{name} arc lies on the host cycle")
        if not set(arc) <= set(order):
            out.append(f"{name} arc leaves the host cycle")
    if biskip.a1 == biskip.a2:
        out.append("arcs coincide")
    if out:
        return out
    v1, v2 = biskip.a1
    v1p, v2p = biskip.a2
    r2 = (pos[v2] - pos[v1]) % length
    r2p = (pos[v2p] - pos[v1]) % length
    r1p = (pos[v1p] - pos[v1]) % length
    if not 0 < r2p < r1p < r2:
        out.append("arc endpoints are not in the required cyclic order")
    c1, c2 = biskip.cycles
    c1_edges, c2_edges = set(c1.edges), set(c2.edges)
    if set(c1.vertices) & set(c2.vertices):
        out.append("replacement cycles share vertices")
    for name, cyc_edges, arc in (("first", c1_edges, biskip.a1),
                                 ("second", c2_edges, biskip.a2)):
        if _key(*arc) not in cyc_edges:
            out.append(f"{name} replacement cycle misses its arc")
        if not cyc_edges - {_key(*arc)} <= host_edges:
            out.append(f"{name} replacement cycle uses foreign edges")
        if not is_alternating_cycle(graph, matching, cyc_edges):
            out.append(f"{name} replacement cycle is not alternating")
    if not len(c1_edges) + len(c2_edges) < len(host_edges):
        out.append("replacement cycles are not strictly shorter in total")
    expected = (cycle_weight(graph, matching, c1_edges)
                + cycle_weight(graph, matching, c2_edges)
                - cycle_weight(graph, matching, host_edges))
    if biskip.weight != expected:
        out.append(f"weight {biskip.weight} != recomputed {expected}")
    if abs(biskip.weight) > 4:
        out.append("weight outside [-4, 4]")
    return out


# -- rebuild-per-candidate reference searches ---------------------------------------
#
# The original shortcut searches: every candidate is rebuilt as a full
# AlternatingCycle and re-validated, O(L) per candidate.  The library's O(1)
# searches must return exactly what these return, ``None`` included.


def _cycle_weight(graph, matching, cycle):
    in_m = [e in matching.edges for e in cycle.edges]
    for i, flag in enumerate(in_m):
        if flag == in_m[(i + 1) % len(in_m)]:
            raise GraphError("cycle does not alternate with the given matching")
    return cycle_weight(graph, matching, cycle.edges)


def _vrange(vertices, start, stop):
    length = len(vertices)
    if stop < start:
        stop += length
    return [vertices[i % length] for i in range(start, stop + 1)]


def naive_find_skip(graph, matching, cycle, weight_filter):
    wanted = frozenset(weight_filter) & SKIP_WEIGHTS
    if not wanted:
        return None
    base_weight = _cycle_weight(graph, matching, cycle)
    pos = {v: i for i, v in enumerate(cycle.vertices)}
    on_cycle = cycle.edge_set()
    chords = [e for e in graph.edges()
              if e[0] in pos and e[1] in pos
              and e not in on_cycle and e not in matching.edges]
    for i, f in enumerate(chords):
        for g in chords[i + 1:]:
            skip = _naive_chord_pair(graph, matching, cycle, base_weight, pos,
                                     f, g, wanted)
            if skip is not None:
                return skip
    return None


def _naive_chord_pair(graph, matching, cycle, base_weight, pos, f, g, wanted):
    points = sorted(((pos[f[0]], 0), (pos[f[1]], 0), (pos[g[0]], 1), (pos[g[1]], 1)))
    if len({p for p, _ in points}) != 4:
        return None
    owners = tuple(o for _, o in points)
    if owners not in ((0, 1, 0, 1), (1, 0, 1, 0)):
        return None
    s = [p for p, _ in points]
    verts = cycle.vertices
    variants = (
        _vrange(verts, s[1], s[2]) + list(reversed(_vrange(verts, s[3], s[0]))),
        _vrange(verts, s[0], s[1]) + list(reversed(_vrange(verts, s[2], s[3]))),
    )
    for seq in variants:
        try:
            shortcut = AlternatingCycle.from_vertices(graph, matching, seq)
        except GraphError:
            continue
        if len(shortcut) >= len(cycle):
            continue
        weight = shortcut.weight - base_weight
        if abs(weight) > 4 or weight not in wanted:
            continue
        return Skip(f, g, weight, shortcut, cycle)
    return None


def naive_find_biskip(view, matching, cycle, weight_filter):
    wanted = frozenset(weight_filter) & SKIP_WEIGHTS
    if not wanted:
        return None
    base_weight = _cycle_weight(view.graph, matching, cycle)
    order = _directed_order(view, cycle)
    length = len(order)
    pos = {v: i for i, v in enumerate(order)}
    cycle_arcs = {(order[i], order[(i + 1) % length]) for i in range(length)}
    chords = sorted(a for a in view.arcs
                    if a[0] in pos and a[1] in pos and a not in cycle_arcs)
    graph = view.graph
    for a1 in chords:
        v1, v2 = a1
        r2 = (pos[v2] - pos[v1]) % length
        for a2 in chords:
            if a2 == a1:
                continue
            v1p, v2p = a2
            r2p = (pos[v2p] - pos[v1]) % length
            r1p = (pos[v1p] - pos[v1]) % length
            if not (0 < r2p < r1p < r2):
                continue
            seq1 = _vrange(order, pos[v2], pos[v1])
            seq2 = _vrange(order, pos[v2p], pos[v1p])
            if set(seq1) & set(seq2):
                continue
            try:
                c1 = AlternatingCycle.from_vertices(graph, matching, seq1)
                c2 = AlternatingCycle.from_vertices(graph, matching, seq2)
            except GraphError:
                continue
            if len(c1) + len(c2) >= len(cycle):
                continue
            weight = c1.weight + c2.weight - base_weight
            if abs(weight) > 4 or weight not in wanted:
                continue
            return Biskip(a1, a2, weight, (c1, c2), cycle)
    return None
