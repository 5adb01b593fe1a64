"""Independent validity predicates for shortcut structures.

These re-evaluate the defining properties of skips and biskips from scratch
(edge-set walking, alternation, interleaving, weight arithmetic) without
reusing the library's own cycle or shortcut helpers, so tests can confront
the implementation with a second opinion.  Each checker returns a list of
violation strings; an empty list means the structure is valid.

``orientation_arcs`` lists every arc of the bipartite matching
orientation, edge by edge; the biskip checker and reference read their arcs
from it rather than from the directions the library derives.
``naive_find_skip`` and ``naive_find_biskip`` are the straightforward
shortcut searches that rebuild every candidate cycle, kept as the
reference the library's searches are tested against.  ``naive_solve`` is
the witness contract of ``solve_em`` spelled out with plain combinations;
``first_success`` is ``solve_em``'s phase-2 loop without the lattice, the
library side of that comparison; ``naive_lattice`` is the red-count lattice
by its definition, modulus by modulus; and ``backtrack_match`` is the
lexicographically first perfect matching by plain backtracking, the
reference for completion.
``largest_read_weight`` is the ``top`` the blossom engine's precondition
asks for, by a plain scan, and ``blossom_mate`` calls the engine with it.
``full_scan_parity`` is the parity screen's component labeling with every
neighbor of every vertex scanned, the reference for its early stop, and
``color_adjacency`` is one color's graph read off ``graph.colors``, the
opposite-color graph that phase 2 reads from the neighbor index.
``parity_graph`` builds the parity family, a K_n whose red edges are those
crossing one cut.
"""

from __future__ import annotations

import itertools

from exactmatching import (
    BLUE,
    NO_CERTIFIED,
    RED,
    SKIP_WEIGHTS,
    UNKNOWN,
    YES,
    AlternatingCycle,
    Biskip,
    ColoredGraph,
    CycleSet,
    GraphError,
    PerfectMatching,
    Skip,
    SolverParams,
    apply_cycles,
    perfect_matching_red_counts,
    run_phase1,
    symmetric_difference,
    validate_matching,
)
from exactmatching import blossom
from exactmatching import solver as solver_mod


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


def check_application(
    graph: ColoredGraph,
    reference: PerfectMatching,
    context: CycleSet,
    shortcut: Skip | Biskip,
    new_context: CycleSet,
) -> list[str]:
    """Invariants of swapping ``shortcut`` into ``context``, the symmetric
    difference of ``reference`` with a second matching, read through the
    matchings ``reference`` flipped along each context stands for.  Red
    edges are counted from the graph.  Empty list = valid."""
    try:
        after = apply_cycles(reference, new_context)
    except GraphError:
        return ["apply broke the matching"]
    if not validate_matching(graph, after):
        return ["apply broke the matching"]
    out = []
    before = apply_cycles(reference, context)
    reds = [sum(graph.colors[e] == RED for e in m.edges) for m in (before, after)]
    if reds[1] != reds[0] + shortcut.weight:
        out.append("red shift != weight")
    if not new_context.edge_count() < context.edge_count():
        out.append("context did not shrink")
    if symmetric_difference(graph, reference, after) != new_context:
        out.append("context out of sync")
    return out


def orientation_arcs(graph: ColoredGraph, matching: PerfectMatching) -> frozenset:
    """Every arc of the matching orientation, one per edge of ``graph.colors``:
    matching edges run from the first bipartition side to the second, all
    other edges back."""
    side_a = graph.bipartition[0]
    arcs = set()
    for u, v in graph.colors:
        a, b = (u, v) if u in side_a else (v, u)
        arcs.add((a, b) if (u, v) in matching.edges else (b, a))
    return frozenset(arcs)


def directed_order(arcs, vertices) -> list[int] | None:
    """``vertices`` or their reverse, whichever runs along ``arcs`` as a
    directed cycle; None when neither does."""
    for order in (list(vertices), list(reversed(vertices))):
        if all((order[i], order[(i + 1) % len(order)]) in arcs for i in range(len(order))):
            return order
    return None


def check_biskip(graph: ColoredGraph, matching: PerfectMatching, biskip: Biskip) -> list[str]:
    """All split invariants, evaluated directly.  Empty list = valid."""
    arcs = orientation_arcs(graph, matching)
    out = []
    host_edges = set(biskip.host_cycle.edges)
    order = walk_cycle(host_edges)
    if order is None or not is_alternating_cycle(graph, matching, host_edges):
        return ["host is not a simple alternating cycle"]
    order = directed_order(arcs, order)
    if order is None:
        return ["host is not a directed cycle of the orientation"]
    length = len(order)
    pos = {v: i for i, v in enumerate(order)}
    host_arcs = {(order[i], order[(i + 1) % length]) for i in range(length)}
    for name, arc in (("first", biskip.a1), ("second", biskip.a2)):
        if arc not in arcs:
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


def naive_find_biskip(graph, matching, cycle, weight_filter):
    wanted = frozenset(weight_filter) & SKIP_WEIGHTS
    if not wanted:
        return None
    base_weight = _cycle_weight(graph, matching, cycle)
    arcs = orientation_arcs(graph, matching)
    order = directed_order(arcs, cycle.vertices)
    if order is None:
        raise GraphError("cycle is not a directed cycle of the orientation")
    length = len(order)
    pos = {v: i for i, v in enumerate(order)}
    cycle_arcs = {(order[i], order[(i + 1) % length]) for i in range(length)}
    chords = sorted(a for a in arcs
                    if a[0] in pos and a[1] in pos and a not in cycle_arcs)
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


# -- the phase-2 witness contract, unpruned ------------------------------------------


def naive_first_success(contexts, limit):
    """(size, solution) of the first guess that recovery completes, or None.

    Guesses go by size ascending, then context order, then
    ``itertools.combinations`` order of the sorted color class; every
    combination that ``_proposes`` is handed to recovery, with no other
    pruning.
    """
    for size in range(limit + 1):
        for ctx in contexts:
            for guess in itertools.combinations(ctx.color_edges, size):
                if not _proposes(ctx, guess):
                    continue
                pm = solver_mod._recover(ctx, guess)
                if pm is not None:
                    return size, pm
    return None


def first_success(contexts, limit):
    """(size, solution) of the first guess of ``_candidates`` that
    ``_recover`` completes, or None: the order ``solve_em`` recovers in."""
    for size, ctx, guess in solver_mod._candidates(contexts, limit):
        pm = solver_mod._recover(ctx, guess)
        if pm is not None:
            return size, pm
    return None


def naive_lattice(graph: ColoredGraph) -> set[int]:
    """Every red count that a mod-d vertex potential allows, by definition.

    For each connected component C, with lo_C and hi_C its least and
    greatest brute-force red counts, d is the largest divisor of
    hi_C - lo_C for which some c in Z_d and some potential pi with
    pi(root) = 0 satisfy red(uv) = pi(u) + pi(v) + c (mod d) on every edge
    of C, tried divisor by divisor and c by c.  C then allows lo_C, lo_C + d,
    ..., hi_C, and the graph allows their sums over the components.
    """
    adjacency: dict[int, list[int]] = {v: [] for v in range(graph.n)}
    for u, v in graph.colors:
        adjacency[u].append(v)
        adjacency[v].append(u)
    seen: set[int] = set()
    allowed = {0}
    for root in range(graph.n):
        if root in seen:
            continue
        comp, stack = [], [root]
        seen.add(root)
        while stack:
            v = stack.pop()
            comp.append(v)
            for w in adjacency[v]:
                if w not in seen:
                    seen.add(w)
                    stack.append(w)
        at = {v: i for i, v in enumerate(sorted(comp))}
        sub = ColoredGraph(len(comp), {_key(at[u], at[v]): c
                                       for (u, v), c in graph.colors.items() if u in at})
        counts = perfect_matching_red_counts(sub)
        lo, hi = min(counts), max(counts)
        d = next((d for d in range(hi - lo, 1, -1)
                  if (hi - lo) % d == 0 and _has_potential(sub, d)), 1)
        allowed = {s + r for s in allowed for r in range(lo, hi + 1, d)}
    return allowed


def _has_potential(graph: ColoredGraph, d: int) -> bool:
    """Whether a connected ``graph`` has pi and c with
    red(uv) = pi(u) + pi(v) + c (mod d) on every edge."""
    for c in range(d):
        pi = {0: 0}
        stack = [0]
        while stack:
            v = stack.pop()
            for (x, y), color in graph.colors.items():
                if v not in (x, y):
                    continue
                w = y if v == x else x
                want = ((color == RED) - c - pi[v]) % d
                if w not in pi:
                    pi[w] = want
                    stack.append(w)
        if all(((color == RED) - pi[x] - pi[y] - c) % d == 0
               for (x, y), color in graph.colors.items()):
            return True
    return False


def _proposes(ctx, guess) -> bool:
    """Whether ``guess`` is one recovery accepts: its proposal has the
    target size and shares no vertex."""
    proposal = ctx.base.symmetric_difference(guess)
    ends = [w for e in proposal for w in e]
    return len(proposal) == ctx.target and len(ends) == len(set(ends))


def naive_solve(graph: ColoredGraph, k: int, params: SolverParams | None = None):
    """(status, witness, L_used, reason) that ``solve_em`` must return on a
    graph with an even vertex count, 0 <= k <= n/2 and n below the certified
    radius f(bound), which holds for every bound.

    The phase-1 matching is the anchor.  A k outside the range of red
    counts, read off the brute-force ``perfect_matching_red_counts``, is a
    no with no search, whatever the cap.  Otherwise red guesses go before
    blue at each size.  With no success, the search has tried every guess
    whose proposal has the target size and shares no vertex, up to size
    min(r + k, n - r - k) for the anchor's red count r.  The verdict rule:
    a k outside ``naive_lattice`` is a no with L_used 0 when the search is
    capped or holds more than ``_CERTIFY_AFTER`` guesses; otherwise
    exhausting radius n certifies a no, and a smaller ``L_cap`` gives
    unknown.  Only the lattice's verdict is read here, so the rule does not
    depend on when ``solve_em`` builds it.
    """
    params = params or SolverParams()
    anchor = run_phase1(graph, k, params).matching
    if anchor is None:
        return NO_CERTIFIED, None, 0, "graph has no perfect matching"
    if anchor.red_count == k:
        return YES, anchor, 0, None
    counts = perfect_matching_red_counts(graph)
    lo, hi = min(counts), max(counts)
    if not lo <= k <= hi:
        return NO_CERTIFIED, None, 0, f"k outside the red-count range [{lo}, {hi}]"
    limit = graph.n if params.L_cap is None else min(params.L_cap, graph.n)
    contexts = [solver_mod._make_context(graph, anchor, k, c) for c in (RED, BLUE)]
    hit = naive_first_success(contexts, limit)
    if hit is not None:
        return YES, hit[1], hit[0], None
    stop = min(limit, anchor.red_count + k, graph.n - anchor.red_count - k)
    guesses = (guess for size in range(stop + 1) for ctx in contexts
               for guess in itertools.combinations(ctx.color_edges, size)
               if _proposes(ctx, guess))
    tried = sum(1 for _ in itertools.islice(guesses, solver_mod._CERTIFY_AFTER + 1))
    if (limit < graph.n or tried > solver_mod._CERTIFY_AFTER) and k not in naive_lattice(graph):
        return NO_CERTIFIED, None, 0, "k outside the red-count lattice"
    if limit == graph.n:
        return NO_CERTIFIED, None, limit, "exhausted the certified search radius"
    return UNKNOWN, None, limit, f"search exhausted at guess-size budget {limit}"


# -- completion, by backtracking -----------------------------------------------------


class BudgetExhausted(Exception):
    pass


def backtrack_match(adjacency, verts, budget):
    """The lexicographically first perfect matching on ``verts`` (sorted,
    distinct and non-empty) by lowest-vertex-first backtracking, or None.

    The lowest uncovered vertex tries its uncovered neighbors in adjacency
    order, which must be ascending; neighbors outside ``verts`` are skipped.
    The search keeps an explicit stack of one frame per matched pair, and
    raises ``BudgetExhausted`` after ``budget`` search nodes.
    """
    budget -= 1     # the root node
    uncovered = set(verts)
    # ``verts`` is sorted, so the lowest uncovered vertex is found by
    # scanning forward from the position of the one matched last.
    pos = 0
    u = verts[0]
    uncovered.discard(u)
    untried = iter(adjacency.get(u, ()))
    chosen = []
    stack = []
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
            raise BudgetExhausted
        if not uncovered:
            return tuple(sorted(chosen))
        stack.append((pos, u, untried))
        pos += 1
        while verts[pos] not in uncovered:
            pos += 1
        u = verts[pos]
        uncovered.discard(u)
        untried = iter(adjacency.get(u, ()))


def largest_read_weight(adj, negate: bool = False) -> int:
    """``max(0, largest weight as read)`` over the neighbor maps ``adj``,
    each weight negated when ``negate`` is set; 0 without edges."""
    sign = -1 if negate else 1
    return max([0] + [sign * wt for nbrs in adj for wt in nbrs.values()])


def blossom_mate(adj, negate: bool = False) -> list[int]:
    """The mate list of ``blossom.max_weight_matching`` on ``adj`` with its
    ``top`` from ``largest_read_weight``."""
    mate, _ = blossom.max_weight_matching(adj, largest_read_weight(adj, negate), negate=negate)
    return mate


# -- the parity labels, by a full scan -----------------------------------------------


def color_adjacency(graph: ColoredGraph, color: str) -> dict[int, tuple[int, ...]]:
    """Each vertex's neighbors along the edges of ``color``, ascending, by a
    scan of ``graph.colors``."""
    nbrs: dict[int, list[int]] = {v: [] for v in range(graph.n)}
    for (u, v), c in graph.colors.items():
        if c == color:
            nbrs[u].append(v)
            nbrs[v].append(u)
    return {v: tuple(sorted(ws)) for v, ws in nbrs.items()}


def full_scan_parity(n, adjacency):
    """(labels, late): ``labels`` is the (component, side, need, mask, bad)
    of ``_RecoveryContext.parity`` for the graph on ``n`` vertices with the
    ascending neighbor tuples ``adjacency``, by a depth-first search that
    scans every neighbor of every vertex it pops.  ``late`` counts the pops
    made after every vertex was labeled."""
    component = [-1] * n
    side = [0] * n
    need = []
    mask = []
    labeled = late = 0
    for root in range(n):
        if component[root] >= 0:
            continue
        c = len(need)
        component[root], side[root] = c, 1
        labeled += 1
        stack = [root]
        total, bipartite = 0, True
        while stack:
            v = stack.pop()
            late += labeled == n
            s = side[v]
            total += s
            for w in adjacency[v]:
                if component[w] < 0:
                    component[w], side[w] = c, -s
                    labeled += 1
                    stack.append(w)
                elif side[w] == s:
                    bipartite = False
        need.append(total)
        mask.append(-1 if bipartite else 1)
    bad = sum(1 for x, m in zip(need, mask) if x & m)
    return (component, side, need, mask, bad), late


# -- the parity family ---------------------------------------------------------------


def parity_graph(n, split):
    """K_n with red exactly on the edges crossing {0 .. split-1}: every
    perfect matching has a red count of the parity of ``split``."""
    return ColoredGraph.from_edges(n, [
        (u, v, RED if (u < split) != (v < split) else BLUE)
        for u in range(n) for v in range(u + 1, n)])
