"""Maximum-weight maximum-cardinality matching on vertices ``0..n-1``.

This is a translation of ``max_weight_matching(G, maxcardinality=True)``
from networkx 3.6 (``networkx/algorithms/matching.py``), restricted to
integer weights, onto integer vertex ids.  The algorithm is Edmonds'
primal-dual blossom method as presented in Z. Galil, "Efficient Algorithms
for Finding Maximum Matching in Graphs", ACM Computing Surveys 18(1), 1986;
the comments below use Galil's terms.

What changes against networkx is the representation, not the choices:

- the dicts keyed by vertex or blossom become lists indexed by id, where
  vertices are ``0..n-1`` and non-trivial blossoms take ids ``n..2n-1``
  from a free pool;
- live blossoms stay in ``blossomdual``, a dict in creation order, so every
  loop that networkx runs over its ``blossomdual`` or ``blossomparent`` dict
  visits blossoms in the same order;
- neighbors are visited in the caller's ``adj[v]`` order, which plays the
  part of networkx's adjacency order; the greedy stage's walk of the
  single-vertex list below visits them ascending instead, which is the
  same order when every ``adj[v]`` is ascending, as every caller's is;
- with ``negate`` every weight is read as its negation, in the greedy
  tight-edge test, every slack and the optimality check, so a minimizing
  caller passes its map as it is instead of a negated copy;
- the delta2 and delta3 scans over the vertices share one pass that keeps
  each one's first minimum, the scan loop's least-slack comparisons
  compute their slacks inline, and the internal ``assert`` checks are gone;
- ``leaves(b)`` keeps the list it builds until ``b``'s sub-blossoms
  change, and a build splices in the kept lists of the sub-blossoms, which
  keeps networkx's depth-first order.  ``add_blossom`` drops the list of the
  id it takes, and ``augment_blossom`` drops the list of every blossom whose
  sub-blossoms it rotates; those include every blossom around a rotated one,
  so no stale order survives;
- ``add_blossom`` scans a sub-blossom that has no best-edge list straight
  from its leaves' neighbor maps, taking each slack from the weight it
  iterates and building the edge tuple only for a new least-slack edge; an
  edge to a vertex inside the new blossom is skipped, as networkx skips it
  after swapping the ends.  Against networkx's one loop over a built edge
  list this is 3-4% faster per call on dense parity graphs;
- until the duals first move, a stage first looks for the first ``w`` in
  ``adj[v]``, for ``v`` the highest single vertex, that is single and joined
  to ``v`` by an edge of the largest weight; if there is one, the stage just
  matches ``v`` with ``w``.  That is the outcome of the full stage.  The
  single vertices are kept in an ascending list, rebuilt after each lean
  stage, so ``v`` is its last entry; when the list is shorter than
  ``adj[v]``, the stage walks the list instead, which on an ascending map
  finds the same ``w``.  Both walks stay because each is the faster one
  on some inputs: walking only the map is 9-30% slower per call on the
  dense planted graphs, and walking only the list 6% slower on sparse
  random ones.
  Before any dual move every vertex dual equals the largest weight and no
  blossom is live, so the stage labels every single vertex S and scans
  the highest, ``v``, first; only edges of the largest weight are tight.
  During that scan it can augment only over a tight edge to another
  single vertex, which it does at the first one; every vertex it labels
  on the way is reached from ``v``, so a blossom it forms has base ``v``
  and dual zero, the augmentation leaves its inside as it is, and the end
  of the stage expands it.  Skipping those blossoms changes which free
  ids later blossoms take, but ids only name blossoms: every loop over
  live blossoms runs in creation order.  Without such a ``w`` the full
  stage runs from the untouched state;
- until the duals first move, every stage is also lean: ``add_blossom``
  returns once the new blossom's leaves are relabeled, with no least-slack
  merge and no ``mybestedges`` or ``bestedge`` entry for the new blossom;
  the scan loop still keeps its own ``bestedge``.  Those lists feed only the
  dual step and later merges in the same stage.  No blossom is live when
  such a stage starts and each one it forms has dual zero, so a stage that
  augments expands them all at its end, unread, and its mates are
  networkx's.  A lean stage that runs dry without a blossom is networkx's
  stage as it stands and goes on to the dual step.  One that formed
  blossoms, all its own, undoes them: every vertex is its own top-level
  blossom again, the ids go back to the free pool in the order they came
  out, and the stage runs again with the merge, without the greedy step,
  which found nothing;
- the largest weight as read, networkx's ``maxweight``, is the caller's
  ``top``, not a pass over every neighbor map.

Every stage, scan and delta loop therefore breaks ties as networkx does, and
on the same graph (same node order, same integer weights, neighbors
ascending) the matching is networkx's own.  ``expand_blossom`` and
``augment_blossom`` share one copy of networkx's trampoline,
``_trampoline``, so nesting depth is not bounded by the interpreter's
recursion limit.  The optimality check stays: the engine hands its final
duals to ``certificates.check_optimum`` as a ``MatchingDuals`` record.

The networkx original is distributed under the 3-clause BSD license:

    Copyright (c) 2004-2025, NetworkX Developers
    Aric Hagberg <hagberg@lanl.gov>
    Dan Schult <dschult@colgate.edu>
    Pieter Swart <swart@lanl.gov>
    All rights reserved.

    Redistribution and use in source and binary forms, with or without
    modification, are permitted provided that the following conditions are
    met:

      * Redistributions of source code must retain the above copyright
        notice, this list of conditions and the following disclaimer.

      * Redistributions in binary form must reproduce the above
        copyright notice, this list of conditions and the following
        disclaimer in the documentation and/or other materials provided
        with the distribution.

      * Neither the name of the NetworkX Developers nor the names of its
        contributors may be used to endorse or promote products derived
        from this software without specific prior written permission.

    THIS SOFTWARE IS PROVIDED BY THE COPYRIGHT HOLDERS AND CONTRIBUTORS
    "AS IS" AND ANY EXPRESS OR IMPLIED WARRANTIES, INCLUDING, BUT NOT
    LIMITED TO, THE IMPLIED WARRANTIES OF MERCHANTABILITY AND FITNESS FOR
    A PARTICULAR PURPOSE ARE DISCLAIMED. IN NO EVENT SHALL THE COPYRIGHT
    OWNER OR CONTRIBUTORS BE LIABLE FOR ANY DIRECT, INDIRECT, INCIDENTAL,
    SPECIAL, EXEMPLARY, OR CONSEQUENTIAL DAMAGES (INCLUDING, BUT NOT
    LIMITED TO, PROCUREMENT OF SUBSTITUTE GOODS OR SERVICES; LOSS OF USE,
    DATA, OR PROFITS; OR BUSINESS INTERRUPTION) HOWEVER CAUSED AND ON ANY
    THEORY OF LIABILITY, WHETHER IN CONTRACT, STRICT LIABILITY, OR TORT
    (INCLUDING NEGLIGENCE OR OTHERWISE) ARISING IN ANY WAY OUT OF THE USE
    OF THIS SOFTWARE, EVEN IF ADVISED OF THE POSSIBILITY OF SUCH DAMAGE.
"""

from __future__ import annotations

from typing import Callable, Iterator, Mapping, Sequence

from .certificates import MatchingDuals, check_optimum


def _trampoline(step: Callable[..., Iterator[tuple]], *args) -> None:
    """Run the recursion ``step(*args)`` on an explicit stack: each argument
    tuple the generator yields is a recursive call, run to its end before
    the generator resumes."""
    stack = [step(*args)]
    while stack:
        for args in stack[-1]:
            stack.append(step(*args))
            break
        else:
            stack.pop()


def max_weight_matching(adj: Sequence[Mapping[int, int]], top: int, *,
                        negate: bool = False) -> tuple[list[int], MatchingDuals]:
    """A maximum-cardinality matching of maximum total weight.

    ``adj[v]`` maps each neighbor ``w`` of vertex ``v`` to the integer weight
    of edge ``vw``; it must be symmetric and have no self-loops.  The result
    is networkx's matching on the same graph, edge for edge, when every
    ``adj[v]`` lists its neighbors ascending; in any other order it is still
    a maximum-cardinality matching of maximum weight, checked as always,
    but ties may break differently.  With
    ``negate`` every weight is read as its negation, so the matching is the
    one the negated ``adj`` would give.  ``top`` must be ``max(0, largest
    weight as read)``, networkx's ``maxweight``: the initial duals and the
    optimality check rely on it.  ``adj`` is only read.  Returns the pair
    ``(mate, duals)``: ``mate[v]`` is ``v``'s partner, or -1 if ``v`` is
    single, and ``duals`` the ``MatchingDuals`` that ``check_optimum`` passed.
    """
    n = len(adj)
    if n == 0:
        return [], MatchingDuals([], [])
    nb = 2 * n      # vertex ids 0..n-1, blossom ids n..2n-1
    # Every weight is read as sign * wt; tw = 2 * sign scales it in a slack.
    sign = -1 if negate else 1
    tw = 2 * sign

    # mate[v] is v's partner, or -1 if v is single.
    mate = [-1] * n
    # label[b] of a top-level blossom b: 0 free, 1 S, 2 T (5 is a
    # breadcrumb of scan_blossom).  label[v] of a vertex inside a T-blossom
    # is 2 iff v is reachable from an S-vertex outside the blossom.
    label = [0] * nb
    # labeledge[b] = (v, w), the edge through which b got its label, with w
    # in b; None if b's base is single.  Likewise for reached vertices in a
    # T-blossom.
    labeledge: list[tuple[int, int] | None] = [None] * nb
    # inblossom[v] is the top-level blossom containing vertex v.
    inblossom = list(range(n))
    # blossomparent[b] is b's immediate parent blossom, or -1 at top level.
    blossomparent = [-1] * nb
    # blossombase[b] is the base vertex of (sub-)blossom b.
    blossombase = list(range(n)) + [-1] * n
    # bestedge[w] of a free vertex (or unreached vertex in a T-blossom) is
    # the least-slack edge from an S-vertex; bestedge[b] of a top-level
    # S-blossom is its least-slack edge to a different S-blossom.
    bestedge: list[tuple[int, int] | None] = [None] * nb
    # dualvar[v] = 2 u(v), so that all duals stay integers.
    dualvar = [top] * n
    # blossomdual[b] = z(b) of each live non-trivial blossom, in creation
    # order: this dict is also the live-blossom list.
    blossomdual: dict[int, int] = {}
    # Per blossom: sub-blossoms from the base round the cycle, connecting
    # edges (childedges[b][i] joins childs[b][i] to childs[b][i+1]), and,
    # for a top-level S-blossom, least-slack edges to neighboring
    # S-blossoms (None if not computed yet).  A blossom's childs and
    # childedges are set when it forms and only ever replaced, so the
    # shared empty list placed first is never read or changed.
    childs: list[list[int]] = [[]] * nb
    childedges: list[list[tuple[int, int]]] = [[]] * nb
    mybestedges: list[list[tuple[int, int]] | None] = [None] * nb
    unused = list(range(nb - 1, n - 1, -1))
    # leafcache[b] is leaves(b), or None until it is asked for after b's
    # childs last changed.  Callers only read the list.
    leafcache: list[list[int] | None] = [None] * nb
    # Edges (v, w) known to have zero slack, encoded as v * n + w, with
    # both orientations present.
    allowedge: set[int] = set()
    queue: list[int] = []

    def leaves(b: int) -> list[int]:
        # The leaf vertices of blossom b, in networkx's order: a depth-first
        # walk from the last child, splicing in the cached lists of
        # sub-blossoms, which hold the same walk of each.
        out = leafcache[b]
        if out is None:
            out = []
            stack = childs[b][:]
            while stack:
                t = stack.pop()
                if t < n:
                    out.append(t)
                elif leafcache[t] is not None:
                    out += leafcache[t]
                else:
                    stack.extend(childs[t])
            leafcache[b] = out
        return out

    def slack(v: int, w: int) -> int:
        # 2 * slack of edge vw (not valid inside blossoms).
        return dualvar[v] + dualvar[w] - tw * adj[v][w]

    def assign_label(w: int, t: int, v: int) -> None:
        # Label the top-level blossom containing w with t, reached from v.
        # A T label hands S to its base's mate, one level deep, so this is a
        # loop: a closure that called itself would keep a reference cycle.
        while True:
            b = inblossom[w]
            label[w] = label[b] = t
            labeledge[w] = labeledge[b] = (v, w)
            bestedge[w] = bestedge[b] = None
            if t == 1:
                # b became an S-blossom: queue its vertices.
                if b >= n:
                    queue.extend(leaves(b))
                else:
                    queue.append(b)
                return
            # b became a T-blossom: its base's mate becomes S.
            v = blossombase[b]
            w, t = mate[v], 1

    def scan_blossom(v: int, w: int) -> int:
        # Trace back from v and w; the base of a new blossom, or -1 if
        # the two paths end at different single vertices (augmenting path).
        path = []
        base = -1
        while v != -1:
            b = inblossom[v]
            if label[b] & 4:
                base = blossombase[b]
                break
            path.append(b)
            label[b] = 5
            if labeledge[b] is None:
                # The base of b is single; stop tracing this path.
                v = -1
            else:
                v = labeledge[b][0]
                b = inblossom[v]
                # b is a T-blossom; trace one more step back.
                v = labeledge[b][0]
            if w != -1:
                v, w = w, v
        for b in path:
            label[b] = 1
        return base

    def add_blossom(base: int, v: int, w: int) -> None:
        # New S-blossom with the given base, through S-vertices v and w.
        bb = inblossom[base]
        bv = inblossom[v]
        bw = inblossom[w]
        b = unused.pop()
        blossombase[b] = base
        blossomparent[b] = -1
        blossomparent[bb] = b
        path = []
        edgs = [(v, w)]
        # Trace back from v to base.
        while bv != bb:
            blossomparent[bv] = b
            path.append(bv)
            edgs.append(labeledge[bv])
            v = labeledge[bv][0]
            bv = inblossom[v]
        path.append(bb)
        path.reverse()
        edgs.reverse()
        # Trace back from w to base.
        while bw != bb:
            blossomparent[bw] = b
            path.append(bw)
            le = labeledge[bw]
            edgs.append((le[1], le[0]))
            w = le[0]
            bw = inblossom[w]
        childs[b] = path
        childedges[b] = edgs
        leafcache[b] = None
        label[b] = 1
        labeledge[b] = labeledge[bb]
        blossomdual[b] = 0
        # T-vertices turn into S-vertices as part of an S-blossom.
        for v in leaves(b):
            if label[inblossom[v]] == 2:
                queue.append(v)
            inblossom[v] = b
        if lean:
            return
        # Least-slack edges to other S-blossoms, from the sub-blossoms'
        # lists where they exist and from the vertices otherwise.
        bestedgeto: dict[int, tuple[int, int]] = {}
        for bv in path:
            if mybestedges[bv] is not None:
                for k in mybestedges[bv]:
                    i, j = k
                    if inblossom[j] == b:
                        i, j = j, i
                    bj = inblossom[j]
                    if (bj != b and label[bj] == 1 and (
                            bj not in bestedgeto or slack(i, j) < slack(*bestedgeto[bj]))):
                        bestedgeto[bj] = k
                mybestedges[bv] = None
            else:
                # Straight from the leaves' neighbor maps: every leaf is in
                # b now, so an edge to a vertex in b is internal and skipped.
                for i in (leaves(bv) if bv >= n else (bv,)):
                    di = dualvar[i]
                    for j, wt in adj[i].items():
                        bj = inblossom[j]
                        if bj != b and label[bj] == 1 and (
                                bj not in bestedgeto
                                or di + dualvar[j] - tw * wt < slack(*bestedgeto[bj])):
                            bestedgeto[bj] = (i, j)
            bestedge[bv] = None
        mybestedges[b] = list(bestedgeto.values())
        mybestedge = None
        for k in mybestedges[b]:
            kslack = slack(*k)
            if mybestedge is None or kslack < mybestslack:
                mybestedge = k
                mybestslack = kslack
        bestedge[b] = mybestedge

    def expand_blossom(b: int, endstage: bool) -> None:
        # Turn the sub-blossoms of top-level blossom b into top-level
        # blossoms, yielding the sub-blossoms to expand recursively.

        def _recurse(b: int, endstage: bool):
            for s in childs[b]:
                blossomparent[s] = -1
                if s >= n:
                    if endstage and blossomdual[s] == 0:
                        yield (s, endstage)
                    else:
                        for v in leaves(s):
                            inblossom[v] = s
                else:
                    inblossom[s] = s
            # A T-blossom expanded during a stage has its sub-blossoms
            # relabeled, from the one it got its label through round to
            # the base.
            if not endstage and label[b] == 2:
                ch = childs[b]
                ce = childedges[b]
                entrychild = inblossom[labeledge[b][1]]
                j = ch.index(entrychild)
                if j & 1:
                    # Odd start: go forward and wrap.
                    j -= len(ch)
                    jstep = 1
                else:
                    # Even start: go backward.
                    jstep = -1
                v, w = labeledge[b]
                while j != 0:
                    # Relabel the T-sub-blossom.
                    if jstep == 1:
                        p, q = ce[j]
                    else:
                        q, p = ce[j - 1]
                    label[w] = 0
                    label[q] = 0
                    assign_label(w, 2, v)
                    # Step to the next S-sub-blossom and note its forward edge.
                    allowedge.add(p * n + q)
                    allowedge.add(q * n + p)
                    j += jstep
                    if jstep == 1:
                        v, w = ce[j]
                    else:
                        w, v = ce[j - 1]
                    # Step to the next T-sub-blossom.
                    allowedge.add(v * n + w)
                    allowedge.add(w * n + v)
                    j += jstep
                # Relabel the base T-sub-blossom without stepping through to
                # its mate.
                bw = ch[j]
                label[w] = label[bw] = 2
                labeledge[w] = labeledge[bw] = (v, w)
                bestedge[bw] = None
                # Continue round to entrychild, labeling T any sub-blossom
                # reachable from an S-vertex outside the expanding blossom.
                j += jstep
                while ch[j] != entrychild:
                    bv = ch[j]
                    if label[bv] == 1:
                        # It just got label S through a neighbor; leave it.
                        j += jstep
                        continue
                    if bv >= n:
                        for v in leaves(bv):
                            if label[v]:
                                break
                    else:
                        v = bv
                    if label[v]:
                        label[v] = 0
                        label[mate[blossombase[bv]]] = 0
                        assign_label(v, 2, labeledge[v][0])
                    j += jstep
            # Remove the expanded blossom entirely.
            label[b] = 0
            labeledge[b] = None
            bestedge[b] = None
            blossomparent[b] = -1
            blossombase[b] = -1
            del blossomdual[b]
            unused.append(b)

        _trampoline(_recurse, b, endstage)

    def augment_blossom(b: int, v: int) -> None:
        # Swap matched and unmatched edges on the alternating path through
        # blossom b from vertex v to the base, with the same trampoline.

        def _recurse(b: int, v: int):
            # Bubble up from v to an immediate sub-blossom of b.
            t = v
            while blossomparent[t] != b:
                t = blossomparent[t]
            if t >= n:
                yield (t, v)
            ch = childs[b]
            ce = childedges[b]
            i = j = ch.index(t)
            if i & 1:
                # Odd start: go forward and wrap.
                j -= len(ch)
                jstep = 1
            else:
                # Even start: go backward.
                jstep = -1
            while j != 0:
                # Step to the next sub-blossom and augment it.
                j += jstep
                t = ch[j]
                if jstep == 1:
                    w, x = ce[j]
                else:
                    x, w = ce[j - 1]
                if t >= n:
                    yield (t, w)
                # Step to the next sub-blossom and augment it.
                j += jstep
                t = ch[j]
                if t >= n:
                    yield (t, x)
                # Match the edge connecting those sub-blossoms.
                mate[w] = x
                mate[x] = w
            # Rotate the sub-blossoms so the new base comes first.  Every
            # blossom that holds b is rotated too, on the way down here, so
            # clearing each rotated blossom's cache leaves no stale list.
            childs[b] = ch[i:] + ch[:i]
            childedges[b] = ce[i:] + ce[:i]
            leafcache[b] = None
            blossombase[b] = blossombase[childs[b][0]]

        _trampoline(_recurse, b, v)

    def augment_matching(v: int, w: int) -> None:
        # Augment along the path through S-vertices v and w between two
        # single vertices.
        for s, j in ((v, w), (w, v)):
            while True:
                bs = inblossom[s]
                if bs >= n:
                    augment_blossom(bs, s)
                mate[s] = j
                if labeledge[bs] is None:
                    # Reached a single vertex.
                    break
                t = labeledge[bs][0]
                bt = inblossom[t]
                s, j = labeledge[bt]
                if bt >= n:
                    augment_blossom(bt, j)
                mate[j] = s

    blank_labels = [0] * nb
    blank_edges: list[None] = [None] * nb

    def start_stage() -> None:
        # Clear the labels, then single vertices become S and enter the
        # queue with no source edge (labeledge and bestedge are None).
        label[:] = blank_labels
        labeledge[:] = blank_edges
        bestedge[:] = blank_edges
        for b in blossomdual:
            mybestedges[b] = None
        allowedge.clear()
        queue.clear()
        for v in range(n):
            if mate[v] == -1:
                b = inblossom[v]
                if label[b] == 0:
                    label[v] = label[b] = 1
                    if b >= n:
                        queue.extend(leaves(b))
                    else:
                        queue.append(b)

    # Set until a stage first runs dry, just before the duals first move;
    # until then a stage may be greedy, and is lean (see the module
    # docstring).
    lean = True
    # The single vertices, ascending, while the greedy stages run: rebuilt
    # after each lean stage.
    singles = list(range(n))
    # The stored weight that reads as top.
    tightweight = sign * top
    while True:
        if lean:
            # A greedy stage (see the module docstring): match the highest
            # single vertex to its first single neighbor over a tight edge,
            # walking its neighbor map or the single list, whichever is
            # shorter.  The two agree when the map is ascending.
            if len(singles) > 1:
                v = singles[-1]
                adjv = adj[v]
                if len(adjv) <= len(singles):
                    w = next((w for w, wt in adjv.items()
                              if wt == tightweight and mate[w] == -1), -1)
                else:
                    w = next((w for w in singles if adjv.get(w) == tightweight), -1)
                if w != -1:
                    mate[v] = w
                    mate[w] = v
                    singles.pop()
                    singles.remove(w)
                    continue

        # A stage: find one augmenting path.
        start_stage()
        augmented = False
        while True:
            # A substage: label until an augmenting path turns up or the
            # queue runs dry, then move the duals.
            while queue and not augmented:
                v = queue.pop()
                bv = inblossom[v]
                adjv = adj[v]
                dv = dualvar[v]
                for w, wt in adjv.items():
                    bw = inblossom[w]
                    if bv == bw:
                        # Internal to a blossom.
                        continue
                    allowed = v * n + w in allowedge
                    if not allowed:
                        kslack = dv + dualvar[w] - tw * wt
                        if kslack <= 0:
                            allowedge.add(v * n + w)
                            allowedge.add(w * n + v)
                            allowed = True
                    if allowed:
                        lbw = label[bw]
                        if lbw == 0:
                            # (C1) w is free: w becomes T, its mate S.
                            assign_label(w, 2, v)
                        elif lbw == 1:
                            # (C2) w is an S-vertex in another blossom.
                            base = scan_blossom(v, w)
                            if base != -1:
                                add_blossom(base, v, w)
                                bv = inblossom[v]
                            else:
                                augment_matching(v, w)
                                augmented = True
                                break
                        elif label[w] == 0:
                            # w is in a T-blossom and not reached yet: mark
                            # it reached for relabeling on expansion.
                            label[w] = 2
                            labeledge[w] = (v, w)
                    elif label[bw] == 1:
                        # Least-slack edge to a different S-blossom.
                        be = bestedge[bv]
                        if be is None or kslack < (dualvar[be[0]] + dualvar[be[1]]
                                                   - tw * adj[be[0]][be[1]]):
                            bestedge[bv] = (v, w)
                    elif label[w] == 0:
                        # Least-slack edge to a vertex not reachable yet.
                        be = bestedge[w]
                        if be is None or kslack < (dualvar[be[0]] + dualvar[be[1]]
                                                   - tw * adj[be[0]][be[1]]):
                            bestedge[w] = (v, w)

            if augmented:
                break

            if lean:
                # The first dry stage.  Without blossoms it is networkx's
                # stage; with them, all formed in this stage, undo them and
                # run it again with the merge.
                lean = False
                if blossomdual:
                    unused.extend(reversed(blossomdual))
                    blossomdual.clear()
                    inblossom[:] = range(n)
                    blossomparent[:] = [-1] * nb
                    blossombase[n:] = [-1] * n
                    leafcache[n:] = [None] * n
                    start_stage()
                    continue

            # No augmenting path under these constraints: compute delta
            # (pre-multiplied by two, as the duals are).
            deltatype = -1
            delta = 0
            deltaedge = None
            deltablossom = -1

            # delta2: least slack of an edge from an S-vertex to a free one;
            # delta3: half the least slack of an edge between S-blossoms,
            # over top-level vertices and then blossoms in creation order.
            # One pass over the vertices keeps the first minimum of each; a
            # delta3 candidate then wins only below delta2, as in two passes.
            delta3 = -1
            edge3 = None
            for v in range(n):
                be = bestedge[v]
                if be is not None:
                    lb = label[inblossom[v]]
                    if lb == 0:
                        d = slack(*be)
                        if deltatype == -1 or d < delta:
                            delta = d
                            deltatype = 2
                            deltaedge = be
                    elif lb == 1 and blossomparent[v] == -1:
                        d = slack(*be) // 2
                        if edge3 is None or d < delta3:
                            delta3 = d
                            edge3 = be
            if edge3 is not None and (deltatype == -1 or delta3 < delta):
                delta = delta3
                deltatype = 3
                deltaedge = edge3
            for b in blossomdual:
                be = bestedge[b]
                if be is not None and blossomparent[b] == -1 and label[b] == 1:
                    d = slack(*be) // 2
                    if deltatype == -1 or d < delta:
                        delta = d
                        deltatype = 3
                        deltaedge = be

            # delta4: least z of a T-blossom.
            for b, z in blossomdual.items():
                if (blossomparent[b] == -1 and label[b] == 2
                        and (deltatype == -1 or z < delta)):
                    delta = z
                    deltatype = 4
                    deltablossom = b

            if deltatype == -1:
                # Max-cardinality optimum reached: a last dual update makes
                # it verifiable.
                deltatype = 1
                delta = max(0, min(dualvar))

            for v in range(n):
                lb = label[inblossom[v]]
                if lb == 1:
                    dualvar[v] -= delta
                elif lb == 2:
                    dualvar[v] += delta
            for b in blossomdual:
                if blossomparent[b] == -1:
                    if label[b] == 1:
                        blossomdual[b] += delta
                    elif label[b] == 2:
                        blossomdual[b] -= delta

            if deltatype == 1:
                break
            elif deltatype == 2 or deltatype == 3:
                # Continue the search through the least-slack edge.
                v, w = deltaedge
                allowedge.add(v * n + w)
                allowedge.add(w * n + v)
                queue.append(v)
            else:
                expand_blossom(deltablossom, False)

        if not augmented:
            break
        if lean:
            singles = [v for v in singles if mate[v] == -1]

        # End of a stage: expand the S-blossoms whose dual is zero.  Only
        # sub-blossoms, listed before their parent, are expanded with it.
        for b in list(blossomdual):
            if blossomparent[b] == -1 and label[b] == 1 and blossomdual[b] == 0:
                expand_blossom(b, True)

    duals = MatchingDuals(dualvar, [(z, leaves(b)) for b, z in blossomdual.items() if z])
    check_optimum(adj, mate, duals, sign, top)
    return mate, duals

