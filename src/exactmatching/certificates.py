"""The dual record that proves a matching optimal, and its check.

A maximum-cardinality matching has maximum weight exactly when a solution of
the dual of Edmonds' matching polytope (J. Edmonds, "Maximum matching and a
polyhedron with 0,1-vertices", J. Res. NBS 69B, 1965) meets it in
complementary slackness.  ``MatchingDuals`` is the blossom engine's final
solution.  ``check_optimum``, the one owner of the conditions, reads only
the weights, the matching and that record, and raises ``OptimalityError``,
not ``assert``.  It builds each vertex's chain of enclosing sets once, and
skips the per-edge slack pass at vertex ``i`` when ``vertex2[i] +
min(vertex2) - 2 * top >= 0``, a lower bound on every slack at ``i`` as no
weight exceeds ``top``; every condition is still checked.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Mapping, Sequence


class OptimalityError(RuntimeError):
    """The matching failed its dual optimality check: a bug, not bad input."""


@dataclass(frozen=True)
class MatchingDuals:
    """``vertex2[v]`` is 2 u(v), twice vertex ``v``'s dual, as the engine keeps
    it so that every dual stays an integer.  ``blossoms`` holds ``(z,
    vertices)`` for each blossom with a nonzero dual z = z(B), not doubled,
    in creation order, so each set comes after the sets it contains; any two
    are nested or disjoint.  Twice the slack of edge ij of weight w is
    vertex2[i] + vertex2[j] - 2 w + 2 z summed over the sets holding i and j,
    so a perfect matching M that the record proves optimal has 2 w(M) =
    sum(vertex2) + sum of z (|B| - 1).  The lists are the engine's: read only."""

    vertex2: Sequence[int]
    blossoms: Sequence[tuple[int, Sequence[int]]]


def check_optimum(adj: Sequence[Mapping[int, int]], mate: Sequence[int],
                  duals: MatchingDuals, sign: int, top: int) -> None:
    """Check that ``duals`` prove ``mate`` (partner or -1 per vertex) a
    maximum-weight maximum-cardinality matching of ``adj``, each weight read
    as ``sign`` times its value and none so read above ``top``.  Raises
    ``OptimalityError`` at the first condition that fails."""
    tw = 2 * sign
    vertex2, blossoms = duals.vertex2, duals.blossoms
    # Vertex duals may be negative: shift them all by one non-negative constant.
    mindual = min(vertex2, default=0)
    # Set duals are non-negative; a set with a positive dual is odd and full.
    for b, (z, vertices) in enumerate(blossoms):
        if z < 0:
            raise OptimalityError("negative blossom dual")
        if z > 0:
            if len(vertices) % 2 != 1:
                raise OptimalityError(f"blossom {b} has an even vertex count")
            inside = set(vertices)
            if sum(mate[v] in inside for v in vertices) != len(vertices) - 1:
                raise OptimalityError(f"blossom {b} is not full")
    for v, m in enumerate(mate):
        if m == -1:
            if vertex2[v] + max(0, -mindual) != 0:
                raise OptimalityError(f"single vertex {v} has nonzero dual")
        elif mate[m] != v or m not in adj[v]:
            raise OptimalityError(f"vertex {v} is matched to {m} one way or off the graph")
    # Each vertex's enclosing sets, outermost first.
    chains: list[tuple[int, ...]] = [()] * len(adj)
    for b in range(len(blossoms) - 1, -1, -1):
        for v in blossoms[b][1]:
            chains[v] += (b,)

    def edge_slack(i: int, j: int, wt: int) -> int:
        # 2 * slack of edge ij, with the duals of the sets around both.
        s = vertex2[i] + vertex2[j] - tw * wt
        for bi, bj in zip(chains[i], chains[j]):
            if bi != bj:
                break
            s += 2 * blossoms[bi][0]
        return s

    # Every edge has non-negative slack and every matched edge zero slack.
    # Set duals are non-negative, so when no edge at i has negative slack
    # without them, none has with them, and only then is each slack exact.
    for i, nbrs in enumerate(adj):
        if not nbrs:
            continue
        di = vertex2[i]
        if (di + mindual - 2 * top < 0
                and di + min([vertex2[j] - tw * wt for j, wt in nbrs.items()]) < 0):
            for j, wt in nbrs.items():
                if edge_slack(i, j, wt) < 0:
                    raise OptimalityError(f"edge ({i}, {j}) has negative slack")
        m = mate[i]
        if m != -1 and edge_slack(i, m, nbrs[m]) != 0:
            raise OptimalityError(f"matched edge ({i}, {m}) has nonzero slack")
