"""Core types: red/blue edge-colored graphs, perfect matchings, alternating cycles.

Vertices are 0-based integers and an undirected edge is always stored as the
canonical ``(min, max)`` pair.  All types here are immutable value objects;
operations are pure functions, so instances can be shared freely between
threads.  A graph's one cached structure, the neighbor index
(``ColoredGraph.neighbor_index``), is built lazily on first access, in one
pass over the sorted edge map ``colors``, and never mutated afterwards.  Two
threads that reach it first at the same time at worst both build it, and one
copy wins.

The central weight scheme, relative to a reference perfect matching M:
blue edges weigh 0, red matching edges weigh -1, red non-matching edges
weigh +1.  Under it, ``r(M') = r(M) + w(M symdiff M')`` for any two perfect
matchings, where r counts red edges.  ``closed_walk`` is the one reader and
checker of an alternating cycle: ``AlternatingCycle.from_vertices`` and the
skip and biskip searches all get the cycle, or its ``GraphError``, from it.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Iterable, Iterator, Mapping, Sequence

RED = "red"
BLUE = "blue"
COLORS = frozenset({RED, BLUE})

Edge = tuple[int, int]


class GraphError(ValueError):
    """Malformed graph, edge, matching, or cycle input."""


def edge_key(u: int, v: int) -> Edge:
    """Canonical ``(min, max)`` form of an undirected edge."""
    if u == v:
        raise GraphError(f"self-loop at vertex {u}")
    return (u, v) if u < v else (v, u)


@dataclass(frozen=True)
class ColoredGraph:
    """A simple undirected graph whose every edge is red or blue.

    Parameters
    ----------
    n:
        Number of vertices; vertices are ``0 .. n-1``.
    colors:
        Mapping from canonical edge to ``"red"`` or ``"blue"``.
    bipartition:
        Optional pair ``(side_a, side_b)`` of disjoint vertex sets covering
        all vertices.  When present, every edge must cross it.  Solvers use
        its presence to select the bipartite code path.
    """

    n: int
    colors: Mapping[Edge, str]
    bipartition: tuple[frozenset[int], frozenset[int]] | None = None

    def __post_init__(self) -> None:
        if self.n < 0:
            raise GraphError(f"vertex count must be >= 0, got {self.n}")
        object.__setattr__(self, "colors", dict(sorted(self.colors.items())))
        for e, c in self.colors.items():
            u, v = e
            if not (0 <= u < v < self.n):
                raise GraphError(f"edge {e} is not canonical or out of range for n={self.n}")
            if c not in COLORS:
                raise GraphError(f"edge {e} has unknown color {c!r}")
        if self.bipartition is not None:
            a, b = self.bipartition
            a, b = frozenset(a), frozenset(b)
            object.__setattr__(self, "bipartition", (a, b))
            if a & b:
                raise GraphError(f"bipartition sides overlap on {sorted(a & b)}")
            # Disjoint sides cover range(n) only if their sizes add up to n;
            # testing that first builds no vertex set for a huge n.
            if len(a) + len(b) != self.n:
                raise GraphError(f"bipartition does not cover the vertex set exactly "
                                 f"(its sides hold {len(a) + len(b)} vertices, n={self.n})")
            if a | b != frozenset(range(self.n)):
                missing = sorted(set(range(self.n)) - (a | b))
                extra = sorted((a | b) - set(range(self.n)))
                raise GraphError(f"bipartition does not cover the vertex set exactly "
                                 f"(missing {missing}, extra {extra})")
            for u, v in self.colors:
                if (u in a) == (v in a):
                    raise GraphError(f"edge ({u}, {v}) does not cross the bipartition")

    @classmethod
    def from_edges(
        cls,
        n: int,
        edges: Iterable[tuple[int, int, str]],
        bipartition: tuple[Iterable[int], Iterable[int]] | None = None,
    ) -> "ColoredGraph":
        """Build a graph from ``(u, v, color)`` triples, canonicalizing edges."""
        colors: dict[Edge, str] = {}
        for u, v, c in edges:
            e = edge_key(u, v)
            if e in colors:
                raise GraphError(f"duplicate edge ({u}, {v})")
            colors[e] = c
        return cls(n, colors, bipartition)

    # -- queries ------------------------------------------------------------

    @property
    def m(self) -> int:
        return len(self.colors)

    def edges(self) -> list[Edge]:
        """All edges, sorted."""
        return list(self.colors)

    def has_edge(self, u: int, v: int) -> bool:
        return ((u, v) if u < v else (v, u)) in self.colors

    def color(self, e: Edge) -> str:
        try:
            return self.colors[e]
        except KeyError:
            raise GraphError(f"unknown edge {e}") from None

    @cached_property
    def neighbor_index(self) -> tuple[dict[int, int], ...]:
        """For each vertex, a map from every neighbor to 1 if the edge is red
        and 0 if it is blue.

        The maps are filled in the sorted order of ``colors``, so each lists
        its neighbors ascending.  That order fixes the tie-breaks of the
        blossom engine.  Built on first access.  Shared and read-only:
        callers must copy before changing anything.
        """
        index: tuple[dict[int, int], ...] = tuple({} for _ in range(self.n))
        for (u, v), c in self.colors.items():
            index[u][v] = index[v][u] = 1 if c == RED else 0
        return index


@dataclass(frozen=True)
class PerfectMatching:
    """A perfect matching together with its red-edge count."""

    edges: frozenset[Edge]
    red_count: int

    @classmethod
    def from_edges(cls, graph: ColoredGraph, edges: Iterable[tuple[int, int]]) -> "PerfectMatching":
        """Validate ``edges``, each listed once, as a perfect matching of
        ``graph`` and count reds."""
        canon: set[Edge] = set()
        for u, v in edges:
            e = edge_key(u, v)
            if e in canon:
                raise GraphError(f"edge {e} is listed twice in the matching")
            canon.add(e)
        if not validate_matching(graph, canon):
            raise GraphError("edge set is not a perfect matching of the graph")
        reds = sum(1 for e in canon if graph.colors[e] == RED)
        return cls(frozenset(canon), reds)

    def sorted_edges(self) -> list[Edge]:
        return sorted(self.edges)

    def __contains__(self, e: Edge) -> bool:
        return e in self.edges

    def __len__(self) -> int:
        return len(self.edges)


def validate_matching(graph: ColoredGraph, matching: Iterable[tuple[int, int]] | PerfectMatching) -> bool:
    """True iff ``matching`` is a perfect matching of ``graph``.

    Total: returns False rather than raising on structural violations
    (unknown edges, repeated vertices, uncovered vertices).
    """
    if isinstance(matching, PerfectMatching):
        edges: Iterable[tuple[int, int]] = matching.edges
    else:
        edges = matching
    seen: set[int] = set()
    count = 0
    for u, v in edges:
        e = (u, v) if u < v else (v, u)
        if e not in graph.colors:
            return False
        if e[0] in seen or e[1] in seen:
            return False
        seen.update(e)
        count += 1
    return count * 2 == graph.n


def edge_weight(graph: ColoredGraph, matching: PerfectMatching, e: Edge) -> int:
    """Weight of one edge relative to a reference matching.

    Blue edges weigh 0; a red edge weighs -1 inside the matching and +1
    outside it.
    """
    if graph.color(e) == BLUE:
        return 0
    return -1 if e in matching.edges else 1


def matching_parity(edges: Sequence[Edge], matching: PerfectMatching) -> int | None:
    """``par`` such that edge i of the closed walk ``edges`` is in
    ``matching`` exactly when ``i % 2 == par``, or None if the walk does not
    alternate with ``matching``.  Edge 0 fixes ``par``; the walk then
    alternates when it is even and holds the matching edges at positions
    ``par``, ``par + 2``, ... and no others.  Membership is read by C-level
    set comparisons.
    """
    par = 0 if edges and edges[0] in matching.edges else 1
    if (len(edges) % 2 == 0 and matching.edges.issuperset(edges[par::2])
            and matching.edges.isdisjoint(edges[1 - par::2])):
        return par
    return None


def closed_walk(
    graph: ColoredGraph, matching: PerfectMatching, vertices: Sequence[int]
) -> tuple[list[Edge], list[str], int]:
    """Read the closed walk through ``vertices`` once and check that it is
    an alternating cycle of ``graph`` and ``matching``.

    Edge i joins ``vertices[i]`` and ``vertices[i+1]`` (cyclically).
    Raises ``GraphError``, in this order, for fewer than 4 or an odd number
    of vertices, a repeated vertex, an edge missing from the graph (the
    first along ``vertices``, a vertex outside the graph included), and a
    walk that does not alternate.  Returns each edge's canonical key and
    color, and the matching parity (``matching_parity``).  Keys are built
    once in Python; colors and membership are read from them by C-level
    lookups.
    """
    length = len(vertices)
    if length < 4 or length % 2:
        raise GraphError(f"alternating cycle needs even length >= 4, got {length}")
    if len(set(vertices)) < length:
        raise GraphError("cycle repeats a vertex")
    edges = [(u, v) if u < v else (v, u) for u, v in zip(vertices, vertices[1:] + vertices[:1])]
    colors = list(map(graph.colors.get, edges))
    if None in colors:
        raise GraphError(f"cycle uses unknown edge {edges[colors.index(None)]}")
    par = matching_parity(edges, matching)
    if par is None:
        raise GraphError("cycle does not alternate with the matching")
    return edges, colors, par


@dataclass(frozen=True)
class AlternatingCycle:
    """An even cycle alternating between matching and non-matching edges.

    ``vertices`` is the canonical rotation: it starts at the cycle's lowest
    vertex and proceeds toward that vertex's lower-indexed neighbor.
    ``edges[i]`` joins ``vertices[i]`` and ``vertices[i+1]`` (cyclically).
    ``weight`` is the total edge weight relative to the reference matching
    the cycle was built against.
    """

    vertices: tuple[int, ...]
    edges: tuple[Edge, ...]
    weight: int

    @classmethod
    def from_vertices(
        cls,
        graph: ColoredGraph,
        matching: PerfectMatching,
        vertices: Iterable[int],
    ) -> "AlternatingCycle":
        """The cycle through ``vertices``, in either direction and from any
        start, weighed against ``matching``.

        ``closed_walk`` reads and checks the walk as given.  The cycle keeps
        its canonical rotation, edges turned along, and with matching parity
        ``par`` its weight is the red edges off ``par`` minus those on it.
        """
        seq = list(vertices)
        edges, colors, par = closed_walk(graph, matching, seq)
        weight = colors[1 - par::2].count(RED) - colors[par::2].count(RED)
        # Start at the lowest vertex, toward the lower of its two neighbors;
        # walking backward from position i, edge j is edge i - 1 - j.
        i = seq.index(min(seq))
        if seq[(i + 1) % len(seq)] < seq[i - 1]:
            return cls(tuple(seq[i:] + seq[:i]), tuple(edges[i:] + edges[:i]), weight)
        return cls(tuple(seq[i::-1] + seq[:i:-1]), tuple(edges[i - 1::-1] + edges[:i - 1:-1]), weight)

    def __len__(self) -> int:
        return len(self.edges)

    def vertex_set(self) -> frozenset[int]:
        return frozenset(self.vertices)

    def edge_set(self) -> frozenset[Edge]:
        return frozenset(self.edges)


@dataclass(frozen=True)
class CycleSet:
    """Vertex-disjoint alternating cycles, ordered by their lowest vertex."""

    cycles: tuple[AlternatingCycle, ...]
    total_weight: int

    @classmethod
    def from_cycles(cls, cycles: Iterable[AlternatingCycle]) -> "CycleSet":
        cyc = sorted(cycles, key=lambda c: c.vertices[0])
        used: set[int] = set()
        for c in cyc:
            vs = c.vertex_set()
            if vs & used:
                raise GraphError(f"cycles share vertices {sorted(vs & used)}")
            used |= vs
        return cls(tuple(cyc), sum(c.weight for c in cyc))

    def edge_count(self) -> int:
        return sum(len(c) for c in self.cycles)

    def all_edges(self) -> frozenset[Edge]:
        out: set[Edge] = set()
        for c in self.cycles:
            out |= c.edge_set()
        return frozenset(out)

    def __len__(self) -> int:
        return len(self.cycles)

    def __iter__(self) -> Iterator[AlternatingCycle]:
        return iter(self.cycles)


def symmetric_difference(
    graph: ColoredGraph,
    matching: PerfectMatching,
    other: PerfectMatching,
) -> CycleSet:
    """Decompose ``matching symdiff other`` into alternating cycles.

    Weights are taken relative to ``matching`` (the first argument).  Total
    weight of the result equals ``other.red_count - matching.red_count``.
    Both arguments are checked first; each cycle then steps from a vertex
    to its mate in ``matching`` and on to that vertex's mate in ``other``.
    """
    for m in (matching, other):
        if not validate_matching(graph, m):
            raise GraphError("argument is not a perfect matching of the graph")
    first, second = [0] * graph.n, [0] * graph.n
    for mate, m in ((first, matching), (second, other)):
        for u, v in m.edges:
            mate[u], mate[v] = v, u
    cycles = []
    seen: set[int] = set()
    for start in range(graph.n):
        if start in seen or first[start] == second[start]:
            continue
        walk = [start, first[start]]
        while (v := second[walk[-1]]) != start:
            walk += (v, first[v])
        seen.update(walk)
        cycles.append(AlternatingCycle.from_vertices(graph, matching, walk))
    return CycleSet.from_cycles(cycles)


def apply_cycles(matching: PerfectMatching, cycle_set: CycleSet) -> PerfectMatching:
    """Flip every cycle of ``cycle_set`` on ``matching``.

    Each cycle must alternate relative to ``matching`` and the cycles must
    have been weighted against it; the result then is a perfect matching with
    ``red_count = matching.red_count + cycle_set.total_weight``.  Applying
    the same cycle set twice is the identity.
    """
    for c in cycle_set:
        if matching_parity(c.edges, matching) is None:
            raise GraphError(f"cycle at {c.vertices[0]} does not alternate "
                             f"with the matching being modified")
    new_edges = matching.edges ^ cycle_set.all_edges()
    if len(new_edges) != len(matching.edges):
        raise GraphError("cycle flip did not preserve matching size")
    return PerfectMatching(frozenset(new_edges), matching.red_count + cycle_set.total_weight)
