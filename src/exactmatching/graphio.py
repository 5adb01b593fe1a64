"""Reading and writing colored graphs (JSON and DOT), and reading matchings
(JSON).

JSON graph document::

    {"n": 4,
     "edges": [[0, 1, "red"], [1, 2, "blue"]],
     "bipartition": [[0, 2], [1, 3]]}      # optional

DOT uses undirected ``graph`` syntax (keywords in any case) with a ``color``
attribute per edge and, when a bipartition is present, a ``side`` attribute
(``"A"``/``"B"``) per node, given once.  A statement may carry several
attribute lists in a row.  Of the default-attribute statements, ``edge
[color=...]`` gives its color to later edges that carry none; ``graph
[...]`` and ``node [...]`` are ignored, except that a default ``side`` is
rejected, and so are ``ID = ID`` graph attributes.  Subgraphs, node sets
as edge ends and ports are outside this subset and raise ``ParseError``.
Every vertex is written as a node statement so isolated vertices
round-trip.  Unknown attributes are ignored on read and never emitted.

A matching document is a JSON list of ``[u, v]`` pairs.

Documents given as bytes are decoded as UTF-8 here and nowhere else.  Any
document that cannot be read raises ``ParseError``, including bytes that
are not UTF-8, JSON nested past the recursion limit, and an integer past
the interpreter's int-to-str digit limit.
"""

from __future__ import annotations

import json
import re

from .graphs import ColoredGraph, GraphError, PerfectMatching

JSON = "json"
DOT = "dot"
FORMATS = (JSON, DOT)


class ParseError(GraphError):
    """Input document could not be parsed; the message names the offending element."""


def parse_graph(data: str | bytes, format: str = JSON) -> ColoredGraph:
    data = _decoded(data, "graph document")
    if format == JSON:
        return _parse_json(data)
    if format == DOT:
        return _parse_dot(data)
    raise ParseError(f"unknown format {format!r} (expected one of {FORMATS})")


def serialize_graph(graph: ColoredGraph, format: str = JSON) -> str:
    if format == JSON:
        return _write_json(graph)
    if format == DOT:
        return _write_dot(graph)
    raise ParseError(f"unknown format {format!r} (expected one of {FORMATS})")


def parse_matching(data: str | bytes, graph: ColoredGraph) -> PerfectMatching:
    """Read a JSON list of edge pairs and validate it against ``graph``."""
    raw = _load_json(_decoded(data, "matching document"), "matching document")
    if not isinstance(raw, list):
        raise ParseError("matching document must be a JSON list of [u, v] pairs")
    edges = []
    for item in raw:
        if (not isinstance(item, list) or len(item) != 2
                or not all(type(x) is int for x in item)):
            raise ParseError(f"matching entry {item!r} is not an [u, v] pair of integers")
        edges.append((item[0], item[1]))
    return PerfectMatching.from_edges(graph, edges)


def _decoded(data: str | bytes, what: str) -> str:
    """``data`` as text, bytes decoded as UTF-8."""
    if isinstance(data, str):
        return data
    try:
        return data.decode("utf-8")
    except UnicodeDecodeError as exc:
        raise ParseError(f"{what} is not UTF-8: {exc}") from None


# -- JSON ---------------------------------------------------------------------


def _load_json(text: str, what: str):
    """``json.loads``, with each way it can reject a document raised as a
    ``ParseError``: invalid JSON, nesting past the recursion limit, and an
    integer literal over the interpreter's int-to-str digit limit."""
    try:
        return json.loads(text)
    except json.JSONDecodeError as exc:
        raise ParseError(f"{what} is not valid JSON: {exc}") from None
    except RecursionError:
        raise ParseError(f"{what} is nested too deeply") from None
    except ValueError as exc:
        raise ParseError(f"{what} has an integer too long to read: {exc}") from None


def _parse_json(text: str) -> ColoredGraph:
    doc = _load_json(text, "graph document")
    if not isinstance(doc, dict):
        raise ParseError("graph document must be a JSON object")
    if "n" not in doc or type(doc["n"]) is not int:
        raise ParseError('graph document needs an integer "n"')
    n = doc["n"]
    raw_edges = doc.get("edges", [])
    if not isinstance(raw_edges, list):
        raise ParseError('"edges" must be a list of [u, v, color] triples')
    triples = []
    for item in raw_edges:
        if (not isinstance(item, list) or len(item) != 3
                or type(item[0]) is not int or type(item[1]) is not int
                or not isinstance(item[2], str)):
            raise ParseError(f"edge entry {item!r} is not an [u, v, color] triple")
        triples.append((item[0], item[1], item[2]))
    bip = None
    if doc.get("bipartition") is not None:
        raw_bip = doc["bipartition"]
        if (not isinstance(raw_bip, list) or len(raw_bip) != 2
                or not all(isinstance(side, list) for side in raw_bip)):
            raise ParseError('"bipartition" must be a pair of vertex lists')
        seen: set[int] = set()
        for side in raw_bip:
            for v in side:
                if type(v) is not int:
                    raise ParseError(f"bipartition entry {v!r} is not an integer")
                if v in seen:
                    raise ParseError(f"bipartition names vertex {v} twice")
                seen.add(v)
        bip = (raw_bip[0], raw_bip[1])
    try:
        return ColoredGraph.from_edges(n, triples, bip)
    except GraphError as exc:
        raise ParseError(str(exc)) from None


def _write_json(graph: ColoredGraph) -> str:
    doc: dict = {
        "n": graph.n,
        "edges": [[u, v, c] for (u, v), c in graph.colors.items()],
    }
    if graph.bipartition is not None:
        doc["bipartition"] = [sorted(graph.bipartition[0]), sorted(graph.bipartition[1])]
    return json.dumps(doc)


# -- DOT ----------------------------------------------------------------------

# A quoted string is tried before the comment forms, so comment markers
# inside quotes stay part of the string.
_TOKEN = re.compile(
    r'"([^"]*)"|(/\*.*?\*/|//[^\n]*|#[^\n]*)|([A-Za-z_][A-Za-z_0-9]*|\d+)'
    r'|(--|->|[{}\[\];,=])|(\S)', re.S)


class _Quoted(str):
    """A quoted DOT ID, which is never a statement keyword."""


def _tokenize_dot(text: str) -> list[str]:
    tokens = []
    for match in _TOKEN.finditer(text):
        quoted, comment, word, sym, bad = match.groups()
        if bad is not None:
            raise ParseError(f"unexpected character {bad!r} in DOT input")
        if quoted is not None:
            tokens.append(_Quoted(quoted))
        elif word is not None:
            tokens.append(word)
        elif sym is not None:
            tokens.append(sym)
    return tokens


class _DotReader:
    def __init__(self, tokens: list[str]):
        self.tokens = tokens
        self.pos = 0

    def peek(self, ahead: int = 0) -> str | None:
        pos = self.pos + ahead
        return self.tokens[pos] if pos < len(self.tokens) else None

    def next(self) -> str:
        tok = self.peek()
        if tok is None:
            raise ParseError("unexpected end of DOT input")
        self.pos += 1
        return tok

    def expect(self, tok: str) -> None:
        got = self.next()
        if got != tok:
            raise ParseError(f"expected {tok!r} in DOT input, got {got!r}")


def _parse_dot(text: str) -> ColoredGraph:
    reader = _DotReader(_tokenize_dot(text))
    tok = reader.next()
    if tok.lower() == "strict":
        tok = reader.next()
    if tok.lower() == "digraph":
        raise ParseError("directed DOT graphs are not supported")
    if tok.lower() != "graph":
        raise ParseError(f"expected 'graph', got {tok!r}")
    if reader.peek() != "{":
        reader.next()  # optional graph name
    reader.expect("{")

    nodes: set[int] = set()
    sides: dict[int, str] = {}
    triples: list[tuple[int, int, str]] = []
    # The color set by the last `edge [color=...]` statement, if any.
    default_color: str | None = None

    def read_id() -> int:
        tok = reader.next()
        if not re.fullmatch(r"\d+", tok):
            raise ParseError(f"node id {tok!r} is not a non-negative integer")
        try:
            return int(tok)
        except ValueError as exc:       # past the int-to-str digit limit
            raise ParseError(f"node id of {len(tok)} digits is too long to read: {exc}") from None

    def read_attrs() -> dict[str, str]:
        attrs: dict[str, str] = {}
        while reader.peek() == "[":
            reader.next()
            while reader.peek() != "]":
                key = reader.next()
                reader.expect("=")
                attrs[key] = reader.next()
                if reader.peek() in (",", ";"):
                    reader.next()
            reader.expect("]")
        return attrs

    while True:
        tok = reader.peek()
        if tok is None:
            raise ParseError("unexpected end of DOT input (missing '}')")
        if tok == "}":
            reader.next()
            break
        if tok == ";":
            reader.next()
            continue
        if reader.peek(1) == "=":
            # A graph attribute `ID = ID`: nothing here reads it.
            reader.next()
            reader.next()
            reader.next()
            continue
        keyword = tok.lower()
        if keyword in ("graph", "node", "edge") and not isinstance(tok, _Quoted):
            # A default-attribute statement.
            reader.next()
            if reader.peek() != "[":
                raise ParseError(f"expected '[' after {tok!r} in DOT input")
            attrs = read_attrs()
            if keyword == "edge":
                default_color = attrs.get("color", default_color)
            elif "side" in attrs:
                raise ParseError(f"default {keyword} attribute 'side' is not supported;"
                                 " give each node its own side")
            continue
        u = read_id()
        nodes.add(u)
        chain = [u]
        while reader.peek() == "--":
            reader.next()
            v = read_id()
            nodes.add(v)
            chain.append(v)
        attrs = read_attrs()
        if len(chain) == 1:
            if "side" in attrs:
                if u in sides:
                    raise ParseError(f"node {u} is given a side twice")
                sides[u] = attrs["side"]
        else:
            color = attrs.get("color", default_color)
            if color is None:
                raise ParseError(f"edge {chain[0]}--{chain[1]} has no color attribute")
            for a, b in zip(chain, chain[1:]):
                triples.append((a, b, color))
    if reader.peek() is not None:
        raise ParseError(f"trailing content after '}}': {reader.peek()!r}")

    n = max(nodes) + 1 if nodes else 0
    bip = None
    if sides:
        for v, s in sides.items():
            if s not in ("A", "B"):
                raise ParseError(f"node {v} has unknown side {s!r}")
        if set(sides) != set(range(n)):
            raise ParseError("some nodes carry a side attribute but not all of them")
        bip = ([v for v in range(n) if sides[v] == "A"],
               [v for v in range(n) if sides[v] == "B"])
    try:
        return ColoredGraph.from_edges(n, triples, bip)
    except GraphError as exc:
        raise ParseError(str(exc)) from None


def _write_dot(graph: ColoredGraph) -> str:
    lines = ["graph colored {"]
    for v in range(graph.n):
        if graph.bipartition is not None:
            side = "A" if v in graph.bipartition[0] else "B"
            lines.append(f'  {v} [side="{side}"];')
        else:
            lines.append(f"  {v};")
    for (u, v), c in graph.colors.items():
        lines.append(f'  {u} -- {v} [color="{c}"];')
    lines.append("}")
    return "\n".join(lines) + "\n"
