import json
import re

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from exactmatching import (
    BLUE,
    RED,
    GraphError,
    ParseError,
    min_red_pm,
    parse_graph,
    parse_matching,
    random_bipartite_colored_graph,
    random_colored_graph,
    serialize_graph,
)
from exactmatching.graphio import DOT, FORMATS, JSON

DIRECTED = "directed DOT graphs are not supported"


def cases(pairs):
    """Parametrize over (text, message) pairs, each test named by its text."""
    return pytest.mark.parametrize("text, message", pairs, ids=[t for t, _ in pairs])


def test_formats_tuple():
    assert FORMATS == (JSON, DOT)


class TestJson:
    def test_parse_minimal(self):
        g = parse_graph('{"n": 2, "edges": [[1, 0, "red"]]}')
        assert g.n == 2
        assert g.edges() == [(0, 1)]
        assert g.colors == {(0, 1): RED}
        assert g.bipartition is None

    def test_parse_bipartition(self):
        g = parse_graph(
            '{"n": 2, "edges": [[0, 1, "blue"]], "bipartition": [[0], [1]]}')
        assert 0 in g.bipartition[0]
        assert 1 in g.bipartition[1]

    def test_parse_bytes(self):
        g = parse_graph(b'{"n": 2, "edges": []}')
        assert g.n == 2

    @cases([
        ("[1, 2]", "graph document must be a JSON object"),
        ('{"edges": []}', 'graph document needs an integer "n"'),
        ('{"n": "two", "edges": []}', 'graph document needs an integer "n"'),
        ('{"n": 2, "edges": [[0, 1]]}', "edge entry [0, 1] is not an [u, v, color] triple"),
        ('{"n": 2, "edges": [[0, 1, "red", 4]]}', "edge entry [0, 1, 'red', 4] is not"),
        ('{"n": 2, "edges": [[0, 1, "green"]]}', "edge (0, 1) has unknown color 'green'"),
        ('{"n": 2, "edges": [["a", 1, "red"]]}', "edge entry ['a', 1, 'red'] is not"),
        ('{"n": 4, "edges": [[0, true, "red"], [2, 3, "blue"]]}',
         "edge entry [0, True, 'red'] is not"),
        ('{"n": 2, "edges": [[false, 1, "red"]]}', "edge entry [False, 1, 'red'] is not"),
        ('{"n": 2, "edges": [[0, 1, "red"]], "bipartition": [[false], [1]]}',
         "bipartition entry False is not an integer"),
        ('{"n": 2, "edges": [], "bipartition": [[0]]}',
         '"bipartition" must be a pair of vertex lists'),
        ('{"n": 2, "edges": [[0, 1, "red"]], "bipartition": [[0, 0], [1]]}',
         "bipartition names vertex 0 twice"),
        ('{"n": 2, "edges": [[0, 1, "red"]], "bipartition": [[0], [1, 0]]}',
         "bipartition names vertex 0 twice"),
        ("{not json", "graph document is not valid JSON"),
        ('{"n": 2, "edges": {}}', '"edges" must be a list of [u, v, color] triples'),
    ])
    def test_parse_rejects(self, text, message):
        with pytest.raises(ParseError, match=re.escape(message)):
            parse_graph(text)

    def test_round_trip(self, c4):
        assert parse_graph(serialize_graph(c4)) == c4

    def test_round_trip_bipartite(self, k33):
        text = serialize_graph(k33)
        assert json.loads(text)["bipartition"] == [[0, 1, 2], [3, 4, 5]]
        assert parse_graph(text) == k33


class TestDot:
    def test_parse_basic(self):
        g = parse_graph(
            'graph { 0 -- 1 [color=red]; 1 -- 2 [color=blue]; }', DOT)
        assert g.n == 3
        assert g.colors == {(0, 1): RED, (1, 2): BLUE}

    def test_parse_chain_comments_quotes(self):
        text = """
        // a line comment
        graph sample {
            /* block
               comment */
            0 -- 1 -- 2 [color="red"];  # trailing comment
            3;
            "2" -- "3" [color=blue];
        }
        """
        g = parse_graph(text, DOT)
        assert g.n == 4
        assert g.colors == {(0, 1): RED, (1, 2): RED, (2, 3): BLUE}

    @pytest.mark.parametrize("name", ["http://example.org/g", "a#b", "/* c */"])
    def test_comment_markers_inside_quoted_names(self, name):
        g = parse_graph(f'graph "{name}" {{ 0 -- 1 [color=red]; }} // note', DOT)
        assert g.n == 2
        assert g.colors == {(0, 1): RED}

    def test_attribute_separators(self):
        g = parse_graph(
            'graph { 0 -- 1 [color=red, penwidth=2]; 2 -- 3 [penwidth=1; color=blue] }', DOT)
        assert g.colors == {(0, 1): RED, (2, 3): BLUE}

    @pytest.mark.parametrize("header", ["Graph", "GRAPH g", "Strict Graph", "strict GRAPH"])
    def test_keywords_in_any_case(self, header):
        g = parse_graph(header + ' { 0 -- 1 [color=red]; }', DOT)
        assert g.colors == {(0, 1): RED}

    def test_consecutive_attribute_lists(self):
        g = parse_graph('graph { 0 [side=A] [label=x]; 1 [side=B]; '
                        '0 -- 1 [color=red] [penwidth=2]; 2 -- 3 [penwidth=1][color=blue]; '
                        '2 [side=A]; 3 [side=B] }', DOT)
        assert g.colors == {(0, 1): RED, (2, 3): BLUE}
        assert g.bipartition == (frozenset({0, 2}), frozenset({1, 3}))

    @pytest.mark.parametrize("text", [
        'graph { node [shape=circle]; 0 -- 1 [color=red]; }',
        'graph { edge [color=red]; 0 -- 1; }',
    ])
    def test_default_attribute_statements(self, text):
        g = parse_graph(text, DOT)
        assert g.n == 2
        assert g.colors == {(0, 1): RED}

    def test_graph_defaults_and_attributes_ignored(self):
        g = parse_graph('graph { GRAPH [rankdir=LR] [label=x]; rankdir = LR; label="g"; '
                        'Node [shape=box]; 0 -- 1 [color=blue]; }', DOT)
        assert g.colors == {(0, 1): BLUE}

    def test_default_edge_color_reaches_only_later_edges(self):
        with pytest.raises(ParseError, match=re.escape("edge 0--1 has no color attribute")):
            parse_graph('graph { 0 -- 1; edge [color=red]; 2 -- 3; }', DOT)
        g = parse_graph('graph { 0 -- 1 [color=blue]; EDGE [color=red]; 2 -- 3 -- 4; '
                        'edge [penwidth=2]; 4 -- 5; }', DOT)
        assert g.colors == {(0, 1): BLUE, (2, 3): RED, (3, 4): RED, (4, 5): RED}

    def test_own_edge_color_overrides_default(self):
        g = parse_graph('graph { edge [color=red]; 0 -- 1 [color=blue]; 1 -- 2; '
                        'edge [color=blue]; 2 -- 3 [color=red]; 3 -- 4; }', DOT)
        assert g.colors == {(0, 1): BLUE, (1, 2): RED, (2, 3): RED, (3, 4): BLUE}

    def test_isolated_vertex_extends_n(self):
        g = parse_graph('graph { 0 -- 1 [color=red]; 5; }', DOT)
        assert g.n == 6

    def test_sides_build_bipartition(self):
        text = ('graph { 0 [side=A]; 1 [side=B]; 2 [side=A]; 3 [side=B]; '
                '0 -- 1 [color=red]; 2 -- 3 [color=blue]; }')
        g = parse_graph(text, DOT)
        assert g.bipartition is not None
        assert 2 in g.bipartition[0] and 3 in g.bipartition[1]

    @cases([
        ('digraph { 0 -- 1 [color=red]; }', DIRECTED),
        ('digraph { 0 -> 1 [color=red]; }', DIRECTED),
        ('strict digraph { 0 -> 1 [color=red]; }', DIRECTED),
        ('DiGraph { 0 -> 1 [color=red]; }', DIRECTED),
        ('STRICT DIGRAPH { 0 -> 1 [color=red]; }', DIRECTED),
        ('graph { 0 -> 1 [color=red]; }', "node id '->' is not a non-negative integer"),
        ('graph { 0 -- 1; }', "edge 0--1 has no color attribute"),
        ('graph { 0 -- 1 [color=green]; }', "edge (0, 1) has unknown color 'green'"),
        ('graph { 0 -- 0 [color=red]; }', "self-loop at vertex 0"),
        ('graph { 0 -- 1 [color=red] }garbage', "trailing content after '}': 'garbage'"),
        ('graph { 0 -- 1 [color=red];', "unexpected end of DOT input (missing '}')"),
        ('graph { 0 [side=A]; 1 [side=C]; 0 -- 1 [color=red]; }',
         "node 1 has unknown side 'C'"),
        ('graph { 0 [side=A]; 1; 0 -- 1 [color=red]; }',
         "some nodes carry a side attribute but not all of them"),
        ('graph { 0 [side=A]; 0 [side=B]; 1 [side=B]; 0 -- 1 [color=red]; }',
         "node 0 is given a side twice"),
        ('graph { 0 -- 1 [color=red]; @ }', "unexpected character '@' in DOT input"),
        ('graph { 0 -- ', "unexpected end of DOT input"),
        ('graph { 0 -- 1 [color red]; }', "expected '=' in DOT input, got 'red'"),
        ('tree { }', "expected 'graph', got 'tree'"),
        ('graph { 0 -- 1 [color=red]; /* unclosed', "unexpected character '/' in DOT input"),
        ('graph { a -- 1 [color=red]; }', "node id 'a' is not a non-negative integer"),
        ('graph { node [side=A]; 0 -- 1 [color=red]; }',
         "default node attribute 'side' is not supported"),
        ('graph { Graph [side=B]; 0 -- 1 [color=red]; }',
         "default graph attribute 'side' is not supported"),
        ('graph { edge; 0 -- 1 [color=red]; }', "expected '[' after 'edge' in DOT input"),
        ('graph { "edge" [color=red]; 0 -- 1; }',
         "node id 'edge' is not a non-negative integer"),
        # Outside the supported subset (see the README): subgraphs, node
        # sets as edge ends, and ports.
        ('graph { subgraph s { 0 -- 1 [color=red]; } }',
         "node id 'subgraph' is not a non-negative integer"),
        ('graph { {0 1} -- 2 [color=red]; }', "node id '{' is not a non-negative integer"),
        ('graph { 0:n -- 2 [color=red]; }', "unexpected character ':' in DOT input"),
    ])
    def test_parse_rejects(self, text, message):
        with pytest.raises(ParseError, match=re.escape(message)):
            parse_graph(text, DOT)

    def test_strict_named_graph_without_semicolon(self):
        g = parse_graph('strict graph g { 0 -- 1 [color=red] }', DOT)
        assert g.n == 2
        assert g.colors == {(0, 1): RED}

    def test_round_trip(self, c4, k33):
        assert parse_graph(serialize_graph(c4, DOT), DOT) == c4
        assert parse_graph(serialize_graph(k33, DOT), DOT) == k33


def test_unknown_format_rejected(c4):
    with pytest.raises(ParseError):
        parse_graph("{}", "yaml")
    with pytest.raises(ParseError):
        serialize_graph(c4, "yaml")


class TestMatchingIo:
    def test_round_trip(self, c4):
        pm = min_red_pm(c4)
        assert parse_matching(json.dumps(pm.sorted_edges()), c4) == pm

    def test_rejects_nonmatching(self, c4):
        with pytest.raises(ParseError):
            parse_matching('{"edges": [[0, 1]]}', c4)

    def test_rejects_bad_shape(self, c4):
        with pytest.raises(ParseError):
            parse_matching('{"edges": [[0, 1], [2, 3]]}', c4)
        with pytest.raises(ParseError):
            parse_matching('[[0, 1, 2]]', c4)
        with pytest.raises(ParseError):
            parse_matching('[[0, true], [2, 3]]', c4)
        with pytest.raises(ParseError):
            parse_matching('[[false, 1], [2, 3]]', c4)
        with pytest.raises(GraphError):
            parse_matching('[]', c4)

    def test_parse_bytes(self, c4):
        pm = min_red_pm(c4)
        assert parse_matching(json.dumps(pm.sorted_edges()).encode(), c4) == pm

    def test_rejects_invalid_json(self, c4):
        with pytest.raises(ParseError, match="matching document is not valid JSON"):
            parse_matching("[[0, 1]", c4)


@settings(max_examples=40, deadline=None)
@given(seed=st.integers(0, 10_000), n=st.sampled_from([2, 4, 6, 8, 10]),
       fmt=st.sampled_from(FORMATS), bipartite=st.booleans())
def test_round_trip_any_graph(seed, n, fmt, bipartite):
    if bipartite:
        g = random_bipartite_colored_graph(n, 0.6, seed)
    else:
        g = random_colored_graph(n, 0.6, seed)
    assert parse_graph(serialize_graph(g, fmt), fmt) == g
