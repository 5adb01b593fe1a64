"""The README's samples, run and parsed as written, so a docs edit that
breaks one fails here."""

import contextlib
import io
import re
from pathlib import Path

from exactmatching import BLUE, RED, parse_graph
from exactmatching.graphio import DOT, JSON

README = Path(__file__).resolve().parent.parent / "README.md"


def _blocks(lang):
    """The bodies of the README's unindented code blocks tagged ``lang``."""
    return re.findall(rf"^```{lang}\n(.*?)^```$", README.read_text(), re.M | re.S)


def test_quick_start_prints_what_it_says():
    [code] = _blocks("python")
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        exec(code, {})
    assert out.getvalue().splitlines() == ["no", "[(0, 1), (2, 3)]"]


def test_graph_samples_parse():
    [doc] = _blocks("json")
    g = parse_graph(doc, JSON)
    assert g.n == 6
    assert g.colors == {(0, 3): BLUE, (0, 4): RED, (1, 4): BLUE, (2, 5): RED}
    assert g.bipartition == (frozenset({0, 1, 2}), frozenset({3, 4, 5}))
    [dot] = _blocks("dot")
    h = parse_graph(dot, DOT)
    assert h.n == 4
    assert h.colors == {(0, 2): RED, (0, 3): BLUE, (1, 3): BLUE}
    assert h.bipartition == (frozenset({0, 1}), frozenset({2, 3}))
