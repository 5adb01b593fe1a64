import sys

import pytest

from exactmatching import BLUE, RED, ColoredGraph


@pytest.fixture
def c4() -> ColoredGraph:
    """Four-cycle with one red and one blue perfect matching."""
    return ColoredGraph.from_edges(4, [
        (0, 1, RED), (2, 3, RED), (1, 2, BLUE), (0, 3, BLUE),
    ])


@pytest.fixture
def k4_mixed() -> ColoredGraph:
    """Complete graph on four vertices whose three perfect matchings have
    0, 1 and 2 red edges."""
    return ColoredGraph.from_edges(4, [
        (0, 1, RED), (2, 3, BLUE), (0, 2, RED), (1, 3, RED), (0, 3, BLUE), (1, 2, BLUE),
    ])


@pytest.fixture
def k4_red() -> ColoredGraph:
    """Complete graph on four vertices, every edge red."""
    edges = [(u, v, RED) for u in range(4) for v in range(u + 1, 4)]
    return ColoredGraph.from_edges(4, edges)


@pytest.fixture
def k33() -> ColoredGraph:
    """Complete bipartite graph on sides {0,1,2} and {3,4,5}, all blue."""
    edges = [(u, v, BLUE) for u in range(3) for v in range(3, 6)]
    return ColoredGraph.from_edges(6, edges, bipartition=(range(3), range(3, 6)))


@pytest.fixture
def default_digit_limit() -> int:
    """The interpreter's default int-to-str digit limit, 4,300, set for one
    test and restored after it."""
    if not hasattr(sys, "set_int_max_str_digits"):
        pytest.skip("this interpreter has no int-to-str digit limit")
    old = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(4300)
    yield 4300
    sys.set_int_max_str_digits(old)


def pytest_terminal_summary(terminalreporter):
    """Echo the acceptance PASS/FAIL lines after the run."""
    mod = sys.modules.get("tests.test_acceptance")
    lines = getattr(mod, "RESULTS", None) if mod else None
    if lines:
        terminalreporter.section("acceptance")
        for line in lines:
            terminalreporter.write_line(line)
