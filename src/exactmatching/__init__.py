"""Exact red-count perfect matchings in red/blue edge-colored graphs.

The package decides whether a graph has a perfect matching with exactly k
red edges, with worst-case guarantees parameterized by the independence
number (or, for bipartite graphs, the bipartite independence number).  It
also ships the supporting machinery as a library: brute-force oracles,
matching engines, alternating-cycle surgery, densifying reductions, and
seeded instance generators.
"""

from .engines import (
    max_red_pm,
    max_weight_perfect_matching,
    min_red_pm,
    perfect_matching_on,
)
from .generators import (
    BaseFamily,
    GenerationError,
    gen_bounded_alpha,
    gen_bounded_beta,
    gen_planted_yes,
    random_bipartite_colored_graph,
    random_colored_graph,
)
from .graphio import (
    ParseError,
    parse_graph,
    parse_matching,
    serialize_graph,
)
from .graphs import (
    BLUE,
    RED,
    AlternatingCycle,
    ColoredGraph,
    CycleSet,
    Edge,
    GraphError,
    PerfectMatching,
    apply_cycles,
    edge_key,
    symmetric_difference,
    validate_matching,
)
from .oracle import (
    COUNTING_CAP,
    ENUMERATION_CAP,
    INDEPENDENCE_CAP,
    OracleLimitError,
    bipartite_independence_number,
    count_perfect_matchings,
    em_decide_bruteforce,
    enumerate_perfect_matchings,
    independence_number,
    perfect_matching_red_counts,
)
from .reductions import (
    lift_to_dense,
    lift_to_dense_bipartite,
)
from .skips import (
    NEGATIVE_WEIGHTS,
    POSITIVE_WEIGHTS,
    SKIP_WEIGHTS,
    Biskip,
    Skip,
    apply_biskip,
    apply_skip,
    find_biskip,
    find_skip,
    orient,
)
from .solver import (
    NO_CERTIFIED,
    UNKNOWN,
    YES,
    ConfigurationError,
    SkipSearchError,
    SolverError,
    SolverParams,
    Verdict,
    approx_em,
    run_phase1,
    solve_em,
    walk_bound,
)

__version__ = "0.1.0"

__all__ = [
    "AlternatingCycle",
    "BLUE",
    "BaseFamily",
    "Biskip",
    "COUNTING_CAP",
    "ColoredGraph",
    "ConfigurationError",
    "CycleSet",
    "ENUMERATION_CAP",
    "Edge",
    "GenerationError",
    "GraphError",
    "INDEPENDENCE_CAP",
    "NEGATIVE_WEIGHTS",
    "NO_CERTIFIED",
    "OracleLimitError",
    "POSITIVE_WEIGHTS",
    "ParseError",
    "PerfectMatching",
    "RED",
    "SKIP_WEIGHTS",
    "Skip",
    "SkipSearchError",
    "SolverError",
    "SolverParams",
    "UNKNOWN",
    "Verdict",
    "YES",
    "apply_biskip",
    "apply_cycles",
    "apply_skip",
    "approx_em",
    "bipartite_independence_number",
    "count_perfect_matchings",
    "edge_key",
    "em_decide_bruteforce",
    "enumerate_perfect_matchings",
    "find_biskip",
    "find_skip",
    "gen_bounded_alpha",
    "gen_bounded_beta",
    "gen_planted_yes",
    "independence_number",
    "lift_to_dense",
    "lift_to_dense_bipartite",
    "max_red_pm",
    "max_weight_perfect_matching",
    "min_red_pm",
    "orient",
    "parse_graph",
    "parse_matching",
    "perfect_matching_on",
    "perfect_matching_red_counts",
    "random_bipartite_colored_graph",
    "random_colored_graph",
    "run_phase1",
    "serialize_graph",
    "solve_em",
    "symmetric_difference",
    "validate_matching",
    "walk_bound",
]
