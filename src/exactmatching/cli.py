"""Command-line front end.

Subcommands: solve (full decision), approx (phase 1 only), oracle
(brute-force ground truth), analyze (cycle structure of two matchings),
gen (instance generators), reduce (densifying lifts), bench (timing CSV).

Exit codes: 0 yes, 1 certified no, 2 unknown, 64 usage, 65 a size cap or
configuration limit was hit, 66 malformed input, 70 internal failure
(a broken invariant or any unexpected exception; never 1).
"""

from __future__ import annotations

import argparse
import json
import sys
import time
import traceback

from .generators import (
    BaseFamily,
    GenerationError,
    gen_bounded_alpha,
    gen_bounded_beta,
    gen_planted_yes,
    random_bipartite_colored_graph,
    random_colored_graph,
)
from .graphio import FORMATS, JSON, parse_graph, parse_matching, serialize_graph
from .graphs import ColoredGraph, GraphError, symmetric_difference
from .oracle import (
    OracleLimitError,
    bipartite_independence_number,
    count_perfect_matchings,
    em_decide_bruteforce,
    independence_number,
)
from .reductions import lift_to_dense, lift_to_dense_bipartite
from .skips import (
    SKIP_WEIGHTS,
    find_biskip,
    find_bundles,
    find_saps,
    find_skip,
    orient,
    pair_decomposition,
)
from .solver import (
    NO_CERTIFIED,
    UNKNOWN,
    YES,
    ConfigurationError,
    SkipSearchError,
    SolverError,
    SolverParams,
    run_phase1,
    solve_em,
)

EXIT_YES = 0
EXIT_NO = 1
EXIT_UNKNOWN = 2
EXIT_USAGE = 64
EXIT_LIMIT = 65
EXIT_INPUT = 66
EXIT_INTERNAL = 70

_VERDICT_EXIT = {YES: EXIT_YES, NO_CERTIFIED: EXIT_NO, UNKNOWN: EXIT_UNKNOWN}


class _Parser(argparse.ArgumentParser):
    """ArgumentParser that exits with the usage code on bad arguments."""

    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(EXIT_USAGE, f"{self.prog}: error: {message}\n")


class _UsageError(Exception):
    """Bad argument combination detected after parsing."""


def _read_text(path: str) -> str:
    if path == "-":
        return sys.stdin.read()
    with open(path, "r", encoding="utf-8") as fh:
        return fh.read()


def _write_text(path: str | None, text: str) -> None:
    if path is None or path == "-":
        sys.stdout.write(text)
        if not text.endswith("\n"):
            sys.stdout.write("\n")
        return
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(text)
        if not text.endswith("\n"):
            fh.write("\n")


def _sniff_format(path: str, explicit: str | None) -> str:
    if explicit is not None:
        return explicit
    if path.endswith((".dot", ".gv")):
        return "dot"
    return JSON


def _load_graph(args) -> ColoredGraph:
    fmt = _sniff_format(args.input, args.format)
    return parse_graph(_read_text(args.input), fmt)


def _params_from(args) -> SolverParams:
    return SolverParams(
        alpha_hint=getattr(args, "alpha", None),
        beta_hint=getattr(args, "beta", None),
        L_cap=getattr(args, "L_cap", None),
        t_override=getattr(args, "t_override", None),
    )


# -- subcommands ---------------------------------------------------------------


def _cmd_solve(args) -> int:
    graph = _load_graph(args)
    verdict = solve_em(graph, args.k, _params_from(args))
    if args.json:
        print(json.dumps(verdict.to_json_dict(), indent=2))
    else:
        print(verdict.status)
        if verdict.witness is not None:
            pairs = " ".join(f"({u},{v})" for u, v in verdict.witness.sorted_edges())
            print(f"witness: {pairs}")
        if verdict.reason is not None:
            print(f"reason: {verdict.reason}")
        print(f"L_used: {verdict.L_used}  phase1_r: {verdict.phase1_r}  "
              f"iterations: {verdict.iterations}")
    return _VERDICT_EXIT[verdict.status]


def _cmd_approx(args) -> int:
    graph = _load_graph(args)
    if graph.n % 2 != 0 or not 0 <= args.k <= graph.n // 2:
        raise ConfigurationError(
            f"k={args.k} needs an even vertex count and 0 <= k <= n/2")
    result = run_phase1(graph, args.k, _params_from(args))
    if result.matching is None:
        print("no perfect matching")
        return EXIT_NO
    m = result.matching
    doc = {
        "red_count": m.red_count,
        "target": args.k,
        "threshold": result.threshold,
        "bound": result.bound,
        "bipartite": result.bipartite,
        "iterations": result.iterations,
        "matching": [list(e) for e in m.sorted_edges()],
    }
    if args.json:
        print(json.dumps(doc, indent=2))
    else:
        print(f"red_count: {m.red_count}  target: {args.k}")
        print(f"threshold: {result.threshold}  bound: {result.bound}  "
              f"bipartite: {result.bipartite}  iterations: {result.iterations}")
        print("matching: " + " ".join(f"({u},{v})" for u, v in m.sorted_edges()))
    return EXIT_YES


def _cmd_oracle(args) -> int:
    if args.k is None and not (args.count or args.alpha or args.beta):
        raise _UsageError("oracle needs at least one of -k, --count, --alpha, --beta")
    graph = _load_graph(args)
    lines: list[str] = []
    code = EXIT_YES
    if args.k is not None:
        if args.cap is not None:
            found = em_decide_bruteforce(graph, args.k, max_n=args.cap)
        else:
            found = em_decide_bruteforce(graph, args.k)
        lines.append("yes" if found is not None else "no")
        code = EXIT_YES if found is not None else EXIT_NO
    if args.count:
        count = (count_perfect_matchings(graph) if args.cap is None
                 else count_perfect_matchings(graph, max_n=args.cap))
        lines.append(str(count))
    if args.alpha:
        alpha = (independence_number(graph) if args.cap is None
                 else independence_number(graph, max_n=args.cap))
        lines.append(str(alpha))
    if args.beta:
        beta = (bipartite_independence_number(graph) if args.cap is None
                else bipartite_independence_number(graph, max_n=args.cap))
        lines.append(str(beta))
    print("\n".join(lines))
    return code


def _cmd_analyze(args) -> int:
    graph = _load_graph(args)
    first = parse_matching(_read_text(args.matchings[0]), graph)
    second = parse_matching(_read_text(args.matchings[1]), graph)
    context = symmetric_difference(graph, first, second)
    view = orient(graph, first) if graph.bipartition is not None else None
    cycles = []
    for cycle in context:
        pairs = pair_decomposition(cycle, graph, first)
        entry: dict = {
            "vertices": list(cycle.vertices),
            "weight": cycle.weight,
            "pair_labels": [p.label for p in pairs],
            "bundles": [
                {"sign": b.sign, "first": b.first_index, "second": b.second_index}
                for b in find_bundles(pairs)
            ],
            "stretches": [
                {"indices": list(s.indices), "weight": s.weight}
                for s in find_saps(pairs)
            ],
        }
        skip = find_skip(graph, first, cycle, SKIP_WEIGHTS)
        entry["skip"] = None if skip is None else {
            "chords": [list(skip.e1), list(skip.e2)],
            "weight": skip.weight,
            "shortcut_length": len(skip.shortcut_cycle),
        }
        if view is not None:
            biskip = find_biskip(view, first, cycle, SKIP_WEIGHTS)
            entry["biskip"] = None if biskip is None else {
                "arcs": [list(biskip.a1), list(biskip.a2)],
                "weight": biskip.weight,
                "cycle_lengths": [len(c) for c in biskip.cycles],
            }
        cycles.append(entry)
    report = {
        "red_counts": [first.red_count, second.red_count],
        "total_weight": context.total_weight,
        "cycles": cycles,
    }
    print(json.dumps(report, indent=2))
    return EXIT_YES


def _cmd_gen(args) -> int:
    family = args.family
    if family == "alpha":
        graph = gen_bounded_alpha(args.n, args.bound, args.seed, args.edge_prob)
    elif family == "beta":
        graph = gen_bounded_beta(args.n, args.bound, args.seed, args.edge_prob)
    elif family in ("planted-alpha", "planted-beta"):
        if args.k is None:
            raise _UsageError(f"family {family} needs -k")
        base = BaseFamily(family.split("-")[1], args.bound, args.edge_prob)
        graph = gen_planted_yes(args.n, args.k, base, args.seed)
    elif family == "random":
        graph = random_colored_graph(args.n, args.edge_prob, args.seed)
    elif family == "random-bipartite":
        graph = random_bipartite_colored_graph(args.n, args.edge_prob, args.seed)
    else:
        raise _UsageError(f"unknown family {family}")
    _write_text(args.output, serialize_graph(graph, args.format or JSON))
    return EXIT_YES


def _cmd_reduce(args) -> int:
    graph = _load_graph(args)
    if graph.bipartition is not None:
        lifted = lift_to_dense_bipartite(graph)
    else:
        lifted = lift_to_dense(graph)
    _write_text(args.output, serialize_graph(lifted, args.out_format or JSON))
    return EXIT_YES


def _cmd_bench(args) -> int:
    kind = args.family.split("-")[1]
    base = BaseFamily(kind, args.bound, args.edge_prob)
    hint = SolverParams(alpha_hint=args.bound) if kind == "alpha" \
        else SolverParams(beta_hint=args.bound)
    print("n,alpha_or_beta,k,verdict,L_used,phase1_r,millis")
    for n in args.sizes:
        if n % 2 != 0:
            raise _UsageError(f"sizes must be even, got {n}")
        k = n // 4
        for i in range(args.per_size):
            seed = args.seed * 100_003 + n * 101 + i
            graph = gen_planted_yes(n, k, base, seed)
            start = time.perf_counter()
            verdict = solve_em(graph, k, hint)
            millis = (time.perf_counter() - start) * 1000.0
            print(f"{n},{args.bound},{k},{verdict.status},{verdict.L_used},"
                  f"{verdict.phase1_r},{millis:.2f}")
    return EXIT_YES


# -- parser --------------------------------------------------------------------


def _add_input(sub: argparse.ArgumentParser) -> None:
    sub.add_argument("input", help="graph file, or - for stdin")
    sub.add_argument("--format", choices=FORMATS, default=None,
                     help="input format (default: sniffed from the extension)")


def _add_solver_knobs(sub: argparse.ArgumentParser) -> None:
    sub.add_argument("--alpha", type=int, default=None,
                     help="promise bound on the independence number")
    sub.add_argument("--beta", type=int, default=None,
                     help="promise bound on the bipartite independence number")
    sub.add_argument("--L-cap", dest="L_cap", type=int, default=None,
                     help="cap on the phase-2 guess size")
    sub.add_argument("--t-override", dest="t_override", type=int, default=None,
                     help="replace the phase-1 cycle-weight threshold")


def _build_parser() -> _Parser:
    parser = _Parser(prog="emsolve",
                     description="perfect matchings with an exact red-edge count")
    commands = parser.add_subparsers(dest="command", required=True)

    solve = commands.add_parser("solve", help="decide one instance")
    _add_input(solve)
    solve.add_argument("-k", type=int, required=True, help="required red-edge count")
    _add_solver_knobs(solve)
    solve.add_argument("--json", action="store_true", help="print the verdict as JSON")
    solve.set_defaults(func=_cmd_solve)

    approx = commands.add_parser("approx", help="phase 1 only: approach k from below")
    _add_input(approx)
    approx.add_argument("-k", type=int, required=True, help="target red-edge count")
    _add_solver_knobs(approx)
    approx.add_argument("--json", action="store_true", help="print the report as JSON")
    approx.set_defaults(func=_cmd_approx)

    oracle = commands.add_parser("oracle", help="brute-force ground truth")
    _add_input(oracle)
    oracle.add_argument("-k", type=int, default=None,
                        help="decide the instance by enumeration")
    oracle.add_argument("--count", action="store_true",
                        help="count perfect matchings")
    oracle.add_argument("--alpha", action="store_true",
                        help="compute the independence number")
    oracle.add_argument("--beta", action="store_true",
                        help="compute the bipartite independence number")
    oracle.add_argument("--cap", type=int, default=None,
                        help="raise or lower the oracle size cap")
    oracle.set_defaults(func=_cmd_oracle)

    analyze = commands.add_parser("analyze",
                                  help="cycle structure of two matchings")
    _add_input(analyze)
    analyze.add_argument("--matchings", nargs=2, required=True,
                         metavar=("FIRST", "SECOND"),
                         help="two matching files (JSON edge lists)")
    analyze.set_defaults(func=_cmd_analyze)

    gen = commands.add_parser("gen", help="generate an instance")
    gen.add_argument("family",
                     choices=["alpha", "beta", "planted-alpha", "planted-beta",
                              "random", "random-bipartite"])
    gen.add_argument("-n", type=int, required=True, help="vertex count")
    gen.add_argument("--bound", type=int, default=1,
                     help="independence bound of the family")
    gen.add_argument("-k", type=int, default=None,
                     help="planted red-edge count (planted families)")
    gen.add_argument("--edge-prob", type=float, default=0.5,
                     help="edge keep probability where the family has room")
    gen.add_argument("--seed", type=int, default=0)
    gen.add_argument("--format", choices=FORMATS, default=None)
    gen.add_argument("-o", "--output", default=None, help="output file (default stdout)")
    gen.set_defaults(func=_cmd_gen)

    reduce_cmd = commands.add_parser("reduce", help="densifying lift")
    _add_input(reduce_cmd)
    reduce_cmd.add_argument("--out-format", dest="out_format",
                            choices=FORMATS, default=None)
    reduce_cmd.add_argument("-o", "--output", default=None,
                            help="output file (default stdout)")
    reduce_cmd.set_defaults(func=_cmd_reduce)

    bench = commands.add_parser("bench", help="timing sweep as CSV")
    bench.add_argument("--family", choices=["planted-alpha", "planted-beta"],
                       default="planted-alpha")
    bench.add_argument("--bound", type=int, default=1)
    bench.add_argument("--sizes", type=lambda s: [int(x) for x in s.split(",")],
                       default=[8, 16, 24], help="comma-separated vertex counts")
    bench.add_argument("--per-size", dest="per_size", type=int, default=3)
    bench.add_argument("--edge-prob", type=float, default=0.5)
    bench.add_argument("--seed", type=int, default=0)
    bench.set_defaults(func=_cmd_bench)

    return parser


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except _UsageError as exc:
        print(f"emsolve: error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except (OracleLimitError, ConfigurationError, GenerationError,
            SkipSearchError) as exc:
        print(f"emsolve: limit: {exc}", file=sys.stderr)
        return EXIT_LIMIT
    except (GraphError, OSError, json.JSONDecodeError) as exc:
        print(f"emsolve: bad input: {exc}", file=sys.stderr)
        return EXIT_INPUT
    except SolverError as exc:
        print(f"emsolve: internal error: {exc}", file=sys.stderr)
        return EXIT_INTERNAL
    except Exception as exc:
        # A bug, not a verdict: it must never exit 1, which means "certified no".
        traceback.print_exc()
        print(f"emsolve: internal error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return EXIT_INTERNAL


if __name__ == "__main__":
    sys.exit(main())
