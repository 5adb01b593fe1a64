"""End-to-end acceptance checks for the whole package.

Each test covers one release gate: oracle equivalence of the full solver on
small graphs, the red-count guarantees of the approximation walk on both
graph classes, validity of every shortcut the chord search produces, the
guaranteed-weight extraction property, answer preservation under the
densifying reductions, engine-versus-enumeration agreement, closed-form
matching counts, and a large dense instance under a wall-clock budget.

Every test records one PASS/FAIL summary line.  The lines are echoed in a
terminal summary section after the run (see conftest.py) and printed
directly when pytest runs with -s.
"""

import math
import time

from exactmatching import (
    BLUE,
    RED,
    BaseFamily,
    ColoredGraph,
    CycleSet,
    NO_CERTIFIED,
    SolverParams,
    UNKNOWN,
    YES,
    apply_biskip,
    apply_cycles,
    apply_skip,
    bipartite_independence_number,
    count_perfect_matchings,
    em_decide_bruteforce,
    enumerate_perfect_matchings,
    find_biskip,
    find_skip,
    gen_bounded_alpha,
    gen_bounded_beta,
    gen_planted_yes,
    independence_number,
    lift_to_dense,
    lift_to_dense_bipartite,
    max_red_pm,
    max_weight_perfect_matching,
    min_red_pm,
    random_bipartite_colored_graph,
    random_colored_graph,
    run_phase1,
    solve_em,
    symmetric_difference,
    validate_matching,
)
from exactmatching.generators import gen_alternating_cycle_instance, gen_skip_extraction_instance
from exactmatching.reductions import distance_d_independence_number
from exactmatching.skips import guaranteed_skip_weights

from ._support import check_application, check_biskip, check_skip

RESULTS: list[str] = []

ALL_WEIGHTS = frozenset(range(-4, 5))


def _report(num: int, label: str, violations: list[str], detail: str) -> None:
    ok = not violations
    line = f"[acceptance] {num} {label}: {'PASS' if ok else 'FAIL'} ({detail})"
    RESULTS.append(line)
    print(line, flush=True)
    assert ok, f"{label}: {len(violations)} violation(s), first: {violations[:3]}"


def test_criterion_1_solver_matches_oracle_on_small_graphs():
    t0 = time.perf_counter()
    graphs = []
    for i in range(52):
        n = (4, 6, 8)[i % 3]
        graphs.append(random_colored_graph(n, 0.55, 1000 + i))
        graphs.append(random_bipartite_colored_graph(n, 0.6, 2000 + i))
        graphs.append(gen_bounded_alpha(n, 1 + i % 3, 3000 + i))
        graphs.append(gen_bounded_beta(n, 1 + i % 2, 4000 + i))
    assert len(graphs) >= 200
    violations: list[str] = []
    cases = 0
    for gi, g in enumerate(graphs):
        for k in range(g.n // 2 + 1):
            cases += 1
            want = em_decide_bruteforce(g, k)
            got = solve_em(g, k, SolverParams(L_cap=g.n))
            if got.status == UNKNOWN:
                violations.append(f"graph {gi} k={k}: unknown with full budget")
            elif want is None and got.status != NO_CERTIFIED:
                violations.append(f"graph {gi} k={k}: {got.status} on a no-instance")
            elif want is not None:
                if got.status != YES:
                    violations.append(f"graph {gi} k={k}: {got.status} on a yes-instance")
                elif got.witness is None or got.witness.red_count != k:
                    violations.append(f"graph {gi} k={k}: bad witness")
                elif not validate_matching(g, got.witness):
                    violations.append(f"graph {gi} k={k}: witness is not a PM")
    elapsed = time.perf_counter() - t0
    if elapsed >= 300.0:
        violations.append(f"took {elapsed:.1f}s, budget 300s")
    _report(1, "solver agrees with the oracle on small graphs", violations,
            f"{len(graphs)} graphs, {cases} (graph, k) cases, {elapsed:.1f}s")


def test_criterion_2_phase1_red_bound_general():
    violations: list[str] = []
    count = 0
    for i in range(100):
        bound = 1 + i % 3
        n = (10, 16, 24, 32, 40)[i % 5]
        k = (3 * i) % (n // 2 + 1)
        g = gen_planted_yes(n, k, BaseFamily("alpha", bound), 5000 + i)
        measured = independence_number(g)
        if measured > 3:
            violations.append(f"instance {i}: measured bound {measured} > 3")
            continue
        res = run_phase1(g, k, SolverParams(alpha_hint=measured))
        count += 1
        if res.matching is None:
            violations.append(f"instance {i}: no matching on a planted yes")
            continue
        r = res.matching.red_count
        if not k - 2 * 4 ** measured <= r <= k:
            violations.append(
                f"instance {i}: r={r} outside [{k - 2 * 4 ** measured}, {k}]")
        if res.iterations > g.n:
            violations.append(f"instance {i}: {res.iterations} iterations > n={g.n}")
    _report(2, "approximation walk red bound, general graphs", violations,
            f"{count} planted instances, n up to 40, measured bound <= 3")


def test_criterion_3_phase1_red_bound_bipartite():
    violations: list[str] = []
    count = 0
    for i in range(100):
        n = (8, 12, 16, 20, 24, 28, 32, 36, 40)[i % 9]
        k = (3 * i) % (n // 2 + 1)
        g = gen_planted_yes(n, k, BaseFamily("beta", 1), 6000 + i)
        measured = bipartite_independence_number(g)
        if measured > 1:
            violations.append(f"instance {i}: measured bound {measured} > 1")
            continue
        res = run_phase1(g, k, SolverParams(beta_hint=1))
        count += 1
        if res.matching is None:
            violations.append(f"instance {i}: no matching on a planted yes")
            continue
        r = res.matching.red_count
        if not k - 2 * 4 ** (2 * 1 + 2) <= r <= k:
            violations.append(f"instance {i}: r={r} outside [{k - 512}, {k}]")
        if res.iterations > g.n:
            violations.append(f"instance {i}: {res.iterations} iterations > n={g.n}")
    _report(3, "approximation walk red bound, bipartite graphs", violations,
            f"{count} planted instances, class bound 1, threshold 512")


def _flip(pm, cyc):
    return apply_cycles(pm, CycleSet.from_cycles([cyc]))


def test_criterion_4_every_shortcut_is_valid():
    violations: list[str] = []
    configs = 0
    skip_hits = 0
    biskip_hits = 0
    for length in (6, 8, 10, 12, 14):
        for prob in (0.4, 0.7, 1.0):
            for seed in range(40):
                configs += 1
                g, pm, cyc = gen_alternating_cycle_instance(
                    length, prob, 7000 + seed)
                skip = find_skip(g, pm, cyc, ALL_WEIGHTS)
                if skip is not None:
                    skip_hits += 1
                    tag = f"skip len={length} p={prob} seed={seed}"
                    for msg in check_skip(g, pm, skip):
                        violations.append(f"{tag}: {msg}")
                    ctx = symmetric_difference(g, pm, _flip(pm, cyc))
                    new_ctx = apply_skip(skip, ctx)
                    for msg in check_application(g, pm, ctx, skip, new_ctx):
                        violations.append(f"{tag}: {msg}")

                configs += 1
                g, pm, cyc = gen_alternating_cycle_instance(
                    length, prob, 8000 + seed, bipartite=True)
                bis = find_biskip(g, pm, cyc, ALL_WEIGHTS)
                if bis is not None:
                    biskip_hits += 1
                    tag = f"biskip len={length} p={prob} seed={seed}"
                    for msg in check_biskip(g, pm, bis):
                        violations.append(f"{tag}: {msg}")
                    ctx = symmetric_difference(g, pm, _flip(pm, cyc))
                    new_ctx = apply_biskip(bis, ctx)
                    for msg in check_application(g, pm, ctx, bis, new_ctx):
                        violations.append(f"{tag}: {msg}")
    if configs < 1000:
        violations.append(f"only {configs} configurations")
    if skip_hits < 200 or biskip_hits < 200:
        violations.append(f"too few hits: {skip_hits} skips, {biskip_hits} biskips")
    _report(4, "shortcut search invariants and application", violations,
            f"{configs} configs, {skip_hits} skips, {biskip_hits} biskips checked")


def test_criterion_5_guaranteed_weights_always_extract():
    violations: list[str] = []
    count = 0
    for x in (-1, 0, 1, 2):
        for seed in range(13):
            g, pm, cyc = gen_skip_extraction_instance(x, 16, 100 + seed)
            count += 1
            tag = f"x={x} seed={seed}"
            if cyc.weight != 16 * x:
                violations.append(f"{tag}: cycle weight {cyc.weight} != {16 * x}")
            measured = independence_number(g, max_n=64)
            if measured > 2:
                violations.append(f"{tag}: independence {measured} > 2")
            skip = find_skip(g, pm, cyc, guaranteed_skip_weights(x))
            if skip is None:
                violations.append(f"{tag}: no skip in the guaranteed weight set")
    _report(5, "guaranteed skip weights on sub-path cycles", violations,
            f"{count} instances, 16 disjoint equal-weight sub-paths each")


def test_criterion_6_reductions_preserve_answers():
    violations: list[str] = []
    graphs: list[ColoredGraph] = []
    for seed in range(60):
        n = (4, 6, 8)[seed % 3]
        graphs.append(random_colored_graph(n, 0.45, 100 + seed))
        graphs.append(random_bipartite_colored_graph(n, 0.55, 200 + seed))
    assert len(graphs) >= 100
    for gi, g in enumerate(graphs):
        lifted = lift_to_dense(g)
        for k in range(g.n // 2 + 1):
            before = em_decide_bruteforce(g, k) is not None
            after = em_decide_bruteforce(lifted, k) is not None
            if before != after:
                violations.append(f"graph {gi} k={k}: dense lift flipped the answer")
        if distance_d_independence_number(lifted, 3) != 1:
            violations.append(f"graph {gi}: lifted distance-3 independence != 1")
        if g.bipartition is not None:
            blifted = lift_to_dense_bipartite(g)
            for k in range(g.n // 2 + 1):
                before = em_decide_bruteforce(g, k) is not None
                after = em_decide_bruteforce(blifted, k) is not None
                if before != after:
                    violations.append(
                        f"graph {gi} k={k}: bipartite lift flipped the answer")
            if distance_d_independence_number(blifted, 3) != 2:
                violations.append(
                    f"graph {gi}: bipartite lifted distance-3 independence != 2")
    _report(6, "densifying lifts preserve every answer", violations,
            f"{len(graphs)} graphs, all k, distance-3 collapse checked")


def test_criterion_7_engines_match_enumeration():
    violations: list[str] = []
    count = 0
    for i in range(500):
        n = (4, 6, 8, 10)[i % 4]
        g = random_colored_graph(n, (0.4, 0.6, 0.8)[i % 3], 9000 + i)
        weights = {e: ((e[0] * 7 + e[1] * 13 + i) % 3) - 1 for e in g.colors}
        count += 1
        pms = list(enumerate_perfect_matchings(g))
        best = max_weight_perfect_matching(g, weights)
        lo, hi = min_red_pm(g), max_red_pm(g)
        if not pms:
            if best is not None or lo is not None or hi is not None:
                violations.append(f"graph {i}: engine found a PM, oracle none")
            continue
        if best is None or lo is None or hi is None:
            violations.append(f"graph {i}: engine found no PM, oracle did")
            continue
        want = max(sum(weights[e] for e in p.edges) for p in pms)
        got = sum(weights[e] for e in best.edges)
        if got != want:
            violations.append(f"graph {i}: max weight {got} != {want}")
        reds = [p.red_count for p in pms]
        if lo.red_count != min(reds):
            violations.append(f"graph {i}: min red {lo.red_count} != {min(reds)}")
        if hi.red_count != max(reds):
            violations.append(f"graph {i}: max red {hi.red_count} != {max(reds)}")
    _report(7, "matching engines agree with enumeration", violations,
            f"{count} graphs, n <= 10, weights in {{-1, 0, 1}}")


def test_criterion_8_complete_graph_matching_counts():
    violations: list[str] = []
    for m in range(1, 6):
        n = 2 * m
        g = ColoredGraph.from_edges(
            n, [(u, v, RED if (u + v) % 2 else BLUE)
                for u in range(n) for v in range(u + 1, n)])
        expected = math.prod(range(1, n, 2))
        counted = count_perfect_matchings(g)
        enumerated = len(list(enumerate_perfect_matchings(g)))
        if counted != expected:
            violations.append(f"n={n}: counted {counted} != {expected}")
        if enumerated != expected:
            violations.append(f"n={n}: enumerated {enumerated} != {expected}")
    _report(8, "complete graph counts match the double factorial", violations,
            "n = 2, 4, 6, 8, 10 against both oracles")


def test_criterion_9_large_dense_instance_within_budget():
    violations: list[str] = []
    t0 = time.perf_counter()
    g = gen_planted_yes(50, 10, BaseFamily("alpha", 1), 7)
    verdict = solve_em(g, 10, SolverParams(alpha_hint=1))
    elapsed = time.perf_counter() - t0
    if verdict.status == UNKNOWN:
        violations.append("unknown verdict without a budget cap")
    elif verdict.status == YES:
        if verdict.witness is None or verdict.witness.red_count != 10:
            violations.append("witness does not carry exactly 10 red edges")
        elif not validate_matching(g, verdict.witness):
            violations.append("witness is not a perfect matching")
    else:
        violations.append("certified no on a planted yes-instance")
    if elapsed >= 60.0:
        violations.append(f"took {elapsed:.1f}s, budget 60s")
    _report(9, "dense 50-vertex instance inside the time budget", violations,
            f"verdict {verdict.status}, L={verdict.L_used}, {elapsed:.2f}s")
