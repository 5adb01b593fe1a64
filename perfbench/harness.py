"""Runs one workload: set-up, timed operations, correctness gate, metrics.

One operation is one ``solve_em`` call (one ``approx_em`` call in
``walk_large``), in this process, on one thread.  An operation fails when
it raises (``RecursionError`` and ``MemoryError`` included), returns
"unknown", or runs past the workload's per-operation budget.  A failure is
charged the full budget: in the latency quantiles it ranks above every
success, and in ``decided_per_s`` it counts as budget seconds of operation
time.  Turning a failure into a success within budget therefore never makes
a metric worse.  The interpreter runs with its defaults; nothing is retried.

Operations run in whole passes over the workload's pool, each pass in an
order drawn from ``--seed``, until the run has measured ``--seconds`` and
at least ``MIN_OPS`` operations; so every run measures the same mix.  Times
are reported at reference speed (see ``calibration``).
"""

from __future__ import annotations

import gc
import hashlib
import json
import os
import platform
import random
import resource
import signal
import statistics
import subprocess
import time
import tracemalloc
from dataclasses import dataclass
from pathlib import Path

import networkx

from exactmatching import solver
from exactmatching.graphio import serialize_graph
from exactmatching.oracle import em_decide_bruteforce

import tracing
from calibration import Calibration, import_seconds
from workloads import APPROX, NO, WORKLOADS, YES, Core, Workload, build, relabel

MIN_OPS = 100  # so that at least 10 samples lie beyond p90
RETIMES = 2  # see ``timed``
WINDOW_CAP_S = 90.0  # keeps a run that fails everything within its time limit
SETUPS = 3  # setup_s is the median of this many set-ups
BENCH_DIR = Path(__file__).resolve().parent
DIGESTS = BENCH_DIR / "digests.json"
OUT_DIR = BENCH_DIR / "out"  # span files of traced runs

OVER_BUDGET = "over_budget"
FAILURE_KINDS = ("RecursionError", "MemoryError", OVER_BUDGET, "unknown", "other")

END_TO_END = {
    "verdict_p50_ms": "ms",
    "verdict_p90_ms": "ms",
    "decided_per_s": "1/s",
    "ok_frac": "ratio",
    "setup_s": "s",
    "peak_rss_mb": "MB",
}


class DataError(Exception):
    """The benchmark's own data is wrong; nothing is measured."""


class WrongVerdict(Exception):
    """The program gave a wrong answer; the run must not report metrics."""


class OverBudget(BaseException):
    """Raised by the budget alarm.  A BaseException, so no handler in the
    program that catches ``Exception`` can swallow it."""


def _alarm(signum, frame):
    raise OverBudget


@dataclass
class Outcome:
    core: Core
    elapsed: float
    failure: str | None
    result: object = None
    start: float = 0.0
    norm: float = 0.0  # elapsed at reference speed
    attempts: int = 1  # timings taken, see ``timed``


def operation(core: Core):
    """The user-facing call for ``core``, looked up on each call."""
    return solver.approx_em if core.op == APPROX else solver.solve_em


def run_op(core: Core, graph, budget: float, call=None) -> Outcome:
    call = call or operation(core)
    params = core.params()
    failure = None
    result = None
    start = time.perf_counter()
    try:
        try:
            signal.setitimer(signal.ITIMER_REAL, budget)
            result = call(graph, core.k, params)
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0)
    except OverBudget:
        failure = OVER_BUDGET
    except RecursionError:
        failure = "RecursionError"
    except MemoryError:
        failure = "MemoryError"
    except Exception as exc:  # any other crash is a failed operation, not a verdict
        failure = "other"
        result = repr(exc)
    elapsed = time.perf_counter() - start
    if failure is None:
        if elapsed >= budget:
            failure = OVER_BUDGET
        elif core.op != APPROX and result.status == solver.UNKNOWN:
            failure = "unknown"
    return Outcome(core, elapsed, failure, result, start, elapsed)


# -- correctness gate ----------------------------------------------------------


def _red_count_of(graph, edges) -> int:
    """Red count of ``edges`` after checking they form a perfect matching of
    ``graph``, using nothing but the graph's edge map."""
    seen: set[int] = set()
    red = 0
    for u, v in edges:
        e = (u, v) if u < v else (v, u)
        if e not in graph.colors:
            raise WrongVerdict(f"edge {e} is not in the graph")
        if u in seen or v in seen:
            raise WrongVerdict(f"edge {e} covers a vertex twice")
        seen.update(e)
        red += graph.colors[e] == "red"
    if len(seen) != graph.n:
        raise WrongVerdict(f"matching covers {len(seen)} of {graph.n} vertices")
    return red


def check(core: Core, graph, result) -> None:
    """Raise ``WrongVerdict`` unless a successful operation's answer is right."""
    if core.op == APPROX:
        if result is None:
            raise WrongVerdict("approx_em found no perfect matching on a planted instance")
        red = _red_count_of(graph, result.edges)
        threshold = 2 * 4 ** core.hints["alpha_hint"]
        if not core.k - threshold <= red <= core.k:
            raise WrongVerdict(f"phase-1 red count {red} outside [k - {threshold}, k]")
        return
    if result.status == solver.YES:
        red = _red_count_of(graph, result.witness.edges)
        if red != core.k:
            raise WrongVerdict(f"witness has {red} red edges, not {core.k}")
        if core.truth == NO:
            raise WrongVerdict("yes with a valid witness where the oracle said no")
    elif result.status == solver.NO_CERTIFIED and core.truth == YES:
        raise WrongVerdict("no on a yes-instance")


# -- set-up ----------------------------------------------------------------------


def build_cores(workload: Workload, cal: Calibration) -> tuple[list, float]:
    """The core graphs, in core order, and the seconds spent building them
    at reference speed; the reference is sampled between builds."""
    built: dict[tuple, object] = {}
    durations = []
    for core in workload.cores:
        if core.recipe not in built:
            cal.sample()
            start = time.perf_counter()
            built[core.recipe] = build(core.recipe)
            durations.append((start, time.perf_counter() - start))
    cal.sample()
    seconds = sum(dt * cal.factor(start) for start, dt in durations)
    return [built[core.recipe] for core in workload.cores], seconds


def set_up(workload: Workload, src: Path, cal: Calibration) -> tuple[list, list, list]:
    """Import the package and build the core instances ``SETUPS`` times.

    Returns the graphs and each set-up's total and generation time, at
    reference speed.  Each import is timed in a fresh interpreter, since
    this one has already imported the package.
    """
    setups, gens = [], []
    graphs = None
    for _ in range(SETUPS):
        imported = import_seconds(src, "exactmatching")
        graphs, gen = build_cores(workload, cal)
        gens.append(gen)
        setups.append(imported + gen)
    return graphs, setups, gens


def confirm_truth(workload: Workload, graphs: list) -> None:
    """Every "no" core must be confirmed by the brute-force oracle."""
    for core, graph in zip(workload.cores, graphs):
        if core.truth == NO and em_decide_bruteforce(graph, core.k) is not None:
            raise DataError(f"the oracle finds a witness for {core.label}, "
                            f"listed as a no-instance")


def input_digest(workload: Workload, graphs: list) -> str:
    h = hashlib.sha256()
    for core, graph in zip(workload.cores, graphs):
        h.update(serialize_graph(graph).encode())
        h.update(f"\nk={core.k}\n".encode())
    return h.hexdigest()


def recorded_digest(name: str) -> str | None:
    try:
        return json.loads(DIGESTS.read_text()).get(name)
    except (OSError, ValueError):
        return None


# -- metrics -------------------------------------------------------------------


def quantile(values: list[float], q: float) -> float:
    """Linear interpolation between order statistics (inclusive method)."""
    ordered = sorted(values)
    pos = q * (len(ordered) - 1)
    lo = int(pos)
    hi = min(lo + 1, len(ordered) - 1)
    return ordered[lo] + (ordered[hi] - ordered[lo]) * (pos - lo)


def charged(outcome: Outcome, budget: float, raw: bool = False) -> float:
    if outcome.failure is not None:
        return budget
    return min(outcome.elapsed if raw else outcome.norm, budget)


def end_to_end(outcomes: list[Outcome], budget: float, setup_s: float) -> dict:
    times = [charged(o, budget) for o in outcomes]
    decided = sum(1 for o in outcomes if o.failure is None)
    return {
        "verdict_p50_ms": 1000 * quantile(times, 0.5),
        "verdict_p90_ms": 1000 * quantile(times, 0.9),
        "decided_per_s": decided / sum(times),
        "ok_frac": decided / len(outcomes),
        "setup_s": setup_s,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }


def failure_counts(outcomes: list[Outcome]) -> dict:
    return {kind: sum(1 for o in outcomes if o.failure == kind) for kind in FAILURE_KINDS}


def provenance(root: Path, seed: int) -> dict:
    return {
        "seed": seed,
        "commit": git_commit(root),
        "python": platform.python_version(),
        "networkx": networkx.__version__,
        "nproc": os.cpu_count(),
    }


def git_commit(root: Path) -> str:
    """HEAD's commit; "unknown" outside a git tree or without git."""
    try:
        # The ceiling keeps git from reporting a repository above ``root``.
        done = subprocess.run(["git", "rev-parse", "HEAD"], cwd=root,
                              env={**os.environ, "GIT_CEILING_DIRECTORIES": str(root.parent)},
                              capture_output=True, text=True, timeout=30)
    except (OSError, subprocess.SubprocessError):
        return "unknown"
    return done.stdout.strip() if done.returncode == 0 else "unknown"


# -- the run -------------------------------------------------------------------


def draw(workload: Workload, graphs: list, i: int, j: int):
    """Draw ``j`` of core ``i``: the core, and its graph as the pool fixes it."""
    core = workload.cores[i]
    if not core.relabel:
        return core, graphs[i]
    return core, relabel(graphs[i], f"{workload.name}:{i}:{j}")


def passes(workload: Workload, graphs: list, rng: random.Random):
    """Endless passes over the pool, each in a new order from ``rng``.

    A pass yields (core, graph) lazily, so relabeling happens outside every
    timer and only one relabeled copy is alive at a time.
    """
    pool = [(i, j) for i, core in enumerate(workload.cores) for j in range(core.draws)]
    while True:
        rng.shuffle(pool)
        yield (draw(workload, graphs, i, j) for i, j in list(pool))


def measure(workload: Workload, graphs: list, seed: int, seconds: float,
            cal: Calibration, step) -> None:
    """Feed whole passes to ``step(core, graph)`` until the run is long enough.
    ``step`` times its operations with ``timed`` and raises ``WrongVerdict``."""
    rng = random.Random(f"{workload.name}:{seed}")
    count = 0
    start = time.perf_counter()
    cal.sample()
    for one_pass in passes(workload, graphs, rng):
        for core, graph in one_pass:
            if time.perf_counter() - start >= WINDOW_CAP_S:
                return
            step(core, graph)
            count += 1
        if time.perf_counter() - start >= seconds and count >= MIN_OPS:
            return


def timed(core: Core, graph, budget: float, cal: Calibration, call=None) -> Outcome:
    """One operation between two reference samples: the caller's last one
    and one taken right after it.

    On a shared machine the speed can halve and recover within a second, and
    an operation whose speed differs from that of the samples around it is
    normalized wrongly: on ``scale_yes`` p90 ranged from 42 to 65 ms over ten
    runs without re-timing, and from 41 to 44 ms over five with it.  So a
    successful operation whose two samples differ by more than
    ``calibration.JUMP`` is timed again, up to ``RETIMES`` more times, and
    the last timing counts.  A failure is never timed again.
    """
    for attempt in range(RETIMES + 1):
        # Each operation starts with empty collector generations, so when
        # collections fall inside it depends on its own work.
        gc.collect()
        outcome = run_op(core, graph, budget, call)
        cal.sample()
        if outcome.failure is not None or cal.steady():
            break
    outcome.attempts = attempt + 1
    return outcome


def normalize(outcomes: list[Outcome], cal: Calibration) -> None:
    for o in outcomes:
        o.norm = o.elapsed * cal.factor(o.start)


def gated(outcome: Outcome, graph) -> Outcome:
    if outcome.failure is None:
        try:
            check(outcome.core, graph, outcome.result)
        except WrongVerdict as exc:
            exc.instance = (outcome.core, graph)
            raise
    return outcome


def run_plain(workload: Workload, graphs: list, seed: int, seconds: float,
              cal: Calibration) -> list[Outcome]:
    outcomes: list[Outcome] = []
    measure(workload, graphs, seed, seconds, cal,
            lambda core, graph: outcomes.append(
                gated(timed(core, graph, workload.budget_s, cal), graph)))
    normalize(outcomes, cal)
    return outcomes


def run_traced(workload: Workload, graphs: list, seed: int, seconds: float,
               cal: Calibration, tracer: tracing.Tracer) -> tuple[list[Outcome], list[Outcome]]:
    """Each draw runs untraced and traced, in alternating order, so the
    tracing overhead is measured on identical inputs."""
    plain: list[Outcome] = []
    traced: list[Outcome] = []

    def traced_op(core, graph):
        outcome = timed(core, graph, workload.budget_s, cal,
                        call=tracer.op(operation(core), core.op))
        note = {"failure": outcome.failure}
        if outcome.failure is None and core.op != APPROX:
            note["L_used"] = outcome.result.L_used
        tracer.end_op(note)
        return outcome

    def plain_op(core, graph):
        return timed(core, graph, workload.budget_s, cal)

    def step(core, graph):
        first, second = (traced_op, plain_op) if len(plain) % 2 else (plain_op, traced_op)
        for op in (first, second):
            outcome = gated(op(core, graph), graph)
            (traced if op is traced_op else plain).append(outcome)

    tracer.install()
    try:
        measure(workload, graphs, seed, seconds, cal, step)
    finally:
        tracer.uninstall()
    normalize(plain, cal)
    normalize(traced, cal)
    return plain, traced


def peak_alloc_mb(workload: Workload, graphs: list) -> float:
    """Largest traced allocation peak of one operation, first draw per core."""
    peak = 0
    for i in range(len(workload.cores)):
        core, graph = draw(workload, graphs, i, 0)
        tracemalloc.start()
        try:
            gated(run_op(core, graph, workload.budget_s), graph)
            peak = max(peak, tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
    return peak / 2 ** 20


def run(workload: Workload, seed: int, seconds: float, trace: bool, root: Path) -> dict:
    """Run one workload and print its report; returns the final result object."""
    previous = signal.signal(signal.SIGALRM, _alarm)
    try:
        return _run(workload, seed, seconds, trace, root)
    finally:
        signal.signal(signal.SIGALRM, previous)
        gc.unfreeze()


def _run(workload: Workload, seed: int, seconds: float, trace: bool, root: Path) -> dict:
    name = workload.name
    cal = Calibration()
    graphs, setups, gens = set_up(workload, root / "src", cal)
    setup_s, generators_s = statistics.median(setups), statistics.median(gens)
    confirm_truth(workload, graphs)
    # The core graphs are the benchmark's, not the operation's: keep them out
    # of the collections that operations trigger.
    gc.collect()
    gc.freeze()
    digest = input_digest(workload, graphs)
    recorded = recorded_digest(name)
    report = {
        "workload": name,
        **provenance(root, seed),
        "budget_s": workload.budget_s,
        "input_digest": digest,
        "input_digest_matches_record": digest == recorded,
        "setup_samples_s": setups,
    }
    if digest != recorded:
        print(f"note: input digest {digest} differs from the recorded "
              f"{recorded} in {DIGESTS.name}; the inputs have changed")

    if trace:
        tracer = tracing.Tracer()
        plain, outcomes = run_traced(workload, graphs, seed, seconds, cal, tracer)
        per_call = tracing.per_call_cost()
        metrics, shares = tracing.layer_metrics(tracer.spans, cal.run_factor(), per_call)
        both = [(p, t) for p, t in zip(plain, outcomes)
                if p.failure is None and t.failure is None]
        base = sum(p.elapsed for p, _ in both)
        metrics["trace.overhead"] = (
            100 * (sum(t.elapsed for _, t in both) - base) / base if base else 0.0)
        metrics["generators.s"] = generators_s
        metrics["solver.peak_alloc_mb"] = peak_alloc_mb(workload, graphs)
        units = tracing.PER_LAYER
        report["absent_boundaries"] = tracer.absent
        report["trace_per_call_us"] = 1e6 * per_call
        report["layer_share_of_op_time"] = {k: round(v, 4) for k, v in shares.items()}
        report["dominant_layer"] = max(shares, key=shares.get) if shares else None
        report["untraced_p50_ms"] = 1000 * quantile(
            [charged(o, workload.budget_s) for o in plain], 0.5)
        report["traced_p50_ms"] = 1000 * quantile(
            [charged(o, workload.budget_s) for o in outcomes], 0.5)
        OUT_DIR.mkdir(exist_ok=True)
        tracer.write(OUT_DIR / f"spans-{name}-{seed}.jsonl")
    else:
        outcomes = run_plain(workload, graphs, seed, seconds, cal)
        metrics = end_to_end(outcomes, workload.budget_s, setup_s)
        units = END_TO_END
        raw = [charged(o, workload.budget_s, raw=True) for o in outcomes]
        report["raw_p50_ms"] = 1000 * quantile(raw, 0.5)
        report["raw_p90_ms"] = 1000 * quantile(raw, 0.9)
    report["reference_ms"] = cal.median_ms()

    failures = failure_counts(outcomes)
    failed = sum(failures.values())
    report.update({
        "samples": len(outcomes),
        "retimed": sum(o.attempts - 1 for o in outcomes),
        "failed": failed,
        "fail_frac": failed / len(outcomes),
        "failures": failures,
    })
    if failures["other"]:
        report["other_failure"] = next(o.result for o in outcomes if o.failure == "other")
    for metric, value in metrics.items():
        print(f"{metric} {value:.6g} {units[metric]}")
    print(json.dumps({"report": report}))
    return {
        "correct": True,
        "attempted": len(outcomes),
        "failed": failed,
        "metrics": {m: {"value": v, "unit": units[m]} for m, v in metrics.items()},
    }
