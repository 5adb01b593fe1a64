"""Tests of the benchmark itself, on a tiny instance set.

Run from the repository root:  python3 -m pytest perfbench
"""

from __future__ import annotations

import json
import signal
import sys
import time
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

import harness  # noqa: E402
import run  # noqa: E402
import tracing  # noqa: E402
from calibration import Calibration  # noqa: E402
from exactmatching import solver  # noqa: E402
from workloads import APPROX, NO, Core, Workload  # noqa: E402

TINY = Workload("tiny", 1.0, (
    Core(("planted", "alpha", 1, 8, 1), 2, hints={"alpha_hint": 1}, draws=3),
    Core(("planted", "beta", 1, 8, 2), 2, draws=3),
    Core(("parity", 6, 2), 1, hints={"alpha_hint": 1}, truth=NO, draws=3),
    Core(("planted", "alpha", 1, 12, 3), 3, op=APPROX, hints={"alpha_hint": 1}, draws=3),
))


@pytest.fixture
def tiny(monkeypatch, tmp_path):
    monkeypatch.setitem(harness.WORKLOADS, "tiny", TINY)
    monkeypatch.setattr(harness, "MIN_OPS", 20)
    monkeypatch.setattr(harness, "OUT_DIR", tmp_path)
    return TINY


def _main(capsys, trace=0):
    code = run.main(["--workload", "tiny", "--seed", "7", "--seconds", "0.05",
                     "--trace", str(trace)])
    lines = capsys.readouterr().out.strip().splitlines()
    return code, lines


@pytest.mark.parametrize("trace, units", [(0, harness.END_TO_END), (1, tracing.PER_LAYER)])
def test_every_metric_is_printed_with_its_unit(tiny, capsys, trace, units):
    code, lines = _main(capsys, trace)
    assert code == 0
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["attempted"] >= 20
    assert {m: v["unit"] for m, v in result["metrics"].items()} == units
    for metric, unit in units.items():
        assert any(line.startswith(metric + " ") and line.endswith(" " + unit)
                   for line in lines), metric
    report = json.loads(lines[-2])["report"]
    assert report["seed"] == 7 and report["nproc"] >= 1
    assert report["failures"] == dict.fromkeys(harness.FAILURE_KINDS, 0)


def test_pool_is_fixed_and_seed_sets_the_order():
    graphs, _ = harness.build_cores(TINY, Calibration())

    def first_pass(seed):
        one_pass = next(harness.passes(TINY, graphs, harness.random.Random(seed)))
        return [(core.label, sorted(graph.colors.items())) for core, graph in one_pass]

    assert first_pass("a") == first_pass("a")
    assert sorted(first_pass("a")) == sorted(first_pass("b"))
    assert first_pass("a") != first_pass("b")


def test_wrong_verdict_trips_the_gate(tiny, capsys, monkeypatch):
    monkeypatch.setattr(solver, "solve_em",
                        lambda graph, k, params: solver.Verdict(solver.NO_CERTIFIED))
    code, lines = _main(capsys)
    assert code == 1
    at = next(i for i, line in enumerate(lines) if line.startswith("WRONG VERDICT"))
    assert json.loads("\n".join(lines[at + 1:]))["n"] > 0  # the instance
    assert not any(line.startswith('{"correct"') for line in lines)


def test_invalid_witness_is_a_wrong_verdict():
    graphs, _ = harness.build_cores(TINY, Calibration())
    core, graph = TINY.cores[0], graphs[0]
    good = solver.solve_em(graph, core.k, core.params())
    harness.check(core, graph, good)
    bad_edges = sorted(good.witness.edges)[1:] + [(0, 0)]
    bad = solver.Verdict(solver.YES, witness=solver.PerfectMatching(
        frozenset(bad_edges), core.k))
    with pytest.raises(harness.WrongVerdict):
        harness.check(core, graph, bad)


def test_recursion_error_counts_as_failure(tiny, capsys, monkeypatch):
    def crash(graph, k, params):
        raise RecursionError("maximum recursion depth exceeded")

    monkeypatch.setattr(solver, "solve_em", crash)
    code, lines = _main(capsys)
    assert code == 0
    result = json.loads(lines[-1])
    report = json.loads(lines[-2])["report"]
    solves = sum(1 for c in TINY.cores if c.op != APPROX)
    assert report["failures"]["RecursionError"] == result["failed"] > 0
    assert report["fail_frac"] == pytest.approx(solves / len(TINY.cores))
    assert result["metrics"]["ok_frac"]["value"] == pytest.approx(1 - report["fail_frac"])


def test_over_budget_is_a_failure_charged_the_budget():
    core = TINY.cores[0]
    previous = signal.signal(signal.SIGALRM, harness._alarm)
    try:
        outcome = harness.run_op(core, None, 0.05, call=lambda *args: time.sleep(1))
    finally:
        signal.signal(signal.SIGALRM, previous)
    assert outcome.failure == harness.OVER_BUDGET
    assert harness.charged(outcome, 0.05) == 0.05


def test_missing_boundary_is_reported_absent():
    tracer = tracing.Tracer()
    tracer.install(tracing.BOUNDARIES + (
        (tracing.SOLVER, "no_such_function", "x.gone"),
        ("no_such_module", "f", "y.gone"),
    ))
    try:
        assert tracer.absent == ["exactmatching.solver.no_such_function",
                                 "no_such_module.f"]
    finally:
        tracer.uninstall()
    assert not hasattr(solver.min_red_pm, "__wrapped__")


def test_traced_run_survives_a_missing_boundary(tiny, capsys, monkeypatch):
    monkeypatch.setattr(tracing, "BOUNDARIES", tracing.BOUNDARIES + (
        (tracing.SOLVER, "no_such_function", "x.gone"),))
    code, lines = _main(capsys, trace=1)
    assert code == 0
    report = json.loads(lines[-2])["report"]
    assert report["absent_boundaries"] == ["exactmatching.solver.no_such_function"]


def test_self_time_subtracts_children():
    spans = [["op", 0.0, 10.0, None, 0, {}], ["a", 1.0, 4.0, 0, 0, None],
             ["b", 2.0, 3.0, 1, 0, None]]
    assert tracing.self_times(spans) == [7.0, 2.0, 1.0]
    assert tracing.self_times(spans, per_call=0.5) == [6.5, 1.5, 1.0]


def test_unsteady_reference_retimes_successes_only(monkeypatch):
    cal = Calibration()
    cal.sample()
    monkeypatch.setattr(cal, "steady", lambda: False)
    core = TINY.cores[0]
    calls = []

    def answer(graph, k, params):
        calls.append(k)
        return solver.Verdict(solver.NO_CERTIFIED)

    def crash(graph, k, params):
        calls.append(k)
        raise RecursionError

    assert harness.timed(core, None, 1.0, cal, call=answer).attempts == harness.RETIMES + 1
    assert len(calls) == harness.RETIMES + 1
    calls.clear()
    outcome = harness.timed(core, None, 1.0, cal, call=crash)
    assert outcome.failure == "RecursionError" and outcome.attempts == 1 == len(calls)
