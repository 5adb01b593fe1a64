"""Spans around the calls into each layer, recorded from outside the program.

The tracer replaces the names ``exactmatching.solver`` imports (and
``networkx.max_weight_matching``, behind every blossom call) with wrappers
that record a span per call: name, start, end, parent span and operation id.
Spans are kept in memory and written out when the run ends.  A boundary
that no longer exists is reported as absent instead of failing the run.

A wrapper's own bookkeeping outside its span (the call into the wrapper,
opening the span, the note after closing it) would otherwise count as its
caller's self time: about a microsecond per call, which matters where an
operation makes hundreds of completion calls.  ``per_call_cost`` measures
it, and ``self_times`` takes it off the caller once per child span.
"""

from __future__ import annotations

import functools
import importlib
import json
import statistics
import time

SOLVER = "exactmatching.solver"

# (module, attribute, span name).  Several attributes may share a span name.
BOUNDARIES = (
    (SOLVER, "min_red_pm", "engines.min_red_pm"),
    (SOLVER, "max_red_pm", "engines.max_red_pm"),
    (SOLVER, "perfect_matching_on", "engines.completion"),
    (SOLVER, "perfect_matching_on_adjacency", "engines.completion"),
    ("networkx", "max_weight_matching", "engines.blossom"),
    (SOLVER, "find_skip", "skips.find_skip"),
    (SOLVER, "find_biskip", "skips.find_biskip"),
    (SOLVER, "apply_skip", "skips.apply"),
    (SOLVER, "apply_biskip", "skips.apply"),
    (SOLVER, "orient", "skips.orient"),
    (SOLVER, "symmetric_difference", "graphs.symmetric_difference"),
    (SOLVER, "apply_cycles", "graphs.apply_cycles"),
    (SOLVER, "validate_matching", "graphs.validate_matching"),
    (SOLVER, "independence_number", "oracle.independence_number"),
    (SOLVER, "bipartite_independence_number", "oracle.bipartite_independence_number"),
    (SOLVER, "run_phase1", "solver.phase1"),
)

OP = "op"
PHASE1 = "solver.phase1"
COMPLETION = "engines.completion"

# Layer of each span name, for the shares of operation time.  Blossom runs
# inside the engines and so is not a layer of its own here.
LAYERS = {
    "engines.min_red_pm": "engines", "engines.max_red_pm": "engines",
    COMPLETION: "engines",
    "skips.find_skip": "skips", "skips.find_biskip": "skips",
    "skips.apply": "skips", "skips.orient": "skips",
    "graphs.symmetric_difference": "graphs", "graphs.apply_cycles": "graphs",
    "graphs.validate_matching": "graphs",
    "oracle.independence_number": "oracle",
    "oracle.bipartite_independence_number": "oracle",
}

CALLS, SECONDS = "calls/op", "s/op"
# Per-layer metric name -> unit.  Counts and times are means per traced
# operation, so they do not grow with the number of operations a run fits.
PER_LAYER = {
    "engines.min_red_pm.calls": CALLS, "engines.min_red_pm.s": SECONDS,
    "engines.max_red_pm.calls": CALLS, "engines.max_red_pm.s": SECONDS,
    "engines.blossom.calls": CALLS, "engines.blossom.s": SECONDS,
    "skips.find_skip.calls": CALLS, "skips.find_skip.s": SECONDS,
    "skips.find_biskip.calls": CALLS, "skips.find_biskip.s": SECONDS,
    "skips.apply.calls": CALLS, "skips.orient.s": SECONDS,
    "graphs.symmetric_difference.calls": CALLS, "graphs.symmetric_difference.s": SECONDS,
    "graphs.apply_cycles.s": SECONDS, "graphs.validate_matching.s": SECONDS,
    "solver.phase1.s": SECONDS, "solver.phase1.self_s": SECONDS,
    "solver.phase1.iterations": "count/op", "solver.phase1.gap": "edges",
    "solver.phase2.s": SECONDS, "solver.phase2.enum_s": SECONDS,
    "solver.phase2.L_used": "edges",
    "engines.completion.calls": CALLS, "engines.completion.s": SECONDS,
    "engines.completion.hit_frac": "ratio",
    "oracle.independence_number.calls": CALLS, "oracle.independence_number.s": SECONDS,
    "oracle.bipartite_independence_number.calls": CALLS,
    "oracle.bipartite_independence_number.s": SECONDS,
    "generators.s": "s",
    "solver.peak_alloc_mb": "MB",
    "trace.overhead": "%",
}


def _phase1_note(args, kwargs, result) -> dict:
    k = args[1] if len(args) > 1 else kwargs["k"]
    note = {"iterations": result.iterations}
    if result.matching is not None:
        note["gap"] = k - result.matching.red_count
    return note


def _completion_note(args, kwargs, result) -> dict:
    return {"hit": result is not None}


NOTES = {PHASE1: _phase1_note, COMPLETION: _completion_note}


class Tracer:
    """In-memory span recorder.  Records only while an operation is open."""

    def __init__(self) -> None:
        # Each span: [name, start, end, parent index, op id, note].
        self.spans: list[list] = []
        self._stack: list[int] = []
        self._op: int | None = None
        self._ops = 0
        self._last_op = 0
        self._patched: list[tuple[object, str, object]] = []
        self.absent: list[str] = []

    def _begin(self, name: str, note: dict | None = None) -> int:
        index = len(self.spans)
        parent = self._stack[-1] if self._stack else None
        self.spans.append([name, 0.0, None, parent, self._op, note])
        self._stack.append(index)
        self.spans[index][1] = time.perf_counter()
        return index

    def _end(self, index: int) -> None:
        self.spans[index][2] = time.perf_counter()
        self._stack.pop()

    def op(self, fn, kind: str):
        """``fn`` as one operation: its span opens just before the call and
        closes just after it, so the harness's own work stays outside."""

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            self._op = self._ops
            self._ops += 1
            self._last_op = self._begin(OP, {"kind": kind})
            try:
                return fn(*args, **kwargs)
            finally:
                self._end(self._last_op)

        return traced

    def end_op(self, note: dict) -> None:
        """Close the last operation and add ``note`` to its span."""
        # A budget alarm can interrupt a wrapper between opening a span and
        # closing it; close whatever the operation left open.
        now = time.perf_counter()
        for span in self.spans[self._last_op:]:
            if span[2] is None:
                span[2] = now
        self._stack.clear()
        self.spans[self._last_op][5].update(note)
        self._op = None

    def wrap(self, fn, name: str):
        note = NOTES.get(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if self._op is None:
                return fn(*args, **kwargs)
            index = self._begin(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._end(index)
            if note is not None:
                self.spans[index][5] = note(args, kwargs, result)
            return result

        return traced

    def install(self, boundaries=None) -> None:
        """Wrap every boundary that exists; list the others in ``absent``."""
        for module_name, attr, name in boundaries or BOUNDARIES:
            try:
                module = importlib.import_module(module_name)
            except ImportError:
                module = None
            original = getattr(module, attr, None)
            if not callable(original):
                self.absent.append(f"{module_name}.{attr}")
                continue
            setattr(module, attr, self.wrap(original, name))
            self._patched.append((module, attr, original))

    def uninstall(self) -> None:
        for module, attr, original in reversed(self._patched):
            setattr(module, attr, original)
        self._patched.clear()

    def write(self, path) -> None:
        keys = ("name", "start", "end", "parent", "op", "note")
        with open(path, "w") as out:
            for span in self.spans:
                out.write(json.dumps(dict(zip(keys, span))) + "\n")


def per_call_cost(calls: int = 2000, repeats: int = 5) -> float:
    """Seconds a traced call spends outside its span beyond a plain call:
    the tracer's cost that lands in the caller's self time (median of
    ``repeats``)."""

    def nothing(*args):
        return None

    costs = []
    for _ in range(repeats):
        tracer = Tracer()
        tracer._op = 0
        traced = tracer.wrap(nothing, COMPLETION)  # with its note, the busiest
        start = time.perf_counter()
        for _ in range(calls):
            nothing()
        plain = time.perf_counter() - start
        start = time.perf_counter()
        for _ in range(calls):
            traced()
        total = time.perf_counter() - start
        inside = sum(s[2] - s[1] for s in tracer.spans)
        costs.append((total - inside - plain) / calls)
    return max(0.0, statistics.median(costs))


def self_times(spans: list[list], per_call: float = 0.0) -> list[float]:
    """Each span's duration minus the time its child spans cover, and minus
    ``per_call`` (the tracer's cost outside a span) for each child span."""
    own = [s[2] - s[1] for s in spans]
    for s in spans:
        if s[3] is not None:
            own[s[3]] -= s[2] - s[1] + per_call
    return own


def layer_metrics(spans: list[list], scale: float = 1.0,
                  per_call: float = 0.0) -> tuple[dict, dict]:
    """Per-layer metrics (means per operation) and each layer's share of op time.

    Times are multiplied by ``scale``, the run's factor to reference speed;
    self times leave out ``per_call`` per child span (see ``per_call_cost``).

    Metrics of the tracer's own, ``generators.s``, ``solver.peak_alloc_mb``
    and ``trace.overhead``, are measured by the harness and not set here.
    """
    own = self_times(spans, per_call)
    ops = [i for i, s in enumerate(spans) if s[0] == OP]
    n_ops = max(1, len(ops))
    calls: dict[str, int] = {}
    seconds: dict[str, float] = {}
    for s in spans:
        calls[s[0]] = calls.get(s[0], 0) + 1
        seconds[s[0]] = seconds.get(s[0], 0.0) + s[2] - s[1]

    phase1 = [s for s in spans if s[0] == PHASE1 and s[5] is not None]
    phase1_child = {s[3]: s[2] - s[1] for s in spans if s[0] == PHASE1}
    solves = [i for i in ops if spans[i][5]["kind"] == "solve"]
    completions = [s for s in spans if s[0] == COMPLETION]
    metrics: dict[str, float] = {}
    for name, unit in PER_LAYER.items():
        span, _, what = name.rpartition(".")
        if what == "calls":
            metrics[name] = calls.get(span, 0) / n_ops
        elif what == "s" and unit == SECONDS:
            metrics[name] = seconds.get(span, 0.0) / n_ops
    metrics["solver.phase1.self_s"] = sum(
        own[i] for i, s in enumerate(spans) if s[0] == PHASE1) / n_ops
    metrics["solver.phase1.iterations"] = _mean(s[5]["iterations"] for s in phase1)
    metrics["solver.phase1.gap"] = _mean(s[5]["gap"] for s in phase1 if "gap" in s[5])
    metrics["solver.phase2.s"] = sum(
        spans[i][2] - spans[i][1] - phase1_child.get(i, 0.0) for i in solves) / n_ops
    # Phase 2 minus the completion and validation calls it makes: the op's
    # own time, since every other callee it reaches directly is a span.
    metrics["solver.phase2.enum_s"] = sum(own[i] for i in solves) / n_ops
    metrics["solver.phase2.L_used"] = _mean(
        spans[i][5]["L_used"] for i in solves if "L_used" in spans[i][5])
    metrics["engines.completion.hit_frac"] = (
        sum(1 for s in completions if s[5] and s[5]["hit"]) / len(completions)
        if completions else 0.0)

    total = sum(spans[i][2] - spans[i][1] for i in ops) or 1.0
    shares: dict[str, float] = {}
    for s in spans:
        layer = LAYERS.get(s[0])
        parent = spans[s[3]][0] if s[3] is not None else None
        # Count a layer's outermost spans only, so nested calls (blossom in
        # completion) are not added twice.
        if layer is not None and LAYERS.get(parent) is None:
            shares[layer] = shares.get(layer, 0.0) + s[2] - s[1]
    shares["solver.phase1.self"] = metrics["solver.phase1.self_s"] * n_ops
    shares["solver.phase2.enum"] = metrics["solver.phase2.enum_s"] * n_ops
    for name, unit in PER_LAYER.items():
        if unit == SECONDS:
            metrics[name] *= scale
    return metrics, {k: v / total for k, v in sorted(shares.items())}


def _mean(values) -> float:
    values = list(values)
    return statistics.fmean(values) if values else 0.0
