"""The benchmark recorder's summaries, on canned ``perfbench/run.py``
outputs: no benchmark runs here."""

import importlib.util
import json
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
_spec = importlib.util.spec_from_file_location("bench_record", ROOT / "tools" / "bench_record.py")
bench_record = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(bench_record)

BETTER = {"verdict_p50_ms": "lower", "decided_per_s": "higher", "ok_frac": "higher"}


def canned_output(p50, per_s, ok=1.0):
    """What ``run.py --trace 0`` prints: one line per metric, the report,
    then the result object."""
    metrics = {"verdict_p50_ms": (p50, "ms"), "decided_per_s": (per_s, "1/s"),
               "ok_frac": (ok, "ratio")}
    lines = [f"{m} {v:.6g} {unit}" for m, (v, unit) in metrics.items()]
    lines.append(json.dumps({"report": {"workload": "scale_yes", "commit": "abc"}}))
    lines.append(json.dumps({
        "correct": True, "attempted": 100, "failed": 0,
        "metrics": {m: {"value": v, "unit": unit} for m, (v, unit) in metrics.items()}}))
    return "\n".join(lines) + "\n"


def test_parse_run_reads_the_last_line():
    got = bench_record.parse_run(canned_output(2.5, 400.0))
    assert got == {"verdict_p50_ms": 2.5, "decided_per_s": 400.0, "ok_frac": 1.0}


def test_parse_run_rejects_empty_output():
    with pytest.raises(bench_record.RunFailed):
        bench_record.parse_run("\n")


def test_summary_takes_median_and_quartiles():
    runs = [bench_record.parse_run(canned_output(p50, 400.0)) for p50 in (4.0, 1.0, 3.0, 2.0, 5.0)]
    got = bench_record.summarize(runs)
    assert got["runs"] == runs
    assert (got["q1"]["verdict_p50_ms"], got["median"]["verdict_p50_ms"],
            got["q3"]["verdict_p50_ms"]) == (2.0, 3.0, 4.0)
    assert got["median"]["decided_per_s"] == 400.0
    one = bench_record.summarize(runs[:1])
    assert one["q1"] == one["median"] == one["q3"] == runs[0]
    even = bench_record.summarize(runs[:2])
    assert even["median"]["verdict_p50_ms"] == 2.5


def test_pairs_won_follow_each_metric_direction_and_ties_count_for_neither():
    parent = [bench_record.parse_run(canned_output(p50, s)) for p50, s in
              ((2.0, 500.0), (2.0, 500.0), (2.0, 500.0))]
    change = [bench_record.parse_run(canned_output(p50, s)) for p50, s in
              ((1.9, 510.0), (2.1, 490.0), (2.0, 520.0))]
    assert bench_record.pairs_won(change, parent, BETTER) == {
        "verdict_p50_ms": 1, "decided_per_s": 2, "ok_frac": 0}


def test_seed_items():
    assert bench_record.seed_list("7") == [7]
    assert bench_record.seed_list("701-704") == [701, 702, 703, 704]


def test_a_failed_run_stops_the_record(tmp_path):
    # A tree whose run.py reports a wrong verdict, as the real one does.
    (tmp_path / "perfbench").mkdir()
    (tmp_path / "perfbench" / "run.py").write_text(
        "import sys\nprint('WRONG VERDICT on core (k=1): no on a yes-instance')\nsys.exit(1)\n")
    with pytest.raises(bench_record.RunFailed, match="exited 1"):
        bench_record.run_bench(tmp_path, "scale_yes", 1, 1.0)


RUN_PY = """import json, os, pathlib
source = pathlib.Path("src/pkg/mod.py")
if pathlib.Path("touch").exists():
    later = source.stat().st_mtime_ns + 10 ** 9
    os.utime(source, ns=(later, later))
print(json.dumps({"metrics": {"verdict_p50_ms": {"value": 1.0, "unit": "ms"}}}))
"""


@pytest.mark.parametrize("touch", [False, True])
def test_a_source_file_touched_mid_record_fails_the_record(tmp_path, monkeypatch, capsys,
                                                           touch):
    # A tree whose run.py touches one of its source files on every run.
    tree = tmp_path / "tree"
    (tree / "perfbench").mkdir(parents=True)
    (tree / "perfbench" / "run.py").write_text(RUN_PY)
    (tree / "src" / "pkg").mkdir(parents=True)
    (tree / "src" / "pkg" / "mod.py").write_text("X = 1\n")
    (tree / "BENCHMARK.json").write_text(json.dumps({
        "run_seconds": 1, "workloads": [{"name": "w"}],
        "end_to_end": [{"name": "verdict_p50_ms", "better": "lower"}]}))
    if touch:
        (tree / "touch").write_text("")
    monkeypatch.setattr(bench_record, "ROOT", tree)
    code = bench_record.main(["--label", "t", "--seeds", "1", "--out", str(tmp_path)])
    assert code == (1 if touch else 0)
    assert (tmp_path / "BENCH_t.json").exists() is not touch
    assert ("moved during the record" in capsys.readouterr().err) is touch


def test_benchmark_declares_every_metric_direction():
    # The recorder reads each end-to-end metric's direction from here.
    benchmark = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert {m["better"] for m in benchmark["end_to_end"]} <= {"lower", "higher"}
