"""Record a before/after run of the benchmark in ``BENCH_<label>.json``.

    python tools/bench_record.py --label pr43 --parent fa8996b --seeds 701-710
    python tools/bench_record.py --label ci --workloads certified_no --seeds 1 --seconds 1

For each workload and seed the unchanged ``perfbench/run.py`` runs once in
this tree and once in the parent tree, the side that runs first alternating
from seed to seed.  ``--parent`` names a directory holding the parent's
files, or a git revision of this repository, which is extracted with
``git archive`` into a temporary directory.  Without ``--parent`` only this
tree runs.  Before any run, ``python -m compileall -q src`` compiles each
tree's package, so the import that ``setup_s`` times reads fresh bytecode on
both sides.  A source file whose time moves after that would be compiled
again by every later import, so the record compares each tree's source file
times after the runs with those at compile time and fails if any moved.  One
more ``--trace 1`` run per workload and side, on the first seed, gives the
per-layer metrics.

The file holds, per workload and side, each run's end-to-end metrics (the
JSON object on the last line of ``run.py``'s output) with their median and
quartiles, and per workload the pairs in which the change is better, with
each metric's direction read from ``BENCHMARK.json``; ties count for
neither side.  It also records each tree's commit, the interpreter and the
core count.  Exit status: 0 after a record is written, 1 when a run fails or
a source file moved; then no file is written.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import subprocess
import sys
import tempfile
from contextlib import ExitStack
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SIDES = ("parent", "change")


class RunFailed(Exception):
    """``run.py`` exited with a failure; nothing is recorded."""


def seed_list(text: str) -> list[int]:
    """The seeds of one ``--seeds`` item: ``7`` or the range ``701-710``."""
    first, _, last = text.partition("-")
    return list(range(int(first), int(last or first) + 1))


def quantile(values: list[float], q: float) -> float:
    """Linear interpolation between order statistics, as ``perfbench``'s
    harness takes its latency quantiles."""
    ordered = sorted(values)
    pos = q * (len(ordered) - 1)
    lo = int(pos)
    hi = min(lo + 1, len(ordered) - 1)
    return ordered[lo] + (ordered[hi] - ordered[lo]) * (pos - lo)


def parse_run(stdout: str) -> dict[str, float]:
    """The metrics of the JSON object on the last line of ``run.py``'s
    output, each as its bare value."""
    lines = stdout.strip().splitlines()
    if not lines:
        raise RunFailed("run.py printed nothing")
    result = json.loads(lines[-1])
    return {name: m["value"] for name, m in result["metrics"].items()}


def summarize(runs: list[dict[str, float]]) -> dict:
    """One side's runs, in seed order, with each metric's median and
    quartiles."""
    names = list(runs[0])
    stats = {label: {m: quantile([r[m] for r in runs], q) for m in names}
             for label, q in (("q1", 0.25), ("median", 0.5), ("q3", 0.75))}
    return {"runs": runs, **stats}


def pairs_won(change: list[dict], parent: list[dict], better: dict[str, str]) -> dict[str, int]:
    """For each metric, the pairs (same seed) in which the change is
    strictly better, in the direction ``better`` gives it."""
    sign = {m: 1 if direction == "higher" else -1 for m, direction in better.items()}
    return {m: sum(1 for c, p in zip(change, parent) if s * (c[m] - p[m]) > 0)
            for m, s in sign.items()}


def run_bench(tree: Path, workload: str, seed: int, seconds: float, trace: bool = False
              ) -> dict[str, float]:
    args = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
            "--seconds", str(seconds), "--trace", str(int(trace))]
    done = subprocess.run(args, cwd=tree, capture_output=True, text=True)
    if done.returncode != 0:
        tail = "\n".join(done.stdout.splitlines()[-5:])
        raise RunFailed(f"{workload} seed {seed} exited {done.returncode} in {tree}:\n"
                        f"{tail}\n{done.stderr}")
    return parse_run(done.stdout)


def source_times(tree: Path) -> dict[Path, int]:
    """The modification time, in ns, of each Python file under ``tree/src``."""
    return {path: path.stat().st_mtime_ns for path in (tree / "src").rglob("*.py")}


def git(cwd: Path, *args: str) -> str | None:
    """The output of ``git args`` in ``cwd``, or None outside a repository."""
    done = subprocess.run(["git", *args], cwd=cwd, capture_output=True, text=True,
                          env={**os.environ, "GIT_CEILING_DIRECTORIES": str(cwd.parent)})
    return done.stdout.strip() if done.returncode == 0 else None


def tree_info(tree: Path) -> dict:
    """The tree's commit and whether its files differ from that commit."""
    commit = git(tree, "rev-parse", "HEAD")
    if commit is None:
        return {"commit": "unknown"}
    return {"commit": commit, "dirty": bool(git(tree, "status", "--porcelain"))}


def parent_tree(spec: str, stack: ExitStack) -> tuple[Path, dict]:
    """The parent's directory and commit: ``spec`` itself when it is a
    directory, else the revision ``spec`` extracted into a temporary one."""
    if Path(spec).is_dir():
        return Path(spec).resolve(), tree_info(Path(spec).resolve())
    commit = git(ROOT, "rev-parse", "--verify", f"{spec}^{{commit}}")
    if commit is None:
        raise RunFailed(f"--parent {spec!r} is neither a directory nor a revision")
    tree = Path(stack.enter_context(tempfile.TemporaryDirectory(prefix="bench-parent-")))
    archive = subprocess.run(["git", "archive", commit], cwd=ROOT, capture_output=True,
                             check=True)
    subprocess.run(["tar", "-x", "-C", str(tree)], input=archive.stdout, check=True)
    return tree, {"commit": commit}


def record(trees: dict[str, Path], workloads: list[str], seeds: list[int], seconds: float,
           better: dict[str, str]) -> dict:
    """Every workload's runs, summaries and pairs won, keyed by workload."""
    out = {}
    for workload in workloads:
        runs: dict[str, list] = {side: [] for side in trees}
        first = []
        for i, seed in enumerate(seeds):
            order = [side for side in (SIDES if i % 2 == 0 else SIDES[::-1]) if side in trees]
            first.append(order[0])
            for side in order:
                runs[side].append(run_bench(trees[side], workload, seed, seconds))
        entry: dict = {"seeds": seeds, "first": first}
        entry.update({side: summarize(runs[side]) for side in trees})
        if "parent" in trees:
            entry["pairs"] = len(seeds)
            entry["pairs_won"] = pairs_won(runs["change"], runs["parent"], better)
        entry["per_layer"] = {side: run_bench(tree, workload, seeds[0], seconds, trace=True)
                              for side, tree in trees.items()}
        out[workload] = entry
        print(report_line(workload, entry), flush=True)
    return out


def report_line(workload: str, entry: dict) -> str:
    change = entry["change"]["median"]
    if "parent" not in entry:
        return f"{workload}: " + ", ".join(f"{m} {v:.4g}" for m, v in change.items())
    parent, won, n = entry["parent"]["median"], entry["pairs_won"], entry["pairs"]
    return f"{workload}: " + ", ".join(
        f"{m} {parent[m]:.4g} -> {change[m]:.4g} ({won[m]}/{n})" for m in change)


def main(argv=None) -> int:
    benchmark = json.loads((ROOT / "BENCHMARK.json").read_text())
    names = [w["name"] for w in benchmark["workloads"]]
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--label", required=True, help="the file is BENCH_<label>.json")
    parser.add_argument("--parent", help="the parent's directory or git revision")
    parser.add_argument("--workloads", nargs="+", choices=names, default=names)
    parser.add_argument("--seeds", nargs="+", type=seed_list, default=[list(range(1, 11))],
                        help="seeds and seed ranges such as 701-710 (default 1-10)")
    parser.add_argument("--seconds", type=float, default=benchmark["run_seconds"])
    parser.add_argument("--out", type=Path, default=ROOT, help="directory of the file")
    args = parser.parse_args(argv)
    seeds = [s for item in args.seeds for s in item]
    better = {m["name"]: m["better"] for m in benchmark["end_to_end"]}

    with ExitStack() as stack:
        try:
            trees = {"change": ROOT}
            info = {"change": tree_info(ROOT)}
            if args.parent is not None:
                trees["parent"], info["parent"] = parent_tree(args.parent, stack)
            for tree in trees.values():
                subprocess.run([sys.executable, "-m", "compileall", "-q", "src"], cwd=tree,
                               check=True)
            compiled = {side: source_times(tree) for side, tree in trees.items()}
            workloads = record(trees, args.workloads, seeds, args.seconds, better)
            for side, tree in trees.items():
                now = source_times(tree)
                moved = sorted({path for path, _ in compiled[side].items() ^ now.items()})
                if moved:
                    raise RunFailed(f"source files of the {side} tree moved during the "
                                    "record, so the runs after the move compiled them again: "
                                    + ", ".join(map(str, moved)))
        except RunFailed as exc:
            print(f"bench_record: {exc}", file=sys.stderr)
            return 1
    path = args.out / f"BENCH_{args.label}.json"
    path.write_text(json.dumps({
        "label": args.label,
        "seconds": args.seconds,
        **info,
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "workloads": workloads,
    }, indent=1) + "\n")
    print(f"wrote {path}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
