"""Print one sha256 over the results of every benchmark pool operation.

For each of the 655 operations of the four ``perfbench`` workloads, drawn as
``harness.draw`` draws them, the digest takes ``run_phase1``'s matching,
iteration count and low and high matchings, and for solve operations
``solve_em``'s status, witness, reason, ``L_used``, ``phase1_r`` and
iterations.  An operation that raises contributes its exception type.  Two
checkouts that print the same digest give the same results on the whole
pool, so a change meant to keep every result prints the digest of its
parent.

    python tools/pool_digest.py            # prints the digest
    python tools/pool_digest.py --expect HEX   # exits 1 on a different one
"""

from __future__ import annotations

import argparse
import hashlib
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "perfbench")]

from harness import draw  # noqa: E402
from workloads import SOLVE, WORKLOADS, build  # noqa: E402

from exactmatching import run_phase1, solve_em  # noqa: E402


def _edges(pm) -> list | None:
    return None if pm is None else [list(e) for e in pm.sorted_edges()]


def _record(core, graph) -> list:
    params = core.params()
    try:
        p1 = run_phase1(graph, core.k, params)
        out = [_edges(p1.matching), p1.iterations, _edges(p1.low), _edges(p1.high)]
        if core.op == SOLVE:
            v = solve_em(graph, core.k, params)
            out += [v.status, _edges(v.witness), v.reason, v.L_used, v.phase1_r,
                    v.iterations]
    except Exception as exc:  # a crash is a result too, and must not change
        out = [type(exc).__name__]
    return out


def pool_digest() -> tuple[str, int]:
    """The digest over every pool operation, and the number of operations."""
    h = hashlib.sha256()
    ops = 0
    for name in sorted(WORKLOADS):
        workload = WORKLOADS[name]
        graphs = [build(core.recipe) for core in workload.cores]
        for i, core in enumerate(workload.cores):
            for j in range(core.draws):
                core, graph = draw(workload, graphs, i, j)
                h.update(repr((name, i, j, _record(core, graph))).encode())
                ops += 1
    return h.hexdigest(), ops


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--expect", help="exit 1 unless the digest equals this")
    args = parser.parse_args(argv)
    digest, ops = pool_digest()
    print(f"{digest}  {ops} ops")
    if args.expect is not None and digest != args.expect:
        print(f"pool digest differs: expected {args.expect}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
