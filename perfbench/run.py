"""Benchmark of ``solve_em`` and ``approx_em`` on four workloads.

Run from the root of a source checkout:

    python3 perfbench/run.py --workload planted_yes --seed 1 --seconds 10 --trace 0

The package is imported from ``src/`` of the checkout.  Standard output ends
with one JSON object: ``correct``, ``attempted``, ``failed`` and ``metrics``
(the end-to-end metrics with ``--trace 0``, the per-layer metrics with
``--trace 1``).  The line before it is a JSON report with provenance, the
failure breakdown and the input digest.  Times are reported at reference
speed (see ``calibration.py``).  Exit status: 0 after a correct run,
1 after a wrong verdict (the instance is printed first), 2 when the
benchmark cannot run (no ``src/`` here, or bad benchmark data).
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    src = ROOT / "src"
    if not (src / "exactmatching" / "__init__.py").is_file():
        print(f"no exactmatching package under {src}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(src))
    import harness
    from exactmatching.graphio import serialize_graph

    if args.workload not in harness.WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; "
                     f"choose from {', '.join(harness.WORKLOADS)}")
    try:
        result = harness.run(harness.WORKLOADS[args.workload], args.seed, args.seconds,
                             bool(args.trace), ROOT)
    except harness.WrongVerdict as exc:
        core, graph = exc.instance
        print(f"WRONG VERDICT on {core.label} (k={core.k}): {exc}")
        print(serialize_graph(graph))
        return 1
    except harness.DataError as exc:
        print(f"benchmark data error: {exc}", file=sys.stderr)
        return 2
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
