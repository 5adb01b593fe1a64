"""Machine-speed reference for normalizing measured times.

On a shared machine the speed of one core drifts by a third or more over
tens of seconds, as other tenants come and go, and a whole run can fall in
a slow stretch.  So the harness times a fixed reference task before every
operation and after the last: networkx's blossom on a fixed weighted K_20,
code this repository does not contain or change.  A measured time is
reported at reference speed: multiplied by ``NOMINAL_S`` over the mean of
the reference times just before and just after it.  The speed also changes
within a second, so a reference further away tracks it worse: with the
nearest four of samples taken every 0.1 s, ``scale_yes`` p90 spread by 0.2
(quartile distance over median) across five runs; with the two samples
around each operation, by about 0.03.  ``NOMINAL_S`` is the reference's time
on an unloaded 2-core x86-64 machine with Python 3.11 and networkx 3.6,
so there normalized and raw times agree.

Importing a package is file reads and unmarshalling more than computing,
and its speed drifts with other tenants' I/O and memory traffic, which the
blossom reference does not follow.  So an import is timed in a fresh
interpreter between two imports of a fixed set of standard-library modules
(also code this repository does not contain), and reported as its ratio to
them times ``IMPORT_NOMINAL_S``.
"""

from __future__ import annotations

import bisect
import gc
import random
import statistics
import subprocess
import sys
import time

import networkx

NOMINAL_S = 0.005
JUMP = 0.2  # samples further apart than this show the speed changed

IMPORT_REFERENCE = ("import asyncio, csv, concurrent.futures, decimal, email.mime.multipart, "
                    "http.server, logging.handlers, pydoc, tarfile, typing, unittest, "
                    "xml.dom.minidom")
IMPORT_NOMINAL_S = 0.1  # the unit: what the reference import counts as
_IMPORT_PROBE = ("import sys, time; sys.path.insert(0, sys.argv[1]); "
                 "t = time.perf_counter(); exec(sys.argv[2]); "
                 "print(time.perf_counter() - t)")


def _child_import_seconds(path: str, statement: str) -> float:
    done = subprocess.run([sys.executable, "-c", _IMPORT_PROBE, path, statement],
                          capture_output=True, text=True, check=True, timeout=120)
    return float(done.stdout.strip())


def import_seconds(path, module: str) -> float:
    """Time to import ``module`` from ``path`` in a fresh interpreter, at
    reference speed: its ratio to the reference import timed just before
    and just after it, times ``IMPORT_NOMINAL_S``."""
    before = _child_import_seconds(str(path), IMPORT_REFERENCE)
    seconds = _child_import_seconds(str(path), f"import {module}")
    after = _child_import_seconds(str(path), IMPORT_REFERENCE)
    return seconds * IMPORT_NOMINAL_S / ((before + after) / 2)


class Calibration:
    def __init__(self) -> None:
        rng = random.Random(0)
        self._graph = networkx.Graph()
        for u in range(20):
            for v in range(u + 1, 20):
                self._graph.add_edge(u, v, weight=rng.randrange(1, 1000))
        # Bound now, so a traced run's wrapper on the module attribute is
        # never part of the reference.
        self._match = networkx.max_weight_matching
        self._starts: list[float] = []
        self._seconds: list[float] = []

    def sample(self) -> float:
        # With the collector off, the reference does not depend on how much
        # memory the program under test holds.
        gc.disable()
        try:
            start = time.perf_counter()
            self._match(self._graph, maxcardinality=True)
            seconds = time.perf_counter() - start
        finally:
            gc.enable()
        self._starts.append(start)
        self._seconds.append(seconds)
        return seconds

    def steady(self) -> bool:
        """Whether the last two samples agree within ``JUMP``."""
        a, b = self._seconds[-2:]
        return max(a, b) <= (1 + JUMP) * min(a, b)

    def factor(self, at: float) -> float:
        """Scale for a time measured at ``at``: nominal over the mean of the
        reference samples just before and just after it."""
        i = bisect.bisect(self._starts, at)
        return NOMINAL_S / statistics.fmean(self._seconds[max(0, i - 1): i + 1])

    def run_factor(self) -> float:
        """Scale for times spread over the whole run."""
        return NOMINAL_S / statistics.median(self._seconds)

    def median_ms(self) -> float:
        return 1000 * statistics.median(self._seconds)
