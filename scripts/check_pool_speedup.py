#!/usr/bin/env python
"""Check that the shared-memory pool labels archive days at least 2x
faster than one process.

Usage::

    python scripts/check_pool_speedup.py

Labels four synthetic archive days (2005-01-01 to 2005-04-01, seed
2010, 30 s traces) with ``LabelingSession.label_traces``, once in one
process and once with ``WORKERS`` workers sharding the days over shared
memory, alternating the two for ``ROUNDS`` rounds.  Every run gets a
fresh session, so the pool run pays for starting its workers as a
batch job does, and fresh trace objects, so the single process cannot
reuse the feature planes an earlier run attached to them.  Both sides
must write the same label CSVs, and the best single-process time over
the best pool time must reach ``MIN_SPEEDUP``.

The ratio needs parallel hardware: on a host with one CPU the check
prints a notice and exits 0.  It exits 1 when the ratio is below its
floor or the two sides wrote different CSVs.
"""

from __future__ import annotations

import os
import sys
import time

from repro.mawi.archive import SyntheticArchive
from repro.net.trace import Trace
from repro.runner.config import PipelineConfig
from repro.session import LabelingSession

DATES = ["2005-01-01", "2005-02-01", "2005-03-01", "2005-04-01"]
WORKERS = 4
ROUNDS = 5

#: The 2x target less a 20% tolerance.
MIN_SPEEDUP = 1.6


def label(traces, workers: int) -> tuple[float, tuple[str, ...]]:
    """Wall seconds of one ``label_traces`` call and its CSV hashes."""
    traces = [Trace.from_table(t.table, t.metadata) for t in traces]
    with LabelingSession(config=PipelineConfig(), workers=workers) as session:
        started = time.perf_counter()
        report = session.label_traces(traces)
        elapsed = time.perf_counter() - started
    if report.failures():
        raise SystemExit(
            f"workers={workers} failed: "
            f"{[r.error for r in report.failures()]}"
        )
    return elapsed, tuple(r.csv_sha256 for r in report.reports)


def main() -> int:
    cpus = os.cpu_count() or 1
    if cpus <= 1:
        print(
            f"NOTICE: shm_vs_single check SKIPPED (cpu_count={cpus}; "
            "needs a multi-core host)"
        )
        return 0
    archive = SyntheticArchive(seed=2010, trace_duration=30.0)
    traces = [archive.day(date).trace for date in DATES]
    best = {1: float("inf"), WORKERS: float("inf")}
    hashes = set()
    for round_number in range(1, ROUNDS + 1):
        for workers in best:
            elapsed, csvs = label(traces, workers)
            best[workers] = min(best[workers], elapsed)
            hashes.add(csvs)
            print(f"round {round_number}: workers={workers} {elapsed:.3f}s")
    if len(hashes) != 1:
        print("FAIL: single-process and pool runs wrote different CSVs")
        return 1
    ratio = best[1] / best[WORKERS]
    ok = ratio >= MIN_SPEEDUP
    print(
        f"shm_vs_single: {ratio:.2f}x (best {best[1]:.3f}s vs "
        f"{best[WORKERS]:.3f}s, floor {MIN_SPEEDUP:.2f}x) "
        + ("ok" if ok else "REGRESSED")
    )
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
