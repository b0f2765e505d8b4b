"""Columnar engine acceptance: speedup with byte-identical labels.

The ROADMAP's north star asks the hot path to run "as fast as the
hardware allows"; the columnar packet engine re-expresses Step 1
feature binning, Step 2 traffic extraction and the similarity graph as
NumPy array programs.  This benchmark pins both halves of the claim on
the benchmark synthetic trace:

* end-to-end ``MAWILabPipeline.run`` is at least 3x faster on the
  ``numpy`` engine than on the pure-Python reference engine, and
* ``labels_to_csv`` output is byte-identical between the two.
"""

from __future__ import annotations

import time

from repro.labeling.mawilab import MAWILabPipeline, labels_to_csv
from repro.mawi.archive import SyntheticArchive

from benchmarks.conftest import ARCHIVE_SEED, TRACE_DURATION

BENCH_DATE = "2005-06-01"


def _fresh_trace():
    """A cold trace per run, so neither engine inherits warm caches."""
    archive = SyntheticArchive(
        seed=ARCHIVE_SEED, trace_duration=TRACE_DURATION
    )
    return archive.day(BENCH_DATE).trace


def _run(engine: str):
    trace = _fresh_trace()
    pipeline = MAWILabPipeline(engine=engine)
    started = time.perf_counter()
    result = pipeline.run(trace)
    elapsed = time.perf_counter() - started
    return labels_to_csv(result.labels), elapsed


def test_columnar_engine_3x_and_byte_identical():
    csv_numpy, _warmup = _run("numpy")

    # Best-of-3 for both sides so one scheduler hiccup cannot decide
    # the comparison; the observed gap is ~5-6x, asserted at 3x.
    numpy_best = min(_run("numpy")[1] for _ in range(3))
    python_runs = [_run("python") for _ in range(3)]
    python_best = min(elapsed for _csv, elapsed in python_runs)

    assert csv_numpy == python_runs[0][0]
    assert all(csv == csv_numpy for csv, _elapsed in python_runs)
    assert python_best >= 3.0 * numpy_best, (
        f"columnar speedup {python_best / numpy_best:.2f}x below 3x "
        f"(numpy {numpy_best:.3f}s, python {python_best:.3f}s)"
    )


def test_columnar_alarm_path_2x_and_byte_identical():
    """Steps 2-4 on the numpy kernels run at least 2x the python
    kernels over the same precomputed alarm table, with byte-identical
    labels."""
    trace = _fresh_trace()
    columnar = MAWILabPipeline(engine="numpy")
    reference = MAWILabPipeline(engine="python")
    table = columnar.detect(trace)

    def run_once(pipeline):
        started = time.perf_counter()
        result = pipeline.run_with_alarms(trace, table)
        return labels_to_csv(result.labels), time.perf_counter() - started

    run_once(columnar)  # warm flow-code caches for both engines
    columnar_best = min(run_once(columnar)[1] for _ in range(3))
    object_runs = [run_once(reference) for _ in range(3)]
    object_best = min(elapsed for _csv, elapsed in object_runs)

    csv_columnar = run_once(columnar)[0]
    assert all(csv == csv_columnar for csv, _elapsed in object_runs)
    assert object_best >= 2.0 * columnar_best, (
        f"alarm-path speedup {object_best / columnar_best:.2f}x below 2x "
        f"(numpy {columnar_best:.3f}s, python {object_best:.3f}s)"
    )


def test_engines_identical_across_granularities():
    """CSV parity holds for every similarity granularity, not just the
    default uniflow configuration."""
    from repro.net.flow import Granularity

    for granularity in Granularity:
        outputs = {}
        for engine in ("numpy", "python"):
            pipeline = MAWILabPipeline(
                granularity=granularity, engine=engine
            )
            result = pipeline.run(_fresh_trace())
            outputs[engine] = labels_to_csv(result.labels)
        assert outputs["numpy"] == outputs["python"], granularity
