"""Section 6 — runtime of the full pipeline on one trace.

The paper reports that combining alarms for one 15-minute MAWI trace
takes a few minutes, compatible with real-time analysis.  This
benchmark times the whole 4-step pipeline (12 detector configurations,
similarity estimator, SCANN, rule mining) on one synthetic archive day
and asserts it stays well inside real time (trace duration).
"""

from __future__ import annotations

import time

from repro.core.extractor import TrafficExtractor
from repro.core.graph import build_similarity_graph
from repro.detectors.registry import run_ensemble
from repro.labeling.mawilab import MAWILabPipeline
from repro.net.flow import Granularity


def test_pipeline_runtime(archive, benchmark):
    day = archive.day("2005-06-01")
    pipeline = MAWILabPipeline()

    result = benchmark(pipeline.run, day.trace)

    assert result.labels
    # Real-time capable: mean runtime below the trace duration.
    assert benchmark.stats["mean"] < day.trace.duration


def test_combiner_runtime_excluding_detectors(archive, benchmark):
    """Steps 2-4 only (the paper's 'few minutes to combine alarms')."""
    day = archive.day("2005-06-01")
    pipeline = MAWILabPipeline()
    alarms = []
    for detector in pipeline.ensemble:
        alarms.extend(detector.analyze(day.trace))

    result = benchmark(pipeline.run_with_alarms, day.trace, alarms)

    assert result.labels
    assert benchmark.stats["mean"] < day.trace.duration


def test_similarity_graph_build_runtime(archive, benchmark):
    """Vectorized graph construction vs the pure-Python reference."""
    day = archive.day("2005-06-01")
    alarms = run_ensemble(day.trace)
    traffic_sets = TrafficExtractor(
        day.trace, Granularity.UNIFLOW
    ).extract_all(alarms).traffic_sets

    graph = benchmark(
        build_similarity_graph,
        traffic_sets,
        edge_threshold=0.1,
        engine="numpy",
    )

    # Best-of-3 for the reference so one slow outlier can't flatter the
    # comparison, plus 1.5x slack against shared-runner noise; the
    # vectorized path is ~3x faster, so real regressions still trip it.
    reference_elapsed = []
    for _ in range(3):
        t0 = time.perf_counter()
        reference = build_similarity_graph(
            traffic_sets, edge_threshold=0.1, engine="python"
        )
        reference_elapsed.append(time.perf_counter() - t0)
    assert graph.adjacency == reference.adjacency
    assert benchmark.stats["mean"] <= 1.5 * min(reference_elapsed)
