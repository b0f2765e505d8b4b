"""Tests for the entropy detector and its ensemble integration (§6)."""

import math
from collections import Counter

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.detectors.entropy import (
    _FEATURES,
    ENTROPY_TUNINGS,
    EntropyDetector,
    _entropy_series,
    extended_ensemble,
)
from repro.detectors.planes import PlaneCache
from repro.labeling.mawilab import MAWILabPipeline
from repro.mawi.anomalies import AnomalySpec
from repro.mawi.generator import WorkloadSpec, generate_trace
from repro.net.trace import Trace
from tests import entropy_oracle as oracle
from tests.conftest import assert_alarms_match_oracle, dense_histogram
from tests.kl_oracle import bin_counters


def _entropy_of(counts: Counter) -> float:
    """:func:`_entropy_series` of one histogram row."""
    return float(_entropy_series(np.array([list(counts.values())]))[0])


class TestShannonEntropy:
    """The dense entropy and its Counter reference agree on the
    textbook cases."""

    def test_empty(self):
        assert oracle.shannon_entropy(Counter()) == 0.0
        assert _entropy_series(np.zeros((1, 3), dtype=np.int64)).tolist() == [0.0]

    def test_single_value_zero(self):
        assert oracle.shannon_entropy(Counter({1: 100})) == 0.0
        assert _entropy_of(Counter({1: 100})) == 0.0

    def test_uniform_is_log2_n(self):
        counts = Counter({i: 10 for i in range(8)})
        assert oracle.shannon_entropy(counts) == pytest.approx(3.0)
        assert _entropy_of(counts) == pytest.approx(3.0)

    def test_bounded_by_log2_support(self):
        counts = Counter({1: 5, 2: 90, 3: 5})
        assert 0 < oracle.shannon_entropy(counts) < math.log2(3)
        assert 0 < _entropy_of(counts) < math.log2(3)


@pytest.fixture(scope="module")
def scan_trace():
    """A port scan whose bins raise and lower entropy under every
    tuning (both branches of the responsible values)."""
    spec = WorkloadSpec(
        seed=10,
        duration=30.0,
        anomalies=[
            AnomalySpec("port_scan", intensity=2.0, start=10.0, duration=5.0)
        ],
    )
    return generate_trace(spec)[0]


@pytest.mark.parametrize("source", ["archive_day", "benchmark_day"])
def test_entropy_series_rows_match_the_counter_entropy(
    archive_day, benchmark_day, source
):
    """Every bin of the dense entropy series (the ``entropy_series``
    plane) of a real day, against the Counter entropy of the day's
    per-bin histograms: within a relative 1e-12 (the largest error
    measured on 13 days was 6.8e-16)."""
    trace = (archive_day if source == "archive_day" else benchmark_day).trace
    cache = PlaneCache("numpy")
    for feature in _FEATURES:
        series = cache.get(trace, ("entropy_series", feature, 12))
        expected = [oracle.shannon_entropy(h) for h in bin_counters(trace, feature, 12)]
        assert series.tolist() == pytest.approx(expected, rel=1e-12, abs=0.0)


@given(
    bins=st.lists(
        st.lists(st.integers(0, 7), min_size=1, max_size=12),
        min_size=1,
        max_size=4,
    ),
    top=st.integers(1, 5),
)
@settings(
    max_examples=300,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
def test_responsible_values_match_the_counter_reference(bins, top):
    """Both branches over small alphabets, where equal counts are
    common: the dense picks equal the Counter reference's, in order."""
    histogram, members = dense_histogram(bins)
    detector = EntropyDetector(top_values=top)
    counters = [Counter(values) for values in bins]
    for b in range(len(bins)):
        for falling in (True, False):
            assert detector._responsible_values_dense(
                histogram, b, members[b], falling
            ) == oracle.responsible_values(counters, b, falling, top)


@pytest.mark.parametrize("engine", ["numpy", "python"])
@pytest.mark.parametrize("source", ["scan", "benchmark_day"])
def test_alarms_match_the_counter_reference(
    scan_trace, benchmark_day, engine, source
):
    """The one analysis, on both engines, against the Counter
    reference of ``tests/entropy_oracle.py``."""
    trace = scan_trace if source == "scan" else benchmark_day.trace
    found = 0
    for tuning, params in ENTROPY_TUNINGS.items():
        detector = EntropyDetector(tuning=tuning, engine=engine, **params)
        alarms = detector.analyze(trace)
        assert_alarms_match_oracle(alarms, oracle.analyze(detector, trace))
        found += len(alarms)
    assert found > 0


class TestEntropyDetector:
    def test_empty_trace(self):
        assert EntropyDetector().analyze(Trace([])) == []

    def test_detects_scan_dispersion(self):
        spec = WorkloadSpec(
            seed=10,
            duration=30.0,
            anomalies=[
                AnomalySpec("port_scan", intensity=2.0, start=10.0, duration=5.0)
            ],
        )
        trace, events = generate_trace(spec)
        alarms = EntropyDetector(tuning="sensitive", threshold=2.0).analyze(trace)
        assert alarms
        scanner = events[0].filters[0].src
        reported = set()
        for alarm in alarms:
            for f in alarm.filters:
                reported.add(f.src)
                reported.add(f.dst)
        assert scanner in reported or events[0].filters[0].dst in reported

    def test_alarm_windows_are_bins(self):
        spec = WorkloadSpec(
            seed=10,
            duration=30.0,
            anomalies=[AnomalySpec("ddos", intensity=2.0)],
        )
        trace, _ = generate_trace(spec)
        detector = EntropyDetector(threshold=2.0)
        for alarm in detector.analyze(trace):
            width = alarm.t1 - alarm.t0
            expected = trace.duration / detector.params["n_bins"]
            assert width == pytest.approx(expected, rel=0.01)

    def test_threshold_monotone(self):
        spec = WorkloadSpec(
            seed=10,
            duration=30.0,
            anomalies=[AnomalySpec("ddos", intensity=2.0)],
        )
        trace, _ = generate_trace(spec)
        low = len(EntropyDetector(threshold=2.0).analyze(trace))
        high = len(EntropyDetector(threshold=5.0).analyze(trace))
        assert high <= low


class TestExtendedEnsemble:
    def test_fifteen_configurations(self):
        ensemble = extended_ensemble()
        assert len(ensemble) == 15
        names = {d.config_name for d in ensemble}
        assert {"entropy/optimal", "entropy/sensitive", "entropy/conservative"} <= names

    def test_pipeline_integration(self, archive_day):
        pipeline = MAWILabPipeline(ensemble=extended_ensemble())
        result = pipeline.run(archive_day.trace)
        assert len(result.config_names) == 15
        assert result.labels
        # Entropy votes flow through the confidence machinery.
        families = {
            d for record in result.labels for d in record.detectors
        }
        assert families <= {"pca", "gamma", "hough", "kl", "entropy"}

    def test_tunings_table_complete(self):
        assert set(ENTROPY_TUNINGS) == {"optimal", "sensitive", "conservative"}
