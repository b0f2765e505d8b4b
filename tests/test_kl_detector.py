"""Unit tests for the KL-divergence detector."""

from collections import Counter

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.detectors.kl import (
    KL_TUNINGS,
    KLDetector,
    _grown_values_dense,
    _grown_values_vs_baseline,
    _robust_cut,
    _symmetric_kl,
)
from repro.mawi.anomalies import AnomalySpec
from repro.mawi.generator import WorkloadSpec, generate_trace
from repro.net.trace import Trace
from tests import kl_oracle as oracle
from tests.conftest import assert_alarms_match_oracle, dense_histogram


@pytest.fixture(scope="module")
def sasser_trace():
    spec = WorkloadSpec(
        seed=66,
        duration=30.0,
        anomalies=[AnomalySpec("sasser", intensity=2.0, start=12.0, duration=8.0)],
    )
    return generate_trace(spec)


def _grown(histogram, b, members, top):
    """The values of :func:`_grown_values_dense`, as a set."""
    codes = _grown_values_dense(histogram, b, members[b], top)
    return set(histogram.values[codes].tolist())


class TestSymmetricKL:
    def test_identical_histograms_zero(self):
        h = Counter({1: 10, 2: 5})
        assert _symmetric_kl(h, h, 1e-4) == pytest.approx(0.0, abs=1e-6)

    def test_symmetric(self):
        a = Counter({1: 10, 2: 1})
        b = Counter({1: 1, 2: 10})
        assert _symmetric_kl(a, b, 1e-4) == pytest.approx(
            _symmetric_kl(b, a, 1e-4)
        )

    def test_disjoint_histograms_large(self):
        a = Counter({1: 10})
        b = Counter({2: 10})
        assert _symmetric_kl(a, b, 1e-4) > 1.0

    def test_empty_histogram_zero(self):
        assert _symmetric_kl(Counter(), Counter({1: 3}), 1e-4) == 0.0

    def test_nonnegative(self):
        a = Counter({1: 3, 2: 7, 3: 1})
        b = Counter({1: 5, 2: 2, 4: 4})
        assert _symmetric_kl(a, b, 1e-4) >= 0.0


class TestHelpers:
    def test_robust_cut_above_median(self):
        series = np.array([1.0, 1.1, 0.9, 1.0, 5.0])
        cut = _robust_cut(series, threshold=3.0)
        assert cut > 1.0
        assert 5.0 > cut

    def test_grown_values(self):
        histogram, members = dense_histogram(
            [[80] * 50 + [53] * 50, [80] * 50 + [53] * 50 + [445] * 80]
        )
        assert 445 in _grown(histogram, 1, members, top=3)

    def test_grown_values_ignores_shrinkage(self):
        histogram, members = dense_histogram([[80] * 100, [80] * 10])
        assert _grown(histogram, 1, members, top=3) == set()


bin_values = st.lists(st.integers(0, 5), max_size=12)


@given(
    bins=st.lists(bin_values, min_size=2, max_size=4),
    baseline=bin_values,
    top=st.integers(1, 4),
)
@settings(
    max_examples=300,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
def test_grown_values_match_the_counter_reference(bins, baseline, top):
    """Ranked growth over small alphabets, where equal and zero deltas
    are common: the dense ranking keeps the values the Counter
    reference keeps, against the previous bin and against a carried
    baseline."""
    histogram, members = dense_histogram(bins)
    for b in range(1, len(bins)):
        if bins[b]:
            assert _grown(histogram, b, members, top) == oracle.grown_values(
                Counter(bins[b - 1]), Counter(bins[b]), top
            )
    if bins[0]:
        codes = _grown_values_vs_baseline(
            histogram, members[0], Counter(baseline), top
        )
        assert set(histogram.values[codes].tolist()) == oracle.grown_values(
            Counter(baseline), Counter(bins[0]), top
        )


class TestDetection:
    def test_empty_trace(self):
        assert KLDetector().analyze(Trace([])) == []

    def test_detects_sasser_ports(self, sasser_trace):
        trace, _ = sasser_trace
        alarms = KLDetector(tuning="sensitive", threshold=1.8).analyze(trace)
        assert alarms
        ports = {
            f.dport for a in alarms for f in a.filters if f.dport is not None
        }
        ips = {f.src for a in alarms for f in a.filters if f.src is not None}
        assert ports & {1023, 5554, 9898} or ips

    def test_alarms_are_partial_tuples(self, sasser_trace):
        trace, _ = sasser_trace
        for alarm in KLDetector(threshold=1.8).analyze(trace):
            (feature_filter,) = alarm.filters
            assert 1 <= feature_filter.degree <= 4

    def test_lift_filter_drops_steady_rules(self):
        from tests.conftest import make_packet

        detector = KLDetector()
        # Current bin: same port-80 mix as the previous bin -> the
        # mined dport=80 rule has lift ~1 and must be dropped.
        steady = [make_packet(time=1.0, src=i, dport=80) for i in range(20)]
        previous = [make_packet(time=0.0, src=i + 100, dport=80) for i in range(20)]
        alarms = detector._mine_alarms(
            _block(steady), _block(previous), 1.0, 2.0, 1.0
        )
        assert all(
            a.filters[0].dport != 80 or a.filters[0].degree > 1 for a in alarms
        )

    def test_lift_filter_keeps_new_rules(self):
        from tests.conftest import make_packet

        detector = KLDetector()
        # Port 445 did not exist before -> infinite lift -> kept.
        current = [make_packet(time=1.0, src=7, dst=i, dport=445) for i in range(20)]
        previous = [make_packet(time=0.0, src=i + 100, dport=80) for i in range(20)]
        alarms = detector._mine_alarms(
            _block(current), _block(previous), 1.0, 2.0, 1.0
        )
        ports = {a.filters[0].dport for a in alarms}
        assert 445 in ports

    @pytest.mark.parametrize("n_new", [10, 11])
    def test_lift_filter_boundary(self, n_new):
        """A rule covering exactly ``min_lift`` times its previous-bin
        share (10 of 20 rows now, 5 of 20 before) is dropped; one row
        more and it is kept."""
        from tests.conftest import make_packet

        def rows(n, dport, base):
            # Every field but dport distinct, so the only frequent
            # itemset is the dport one.
            return [
                make_packet(
                    time=1.0, src=base + i, dst=base + 100 + i,
                    sport=base + 200 + i, dport=dport(i),
                )
                for i in range(n)
            ]

        detector = KLDetector()
        assert detector.params["min_lift"] == 2.0
        current = rows(n_new, lambda i: 445, 1000) + rows(
            20 - n_new, lambda i: 5000 + i, 2000
        )
        previous = rows(5, lambda i: 445, 3000) + rows(
            15, lambda i: 6000 + i, 4000
        )
        alarms = detector._mine_alarms(
            _block(current), _block(previous), 1.0, 2.0, 1.0
        )
        kept = [a.filters[0].dport for a in alarms]
        assert kept == ([] if n_new == 10 else [445])

    def test_no_duplicate_alarms(self, sasser_trace):
        trace, _ = sasser_trace
        alarms = KLDetector(threshold=1.8).analyze(trace)
        keys = [(a.filters, a.t0, a.t1) for a in alarms]
        assert len(keys) == len(set(keys))

    def test_tiny_trace_no_crash(self):
        from tests.conftest import make_packet

        trace = Trace([make_packet(time=float(i)) for i in range(3)])
        assert KLDetector().analyze(trace) == []


class TestCounterReference:
    """The one analysis, on both engines, against the Counter
    reference of ``tests/kl_oracle.py``."""

    @pytest.mark.parametrize("engine", ["numpy", "python"])
    @pytest.mark.parametrize("source", ["sasser", "benchmark_day"])
    def test_offline_alarms_match(self, sasser_trace, benchmark_day, engine, source):
        trace = sasser_trace[0] if source == "sasser" else benchmark_day.trace
        found = 0
        for tuning, params in KL_TUNINGS.items():
            detector = KLDetector(tuning=tuning, engine=engine, **params)
            alarms = detector.analyze(trace)
            assert_alarms_match_oracle(alarms, oracle.analyze(detector, trace))
            found += len(alarms)
        assert found > 0

    @pytest.mark.parametrize("engine", ["numpy", "python"])
    def test_streamed_windows_match(self, benchmark_day, engine):
        """Six 5 s windows, each scored against the baseline the window
        before it carried; every tuning raises alarms in a bin 0."""
        table = benchmark_day.trace.table
        start = float(table.time.min())
        windows = [
            Trace.from_table(
                table.take(
                    np.flatnonzero(
                        (table.time >= start + lo) & (table.time < start + lo + 5)
                    )
                )
            )
            for lo in range(0, 30, 5)
        ]
        for tuning, params in KL_TUNINGS.items():
            detector = KLDetector(tuning=tuning, engine=engine, **params)
            state, reference = {}, {}
            bin_zero = 0
            for window in windows:
                alarms = detector.analyze_stream(window, state)
                assert_alarms_match_oracle(
                    alarms, oracle.analyze(detector, window, reference)
                )
                assert state["baseline"] == reference["baseline"]
                assert np.array_equal(
                    state["baseline_block"], reference["baseline_block"]
                )
                if window is not windows[0]:
                    bin_zero += sum(a.t0 == window.start_time for a in alarms)
            assert bin_zero > 0, tuning


def _block(packets):
    from repro.net.table import PacketTable
    from repro.rules.itemsets import packet_block

    return packet_block(PacketTable.from_packets(packets))
