"""Unit tests for the KL-divergence detector."""

from collections import Counter

import pytest

from repro.detectors.kl import KLDetector, _grown_values, _robust_cut, _symmetric_kl
from repro.mawi.anomalies import AnomalySpec
from repro.mawi.generator import WorkloadSpec, generate_trace
from repro.net.trace import Trace
import numpy as np


@pytest.fixture(scope="module")
def sasser_trace():
    spec = WorkloadSpec(
        seed=66,
        duration=30.0,
        anomalies=[AnomalySpec("sasser", intensity=2.0, start=12.0, duration=8.0)],
    )
    return generate_trace(spec)


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
        prev = Counter({80: 50, 53: 50})
        curr = Counter({80: 50, 53: 50, 445: 80})
        grown = _grown_values(prev, curr, top=3)
        assert 445 in grown

    def test_grown_values_ignores_shrinkage(self):
        prev = Counter({80: 100})
        curr = Counter({80: 10})
        assert _grown_values(prev, curr, top=3) == set()


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

    def test_no_duplicate_alarms(self, sasser_trace):
        trace, _ = sasser_trace
        alarms = KLDetector(threshold=1.8).analyze(trace)
        keys = [(a.filters, a.t0, a.t1) for a in alarms]
        assert len(keys) == len(set(keys))

    def test_tiny_trace_no_crash(self):
        from tests.conftest import make_packet

        trace = Trace([make_packet(time=float(i)) for i in range(3)])
        assert KLDetector().analyze(trace) == []


def _block(packets):
    from repro.net.table import PacketTable
    from repro.rules.itemsets import packet_block

    return packet_block(PacketTable.from_packets(packets))
