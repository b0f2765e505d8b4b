"""Unit tests for the traffic extractor."""

import pytest

from repro.core.extractor import TrafficExtractor
from repro.detectors.base import Alarm
from repro.net.filters import FeatureFilter
from repro.net.flow import Granularity, biflow_key, uniflow_key
from repro.net.trace import Trace
from tests.conftest import make_packet


@pytest.fixture
def two_flow_trace():
    """Flow A->B on port 80 (fwd+rev) and C->D on port 53."""
    packets = [
        make_packet(time=0.0, src=1, dst=2, sport=100, dport=80),
        make_packet(time=1.0, src=1, dst=2, sport=100, dport=80),
        make_packet(time=1.5, src=2, dst=1, sport=80, dport=100),
        make_packet(time=2.0, src=3, dst=4, sport=200, dport=53),
        make_packet(time=3.0, src=3, dst=4, sport=200, dport=53),
    ]
    return Trace(packets)


def alarm_for(src=None, t0=0.0, t1=10.0, **kw):
    return Alarm(
        detector="t",
        config="t/x",
        t0=t0,
        t1=t1,
        filters=(FeatureFilter(src=src, t0=t0, t1=t1, **kw),),
    )


class TestPacketGranularity:
    def test_filter_matching(self, two_flow_trace):
        extractor = TrafficExtractor(two_flow_trace, Granularity.PACKET)
        traffic = extractor.extract(alarm_for(src=1))
        assert traffic == frozenset({0, 1})

    def test_time_bounded(self, two_flow_trace):
        extractor = TrafficExtractor(two_flow_trace, Granularity.PACKET)
        traffic = extractor.extract(alarm_for(src=1, t0=0.5, t1=10.0))
        assert traffic == frozenset({1})

    def test_no_match(self, two_flow_trace):
        extractor = TrafficExtractor(two_flow_trace, Granularity.PACKET)
        assert extractor.extract(alarm_for(src=99)) == frozenset()


class TestFlowGranularities:
    def test_uniflow_keys(self, two_flow_trace):
        extractor = TrafficExtractor(two_flow_trace, Granularity.UNIFLOW)
        traffic = extractor.extract(alarm_for(src=1))
        assert traffic == frozenset({uniflow_key(two_flow_trace[0])})

    def test_biflow_merges_directions(self, two_flow_trace):
        extractor = TrafficExtractor(two_flow_trace, Granularity.BIFLOW)
        fwd = extractor.extract(alarm_for(src=1))
        rev = extractor.extract(alarm_for(src=2))
        assert fwd == rev == frozenset({biflow_key(two_flow_trace[0])})

    def test_paper_figure1_semantics(self, two_flow_trace):
        """Alarms on disjoint packets of one flow are similar at flow
        granularity but not at packet granularity (paper Fig. 1)."""
        early = alarm_for(src=1, t0=0.0, t1=0.5)
        late = alarm_for(src=1, t0=0.9, t1=1.2)
        packet_extractor = TrafficExtractor(two_flow_trace, Granularity.PACKET)
        flow_extractor = TrafficExtractor(two_flow_trace, Granularity.UNIFLOW)
        assert not (
            packet_extractor.extract(early) & packet_extractor.extract(late)
        )
        assert flow_extractor.extract(early) & flow_extractor.extract(late)


class TestFlowKeyAlarms:
    def test_explicit_flow_keys(self, two_flow_trace):
        key = uniflow_key(two_flow_trace[0])
        alarm = Alarm(
            detector="t", config="t/x", t0=0.0, t1=10.0,
            flow_keys=frozenset({key}),
        )
        extractor = TrafficExtractor(two_flow_trace, Granularity.PACKET)
        assert extractor.extract(alarm) == frozenset({0, 1})

    def test_flow_keys_respect_time_window(self, two_flow_trace):
        key = uniflow_key(two_flow_trace[0])
        alarm = Alarm(
            detector="t", config="t/x", t0=0.0, t1=0.5,
            flow_keys=frozenset({key}),
        )
        extractor = TrafficExtractor(two_flow_trace, Granularity.PACKET)
        assert extractor.extract(alarm) == frozenset({0})

    def test_unknown_flow_key_ignored(self, two_flow_trace):
        from repro.net.flow import FlowKey

        alarm = Alarm(
            detector="t", config="t/x", t0=0.0, t1=10.0,
            flow_keys=frozenset({FlowKey(9, 9, 9, 9, 6)}),
        )
        extractor = TrafficExtractor(two_flow_trace, Granularity.UNIFLOW)
        assert extractor.extract(alarm) == frozenset()


class TestPacketsOf:
    def test_identity_at_packet_granularity(self, two_flow_trace):
        extractor = TrafficExtractor(two_flow_trace, Granularity.PACKET)
        assert extractor.packets_of(frozenset({0, 3})) == [0, 3]

    def test_uniflow_expansion(self, two_flow_trace):
        extractor = TrafficExtractor(two_flow_trace, Granularity.UNIFLOW)
        traffic = extractor.extract(alarm_for(src=1))
        assert extractor.packets_of(traffic) == [0, 1]

    def test_biflow_expansion_covers_both_directions(self, two_flow_trace):
        extractor = TrafficExtractor(two_flow_trace, Granularity.BIFLOW)
        traffic = extractor.extract(alarm_for(src=1))
        assert extractor.packets_of(traffic) == [0, 1, 2]

    def test_extract_all_alignment(self, two_flow_trace):
        extractor = TrafficExtractor(two_flow_trace, Granularity.PACKET)
        alarms = [alarm_for(src=1), alarm_for(src=3)]
        sets = extractor.extract_all(alarms).traffic_sets
        assert sets[0] == frozenset({0, 1})
        assert sets[1] == frozenset({3, 4})
