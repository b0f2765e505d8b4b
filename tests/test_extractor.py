"""Unit tests for the traffic extractor."""

import numpy as np
import pytest

from repro.core.extractor import TrafficExtractor
from repro.detectors.base import Alarm
from repro.net.filters import FeatureFilter
from repro.net.flow import FlowKey, Granularity, biflow_key, uniflow_key
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


# -- window edges, on both engines --------------------------------------


@pytest.fixture
def edge_trace():
    """Flow A (port 80) at 0, 1 and at the last timestamp 3; flow B at 2."""
    return Trace(
        [
            make_packet(time=0.0, src=1, dst=2, sport=100, dport=80),
            make_packet(time=1.0, src=1, dst=2, sport=100, dport=80),
            make_packet(time=2.0, src=3, dst=4, sport=200, dport=53),
            make_packet(time=3.0, src=1, dst=2, sport=100, dport=80),
        ]
    )


def flow_key_alarm(key, t0, t1):
    return Alarm(
        detector="t", config="t/x", t0=t0, t1=t1, flow_keys=frozenset({key})
    )


def label_one_community(trace, engine, community):
    """Step 4 of one accepted community, as the streaming engine runs it."""
    from repro.core.community import CommunitySet
    from repro.core.strategies import Decision
    from repro.labeling.mawilab import MAWILabPipeline

    pipeline = MAWILabPipeline(engine=engine)
    community_set = CommunitySet(
        communities=[community],
        alarms=community.table,
        traffic_sets=[community.traffic],
        granularity=Granularity.UNIFLOW,
        extractor=TrafficExtractor(trace, Granularity.UNIFLOW, engine=engine),
    )
    decision = Decision(community_id=community.id, accepted=True, mu=1.0)
    return pipeline._label_all(community_set, [decision])[0]


@pytest.mark.parametrize("engine", ["numpy", "python"])
class TestWindowEdges:
    def test_flow_key_window_ending_at_trace_end_includes_it(
        self, edge_trace, engine
    ):
        key = uniflow_key(edge_trace[0])
        extractor = TrafficExtractor(edge_trace, Granularity.PACKET, engine=engine)
        assert extractor.extract(flow_key_alarm(key, 1.0, 3.0)) == {1, 3}
        # Elsewhere the window stays half-open.
        assert extractor.extract(flow_key_alarm(key, 0.0, 1.0)) == {0}
        flows = TrafficExtractor(edge_trace, Granularity.UNIFLOW, engine=engine)
        assert flows.extract(flow_key_alarm(key, 2.5, 3.0)) == {key}

    def test_filter_window_ending_at_trace_end_excludes_it(
        self, edge_trace, engine
    ):
        extractor = TrafficExtractor(edge_trace, Granularity.PACKET, engine=engine)
        assert extractor.extract(alarm_for(src=1, t0=1.0, t1=3.0)) == {1}
        flows = TrafficExtractor(edge_trace, Granularity.UNIFLOW, engine=engine)
        assert flows.extract(alarm_for(src=1, t0=2.5, t1=3.0)) == frozenset()

    def test_community_of_keys_absent_from_the_window_labels_unknown(
        self, edge_trace, engine
    ):
        from repro.core.alarm_table import AlarmTable
        from repro.core.community import Community

        absent = FlowKey(src=7, sport=443, dst=8, dport=80, proto=6)
        # A flow carried into the window: its code lies past the
        # window's flows, in the extended table.
        flows = edge_trace.flow_table(Granularity.UNIFLOW).extended([absent])
        table = AlarmTable.from_alarms([flow_key_alarm(absent, 0.0, 1.0)])
        community = Community(
            0,
            (0,),
            table,
            codes=np.array([len(flows)]),
            decode=lambda codes: frozenset(flows.keys_of(codes)),
        )
        assert community.traffic == {absent}
        record = label_one_community(
            edge_trace.with_flow_table(flows), engine, community
        )
        assert (record.heuristic.category, record.heuristic.detail) == (
            "unknown",
            "Unknown",
        )
        # The rules still summarize the community's own flow keys.
        assert [(r.src, r.sport, r.dst, r.dport) for r in record.summary.rules] == [
            (7, 443, 8, 80)
        ]

    def test_one_flow_community_labels_and_mines_its_flow(
        self, edge_trace, engine
    ):
        from repro.core.estimator import SimilarityEstimator

        key = uniflow_key(edge_trace[0])
        result = SimilarityEstimator(engine=engine).build(
            edge_trace, [flow_key_alarm(key, 0.0, 3.0)]
        )
        (community,) = result.communities
        assert community.traffic == {key}
        record = label_one_community(edge_trace, engine, community)
        assert (record.heuristic.category, record.heuristic.detail) == (
            "special",
            "Http",
        )
        (rule,) = record.summary.rules
        assert (rule.src, rule.sport, rule.dst, rule.dport) == (1, 100, 2, 80)
        assert rule.support == 1.0 and record.summary.rule_support == 100.0
