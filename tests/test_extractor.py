"""Unit tests for the traffic extractor."""

import tracemalloc

import numpy as np
import pytest

from repro.core.alarm_table import ALL_ARRAYS, AlarmTable
from repro.core.extractor import TrafficExtractor
from repro.detectors.base import Alarm
from repro.errors import TraceError
from repro.net.filters import FeatureFilter
from repro.net.flow import FlowKey, Granularity, biflow_key, uniflow_key
from repro.net.table import PacketTable
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


# -- filter values, windows and memory -----------------------------------


@pytest.mark.parametrize(
    "field, value",
    [
        ("src", -1),
        ("dst", 1 << 32),
        ("sport", -2),
        ("dport", 1 << 31),
        ("proto", 40000),
    ],
)
def test_filter_field_outside_its_column_raises(field, value):
    with pytest.raises(ValueError, match=field):
        FeatureFilter(**{field: value})


@pytest.mark.parametrize("engine", ["numpy", "python"])
class TestFilterValues:
    def test_largest_field_values_match_their_packet(self, engine):
        top = dict(src=(1 << 32) - 1, dst=(1 << 32) - 1, sport=65535, dport=65535)
        trace = Trace(
            [
                make_packet(time=0.0, **top),
                make_packet(time=1.0, src=1, dst=2, sport=65534, dport=65534),
            ]
        )
        extractor = TrafficExtractor(trace, Granularity.PACKET, engine=engine)
        for field, value in top.items():
            assert extractor.extract(alarm_for(**{field: value})) == {0}, field
        assert extractor.extract(alarm_for(proto=255)) == frozenset()

    def test_inverted_filter_window_raises(self, two_flow_trace, engine):
        extractor = TrafficExtractor(two_flow_trace, Granularity.PACKET, engine=engine)
        alarm = Alarm(
            detector="t",
            config="t/x",
            t0=0.0,
            t1=10.0,
            filters=(FeatureFilter(src=1), FeatureFilter(t0=4.0, t1=2.0)),
        )
        with pytest.raises(TraceError, match=r"empty interval \[4\.0, 2\.0\)"):
            extractor.extract(alarm)


@pytest.mark.parametrize(
    "field, held, value",
    [
        ("src", 1, (1 << 32) + 1),
        ("dst", 2, (1 << 32) + 2),
        ("sport", 100, (1 << 16) + 100),
        ("proto", 6, (1 << 8) + 6),
    ],
)
def test_column_value_no_packet_can_hold_matches_nothing(
    two_flow_trace, field, held, value
):
    """A filter value its packet column cannot hold never matches the
    packets that hold the value's low bits: a cold table (rebuilt from
    columns, as a segment decode does) refuses to hold it, so no
    extraction on either engine sees it, while the value those bits
    spell matches on both."""
    table = AlarmTable.from_alarms([alarm_for(**{field: held})] * 2)
    columns = {name: table.column(name).copy() for name in ALL_ARRAYS}
    columns[f"f_{field}"][1] = value
    with pytest.raises(ValueError, match=f"f_{field}"):
        AlarmTable(**columns, detectors=table.detectors, configs=table.configs)
    for engine in ("numpy", "python"):
        extractor = TrafficExtractor(
            two_flow_trace, Granularity.PACKET, engine=engine
        )
        matched, again = extractor.extract_all(table).graph_input
        assert matched.size and again.tolist() == matched.tolist()


def test_extraction_peak_does_not_grow_with_alarms():
    """Whole-trace ``proto=6`` alarms each match every tenth of 100,000
    rows; the batched pass takes them in slices of bounded size, so its
    tracemalloc peak stays under one bound for 60 and for 600 alarms."""
    n = 100_000
    rows = np.arange(n)
    packets = PacketTable(
        time=rows * 1e-3,
        src=rows % 8,
        dst=rows // 8 % 8,
        sport=np.full(n, 1234),
        dport=np.full(n, 80),
        proto=np.where(rows % 10 == 0, 6, 17),
        size=np.full(n, 100),
        tcp_flags=np.zeros(n),
        icmp_type=np.zeros(n),
    )
    trace = Trace.from_table(packets)
    trace.flow_table(Granularity.UNIFLOW)
    alarm = Alarm(
        detector="t",
        config="t/x",
        t0=0.0,
        t1=float(n),
        filters=(FeatureFilter(proto=6),),
    )
    peaks = []
    for count in (60, 600):
        table = AlarmTable.from_alarms([alarm] * count)
        extractor = TrafficExtractor(trace, Granularity.UNIFLOW, engine="numpy")
        tracemalloc.start()
        try:
            codes = extractor.extract_all(table).graph_input
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
        (expected,) = extractor.extract_all([alarm]).graph_input
        assert len(codes) == count
        assert all(np.array_equal(c, expected) for c in codes)
    assert max(peaks) < 8 << 20, peaks
