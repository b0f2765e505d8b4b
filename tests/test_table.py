"""Unit tests for the columnar packet table (repro.net.table)."""

from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.net.flow import Granularity, aggregate_flows
from repro.net.packet import PROTO_ICMP, PROTO_UDP, SYN
from repro.net.table import (
    COLUMNS,
    FlowTable,
    PacketTable,
    aggregate_flows_table,
    flow_codes,
)
from repro.net.trace import Trace
from tests.conftest import make_packet
from tests.flow_table_oracle import lexsort_flow_table


@pytest.fixture
def packets():
    return [
        make_packet(time=2.0, src=1, dst=2, sport=10, dport=80),
        make_packet(time=0.0, src=1, dst=2, sport=10, dport=80, tcp_flags=SYN),
        make_packet(time=1.0, src=3, dst=4, sport=20, dport=53, proto=PROTO_UDP),
        make_packet(
            time=1.5, src=5, dst=6, sport=0, dport=0, proto=PROTO_ICMP,
            icmp_type=8,
        ),
    ]


class TestConstruction:
    def test_from_packets_round_trips(self, packets):
        table = PacketTable.from_packets(packets)
        assert len(table) == 4
        for i, packet in enumerate(packets):
            assert table.packet(i) == packet

    def test_column_dtypes(self, packets):
        table = PacketTable.from_packets(packets)
        assert table.time.dtype == np.float64
        assert table.src.dtype == np.uint32
        assert table.sport.dtype == np.uint16
        assert table.proto.dtype == np.uint8

    def test_column_by_name(self, packets):
        table = PacketTable.from_packets(packets)
        assert table.column("dport")[0] == 80
        with pytest.raises(KeyError):
            table.column("payload")

    def test_mismatched_lengths_rejected(self):
        good = PacketTable.from_packets([make_packet()])
        kwargs = {name: getattr(good, name) for name in COLUMNS}
        kwargs["src"] = np.array([1, 2], dtype=np.uint32)
        with pytest.raises(ValueError):
            PacketTable(**kwargs)

    def test_invalid_protocol_rejected(self):
        good = PacketTable.from_packets([make_packet()])
        kwargs = {name: getattr(good, name) for name in COLUMNS}
        kwargs["proto"] = np.array([99], dtype=np.uint8)
        with pytest.raises(ValueError, match="unsupported protocol"):
            PacketTable(**kwargs)

    def test_immutable(self, packets):
        table = PacketTable.from_packets(packets)
        with pytest.raises(AttributeError):
            table.src = np.zeros(4, dtype=np.uint32)


class TestSortTakeConcat:
    def test_sorted_by_time_is_stable(self):
        table = PacketTable.from_packets(
            [
                make_packet(time=1.0, sport=1),
                make_packet(time=0.0, sport=2),
                make_packet(time=1.0, sport=3),
            ]
        )
        ordered = table.sorted_by_time()
        assert list(ordered.sport) == [2, 1, 3]
        assert ordered.is_time_sorted()

    def test_sorted_table_returned_as_is(self, packets):
        table = PacketTable.from_packets(sorted(packets, key=lambda p: p.time))
        assert table.sorted_by_time() is table

    def test_take_mask_and_indices(self, packets):
        table = PacketTable.from_packets(packets)
        by_mask = table.take(table.proto == PROTO_UDP)
        by_index = table.take(np.array([2]))
        assert len(by_mask) == 1
        assert by_mask.packet(0) == by_index.packet(0) == packets[2]

    def test_concatenate(self, packets):
        one = PacketTable.from_packets(packets[:2])
        two = PacketTable.from_packets(packets[2:])
        merged = PacketTable.concatenate([one, two])
        assert [merged.packet(i) for i in range(4)] == packets

    def test_concatenate_empty(self):
        assert len(PacketTable.concatenate([])) == 0


class TestFlowCodes:
    def test_codes_number_by_first_appearance(self, packets):
        table = PacketTable.from_packets(packets)
        codes, keys = flow_codes(table, Granularity.UNIFLOW)
        # Three distinct uniflows, first-appearance numbering.
        assert list(codes) == [0, 0, 1, 2]
        assert len(keys) == 3
        assert keys[0].dport == 80

    def test_biflow_codes_merge_directions(self):
        fwd = make_packet(time=0.0, src=1, dst=2, sport=10, dport=80)
        rev = make_packet(time=1.0, src=2, dst=1, sport=80, dport=10)
        table = PacketTable.from_packets([fwd, rev])
        codes, keys = flow_codes(table, Granularity.BIFLOW)
        assert list(codes) == [0, 0]
        assert len(keys) == 1

    def test_packet_granularity_rejected(self, packets):
        table = PacketTable.from_packets(packets)
        with pytest.raises(ValueError):
            flow_codes(table, Granularity.PACKET)

    def test_aggregate_matches_reference(self, packets):
        ordered = sorted(packets, key=lambda p: p.time)
        table = PacketTable.from_packets(ordered)
        for granularity in (Granularity.UNIFLOW, Granularity.BIFLOW):
            assert aggregate_flows_table(table, granularity) == aggregate_flows(
                ordered, granularity
            )


# -- radix grouping against the lexsort reference ----------------------

FLOW_GRANULARITIES = [Granularity.UNIFLOW, Granularity.BIFLOW]

#: Key column dtypes.  ``FlowTable`` reads only these five columns, so a
#: namespace holding them stands in for a table; that lets the extremes
#: reach ``proto`` too (a ``PacketTable`` admits protocols 1, 6 and 17).
KEY_DTYPES = {
    "src": np.uint32,
    "dst": np.uint32,
    "sport": np.uint16,
    "dport": np.uint16,
    "proto": np.uint8,
}


class KeyColumns(SimpleNamespace):
    def __len__(self) -> int:
        return len(self.src)


def _key_values(dtype):
    """Small alphabets that collide, plus both ends of each 16-bit
    digit of the dtype."""
    top = int(np.iinfo(dtype).max)
    low_digit = 0xFFFF & top
    edges = [0, 1, top, top - 1, low_digit, (low_digit + 1) & top]
    return st.integers(0, 3) | st.sampled_from(edges) | st.integers(0, top)


@st.composite
def key_tables(draw):
    n = draw(st.sampled_from([0, 1, 2]) | st.integers(0, 60))
    columns = {}
    for name, dtype in KEY_DTYPES.items():
        if draw(st.booleans()):  # one value in every row
            value = draw(_key_values(dtype))
            columns[name] = np.full(n, value, dtype=dtype)
        else:
            columns[name] = np.array(
                draw(st.lists(_key_values(dtype), min_size=n, max_size=n)),
                dtype=dtype,
            )
    return KeyColumns(**columns)


def _assert_matches_oracle(table, granularity):
    flows = FlowTable(table, granularity)
    expected = lexsort_flow_table(table, granularity)
    for name, array in expected.items():
        got = getattr(flows, name)
        assert got.dtype == array.dtype, name
        np.testing.assert_array_equal(got, array, err_msg=name)


class TestRadixGrouping:
    @pytest.mark.parametrize("granularity", FLOW_GRANULARITIES)
    @given(table=key_tables())
    @settings(
        max_examples=150,
        deadline=None,
        suppress_health_check=[HealthCheck.too_slow],
    )
    def test_every_array_matches_lexsort(self, granularity, table):
        _assert_matches_oracle(table, granularity)

    @pytest.mark.parametrize("granularity", FLOW_GRANULARITIES)
    def test_empty_one_row_and_all_equal_tables(self, granularity):
        for n in (0, 1, 5):
            for value in (0, 0xFF):
                table = KeyColumns(
                    **{
                        name: np.full(n, value, dtype=dtype)
                        for name, dtype in KEY_DTYPES.items()
                    }
                )
                _assert_matches_oracle(table, granularity)
                assert len(FlowTable(table, granularity)) == min(n, 1)

    @pytest.mark.parametrize("granularity", FLOW_GRANULARITIES)
    def test_extremes_of_every_column(self, granularity):
        extremes = {
            name: [0, int(np.iinfo(dtype).max)]
            for name, dtype in KEY_DTYPES.items()
        }
        rows = np.array(
            np.meshgrid(*extremes.values(), indexing="ij")
        ).reshape(5, -1)
        rows = np.concatenate([rows, rows[:, ::-1]], axis=1)
        table = KeyColumns(
            **{
                name: rows[j].astype(dtype)
                for j, (name, dtype) in enumerate(KEY_DTYPES.items())
            }
        )
        _assert_matches_oracle(table, granularity)

    @pytest.mark.parametrize("granularity", FLOW_GRANULARITIES)
    def test_more_port_pairs_than_one_digit_holds(self, granularity):
        """Every sport and more than 65,536 distinct (sport, dport)
        pairs: the port digits carry order across passes."""
        rng = np.random.default_rng(28)
        n = 90_000
        table = KeyColumns(
            src=rng.integers(0, 4, n).astype(np.uint32) << np.uint32(30),
            dst=rng.integers(0, 1 << 32, n).astype(np.uint32) | 0xFFFF,
            sport=(np.arange(n) % (1 << 16)).astype(np.uint16),
            dport=rng.integers(0, 1 << 16, n).astype(np.uint16),
            proto=rng.choice([1, 6, 17, 255], n).astype(np.uint8),
        )
        assert len(np.unique(table.sport)) == 1 << 16
        assert len(FlowTable(table, granularity)) > 1 << 16
        _assert_matches_oracle(table, granularity)

    def test_archive_day_matches(self, archive_day):
        for granularity in FLOW_GRANULARITIES:
            _assert_matches_oracle(archive_day.trace.table, granularity)


class TestTraceBacking:
    def test_trace_exposes_table(self, packets):
        trace = Trace(packets)
        assert isinstance(trace.table, PacketTable)
        assert trace.table.is_time_sorted()
        assert len(trace.table) == len(trace)

    def test_from_table_equals_from_packets(self, packets):
        via_objects = Trace(packets)
        via_table = Trace.from_table(PacketTable.from_packets(packets))
        assert via_objects.packets == via_table.packets

    def test_lazy_packets_are_cached(self, packets):
        trace = Trace(packets)
        assert trace[0] is trace[0]
        assert trace.packets is trace.packets

    def test_getitem_supports_slices_and_negative_indices(self, packets):
        trace = Trace(packets)
        ordered = sorted(packets, key=lambda p: p.time)
        assert trace[0:2] == tuple(ordered[0:2])
        assert trace[::-1] == tuple(ordered[::-1])
        assert trace[-1] == ordered[-1]

    def test_merge_traces_columnar(self, packets):
        from repro.net.trace import merge_traces

        merged = merge_traces([Trace(packets[:2]), Trace(packets[2:])])
        assert merged.packets == Trace(packets).packets

    def test_trace_pickles_for_pool_workers(self, packets):
        """LabelingSession.label_traces ships traces into pool workers."""
        import pickle

        trace = Trace(packets)
        clone = pickle.loads(pickle.dumps(trace))
        assert clone.packets == trace.packets
        assert clone.flows().keys() == trace.flows().keys()
