"""Unit tests for repro.net.pcap (round trips and error handling)."""

import io
import struct

import pytest

from repro.errors import PcapError
from repro.net.packet import ACK, PROTO_ICMP, PROTO_TCP, PROTO_UDP, SYN
from repro.net import pcap
from repro.net.pcap import read_pcap, write_pcap
from repro.net.table import COLUMN_DTYPES, COLUMNS
from repro.net.trace import Trace
from tests.conftest import make_packet


def _round_trip(trace: Trace) -> Trace:
    buffer = io.BytesIO()
    write_pcap(trace, buffer)
    buffer.seek(0)
    return read_pcap(buffer)


class TestRoundTrip:
    def test_tcp_fields_preserved(self):
        original = Trace(
            [make_packet(time=1.25, sport=1234, dport=80, tcp_flags=SYN, size=60)]
        )
        result = _round_trip(original)
        assert len(result) == 1
        p = result[0]
        assert p.proto == PROTO_TCP
        assert (p.sport, p.dport) == (1234, 80)
        assert p.tcp_flags == SYN
        assert p.size == 60
        assert p.time == pytest.approx(1.25, abs=1e-5)

    def test_udp_and_icmp(self):
        original = Trace(
            [
                make_packet(time=0.0, proto=PROTO_UDP, sport=5353, dport=53),
                make_packet(
                    time=1.0, proto=PROTO_ICMP, sport=0, dport=0, icmp_type=8
                ),
            ]
        )
        result = _round_trip(original)
        protos = sorted(p.proto for p in result)
        assert protos == [PROTO_ICMP, PROTO_UDP]
        icmp = next(p for p in result if p.is_icmp)
        assert icmp.icmp_type == 8

    def test_addresses_preserved(self):
        original = Trace([make_packet(src=0xC0000201, dst=0x08080808)])
        result = _round_trip(original)
        assert result[0].src == 0xC0000201
        assert result[0].dst == 0x08080808

    def test_many_packets(self, tiny_trace):
        result = _round_trip(tiny_trace)
        assert len(result) == len(tiny_trace)
        assert [p.time for p in result] == pytest.approx(
            [p.time for p in tiny_trace], abs=1e-5
        )

    def test_write_returns_stats(self, tiny_trace):
        buffer = io.BytesIO()
        stats = write_pcap(tiny_trace, buffer)
        assert stats.packets == len(tiny_trace)


class TestErrors:
    def test_truncated_header(self):
        with pytest.raises(PcapError):
            read_pcap(io.BytesIO(b"\x00" * 10))

    def test_bad_magic(self):
        data = struct.pack("<IHHiIII", 0xDEADBEEF, 2, 4, 0, 0, 65535, 101)
        with pytest.raises(PcapError):
            read_pcap(io.BytesIO(data))

    def test_unsupported_linktype(self):
        data = struct.pack("<IHHiIII", 0xA1B2C3D4, 2, 4, 0, 0, 65535, 42)
        with pytest.raises(PcapError):
            read_pcap(io.BytesIO(data))

    def test_truncated_record(self):
        header = struct.pack("<IHHiIII", 0xA1B2C3D4, 2, 4, 0, 0, 65535, 101)
        record = struct.pack("<IIII", 0, 0, 100, 100)  # promises 100 bytes
        with pytest.raises(PcapError):
            read_pcap(io.BytesIO(header + record + b"\x00" * 10))

    def test_non_ip_packets_skipped(self):
        header = struct.pack("<IHHiIII", 0xA1B2C3D4, 2, 4, 0, 0, 65535, 101)
        body = b"\x60" + b"\x00" * 19  # IPv6 version nibble
        record = struct.pack("<IIII", 0, 0, len(body), len(body))
        trace = read_pcap(io.BytesIO(header + record + body))
        assert len(trace) == 0

    def test_file_path_round_trip(self, tmp_path, tiny_trace):
        path = str(tmp_path / "trace.pcap")
        write_pcap(tiny_trace, path)
        result = read_pcap(path)
        assert len(result) == len(tiny_trace)


class TestWriteLimits:
    """Values a table holds but a classic pcap record cannot."""

    def test_size_above_65535_is_a_pcap_error(self, tmp_path):
        trace = Trace([make_packet(time=float(i), size=size)
                       for i, size in enumerate([60, 70_000, 80])])
        buffer = io.BytesIO()
        with pytest.raises(PcapError, match=r"packet 1: size 70000"):
            write_pcap(trace, buffer)
        assert buffer.getvalue() == b""
        path = tmp_path / "big.pcap"
        with pytest.raises(PcapError):
            write_pcap(trace, str(path))
        assert not path.exists()

    def test_negative_time_is_a_pcap_error(self):
        trace = Trace([make_packet(time=t) for t in (-0.5, 1.0)])
        buffer = io.BytesIO()
        with pytest.raises(PcapError, match=r"packet 0: time -0.5"):
            write_pcap(trace, buffer)
        assert buffer.getvalue() == b""


# -- decoder branches -----------------------------------------------------
#
# Hand-built records for every branch of the header decoder: both byte
# orders, both link types, IPv4 options, each skip rule and each field
# rewrite.  The expected columns are exact.

_DLT_EN10MB = 1
_DLT_RAW = 101


def _pcap_file(frames, endian="<", linktype=_DLT_RAW) -> bytes:
    """Classic pcap bytes holding ``(ts_sec, ts_usec, frame)`` records."""
    parts = [
        struct.pack(endian + "IHHiIII", 0xA1B2C3D4, 2, 4, 0, 0, 65535, linktype)
    ]
    for ts_sec, ts_usec, frame in frames:
        parts.append(
            struct.pack(endian + "IIII", ts_sec, ts_usec, len(frame), len(frame))
        )
        parts.append(frame)
    return b"".join(parts)


def _ipv4(proto, transport, total_len=None, options=b"", src=0x0A000001,
          dst=0x0A000002, version=4, ihl=None) -> bytes:
    if ihl is None:
        ihl = 5 + len(options) // 4
    if total_len is None:
        total_len = 20 + len(options) + len(transport)
    header = struct.pack(
        ">BBHHHBBHII", (version << 4) | ihl, 0, total_len, 0, 0, 64, proto, 0,
        src, dst,
    )
    return header + options + transport


def _tcp(sport=1234, dport=80, flags=SYN) -> bytes:
    return struct.pack(">HHIIBBHHH", sport, dport, 0, 0, 5 << 4, flags, 8192, 0, 0)


def _udp(sport=5353, dport=53) -> bytes:
    return struct.pack(">HHHH", sport, dport, 8, 0)


def _icmp(icmp_type=8) -> bytes:
    return struct.pack(">BBHI", icmp_type, 0, 0, 0)


def _ethernet(payload, ethertype=0x0800) -> bytes:
    return bytes(range(12)) + struct.pack(">H", ethertype) + payload


def _columns(data: bytes) -> dict:
    table = read_pcap(io.BytesIO(data)).table
    for name in COLUMNS:
        assert table.column(name).dtype == COLUMN_DTYPES[name]
    return {name: table.column(name).tolist() for name in COLUMNS}


def _expected(*rows) -> dict:
    """Columns of ``rows``, each a dict overriding the defaults below."""
    defaults = dict(time=0.0, src=0x0A000001, dst=0x0A000002, sport=0,
                    dport=0, proto=PROTO_TCP, size=20, tcp_flags=0,
                    icmp_type=0)
    full = [{**defaults, **row} for row in rows]
    return {name: [row[name] for row in full] for name in COLUMNS}


class TestDecoderBranches:
    def test_big_endian_file(self):
        frames = [
            (1, 250000, _ipv4(PROTO_TCP, _tcp(1234, 80, SYN), src=0xC0000201,
                              dst=0x08080808)),
            (2, 500000, _ipv4(PROTO_UDP, _udp(5353, 53), total_len=512)),
            (3, 0, _ipv4(PROTO_ICMP, _icmp(3))),
        ]
        data = _pcap_file(frames, ">")
        assert struct.unpack("<I", data[:4])[0] == 0xD4C3B2A1
        assert _columns(data) == _expected(
            dict(time=1.25, src=0xC0000201, dst=0x08080808, sport=1234,
                 dport=80, size=40, tcp_flags=SYN),
            dict(time=2.5, sport=5353, dport=53, proto=PROTO_UDP, size=512),
            dict(time=3.0, proto=PROTO_ICMP, size=28, icmp_type=3),
        )
        assert _columns(data) == _columns(_pcap_file(frames))

    def test_ethernet_keeps_ipv4_and_skips_arp_and_runts(self):
        frames = [
            (1, 0, _ethernet(_ipv4(PROTO_TCP, _tcp(1111, 22, SYN | ACK)))),
            # ARP's ethertype over bytes that would decode as IPv4.
            (2, 0, _ethernet(_ipv4(PROTO_UDP, _udp()), ethertype=0x0806)),
            (3, 0, bytes(13)),
            (4, 0, b""),
            (5, 0, _ethernet(b"")),
            (6, 0, _ethernet(_ipv4(PROTO_UDP, _udp(68, 67)))),
        ]
        assert _columns(_pcap_file(frames, linktype=_DLT_EN10MB)) == _expected(
            dict(time=1.0, sport=1111, dport=22, size=40, tcp_flags=SYN | ACK),
            dict(time=6.0, sport=68, dport=67, proto=PROTO_UDP, size=28),
        )

    def test_ipv4_options_shift_the_transport_header(self):
        frames = [
            (1, 0, _ipv4(PROTO_TCP, _tcp(4000, 443, ACK), options=bytes(4))),
            (2, 0, _ipv4(PROTO_UDP, _udp(7, 9), options=b"\x01" * 40)),
            (3, 0, _ipv4(PROTO_ICMP, _icmp(11), options=bytes(8))),
        ]
        assert _columns(_pcap_file(frames)) == _expected(
            dict(time=1.0, sport=4000, dport=443, size=44, tcp_flags=ACK),
            dict(time=2.0, sport=7, dport=9, proto=PROTO_UDP, size=68),
            dict(time=3.0, proto=PROTO_ICMP, size=36, icmp_type=11),
        )

    def test_bad_header_lengths_are_skipped(self):
        frames = [
            (1, 0, _ipv4(PROTO_TCP, _tcp(), ihl=4)),
            (2, 0, _ipv4(PROTO_TCP, b"", options=bytes(8))[:24]),
            (3, 0, _ipv4(PROTO_UDP, _udp())[:19]),
            (4, 0, _ipv4(PROTO_UDP, _udp(), version=6)),
            (5, 0, _ipv4(PROTO_UDP, _udp(1, 2))),
        ]
        assert _columns(_pcap_file(frames)) == _expected(
            dict(time=5.0, sport=1, dport=2, proto=PROTO_UDP, size=28),
        )

    def test_truncated_transports_are_skipped(self):
        frames = [
            (1, 0, _ipv4(PROTO_TCP, _tcp(10, 20)[:13])),
            (2, 0, _ipv4(PROTO_UDP, _udp(30, 40)[:3])),
            (3, 0, _ipv4(PROTO_ICMP, b"")),
            (4, 0, _ipv4(PROTO_TCP, _tcp(11, 21, 0xFF)[:14])),
            (5, 0, _ipv4(PROTO_UDP, _udp(31, 41)[:4])),
            (6, 0, _ipv4(PROTO_ICMP, _icmp(8)[:1])),
        ]
        assert _columns(_pcap_file(frames)) == _expected(
            dict(time=4.0, sport=11, dport=21, size=34, tcp_flags=0x3F),
            dict(time=5.0, sport=31, dport=41, proto=PROTO_UDP, size=24),
            dict(time=6.0, proto=PROTO_ICMP, size=21, icmp_type=8),
        )

    def test_other_ip_protocols_are_skipped(self):
        frames = [(i, 0, _ipv4(proto, _udp())) for i, proto in
                  enumerate([0, 2, 47, 50, 58, 132, 255], start=1)]
        frames.append((9, 0, _ipv4(PROTO_UDP, _udp(5, 6))))
        assert _columns(_pcap_file(frames)) == _expected(
            dict(time=9.0, sport=5, dport=6, proto=PROTO_UDP, size=28),
        )

    def test_short_total_length_is_clamped_to_20(self):
        frames = [
            (1, 0, _ipv4(PROTO_UDP, _udp(), total_len=0)),
            (2, 0, _ipv4(PROTO_UDP, _udp(), total_len=19)),
            (3, 0, _ipv4(PROTO_UDP, _udp(), total_len=20)),
            (4, 0, _ipv4(PROTO_UDP, _udp(), total_len=65535)),
        ]
        assert _columns(_pcap_file(frames))["size"] == [20, 20, 20, 65535]

    def test_tcp_flag_byte_is_masked_to_six_bits(self):
        frames = [(i, 0, _ipv4(PROTO_TCP, _tcp(flags=flags))) for i, flags in
                  enumerate([0xFF, 0xC2, 0x40, 0x3F, 0x00], start=1)]
        assert _columns(_pcap_file(frames))["tcp_flags"] == [
            0x3F, 0x02, 0x00, 0x3F, 0x00,
        ]

    @pytest.mark.parametrize(
        "frames, linktype",
        [
            (
                [
                    (1, 0, _ipv4(PROTO_TCP, _tcp())),
                    (2, 0, _ipv4(PROTO_UDP, _udp())),
                    (3, 0, _ipv4(PROTO_ICMP, _icmp())),
                ],
                _DLT_RAW,
            ),
            (
                [
                    (1, 0, _ipv4(PROTO_TCP, _tcp(), ihl=4)),
                    (2, 0, _ipv4(PROTO_UDP, _udp())[:19]),
                    (3, 0, _ipv4(PROTO_UDP, _udp(1, 2))),
                    (4, 0, _ipv4(47, _udp())),
                    (5, 0, _ipv4(PROTO_ICMP, _icmp())),
                ],
                _DLT_RAW,
            ),
            (
                [
                    (1, 0, _ethernet(_ipv4(PROTO_TCP, _tcp()))),
                    (2, 0, _ethernet(_ipv4(PROTO_UDP, _udp()), ethertype=0x0806)),
                    (3, 0, _ethernet(_ipv4(PROTO_UDP, _udp()))),
                ],
                _DLT_EN10MB,
            ),
        ],
        ids=["clean", "skipped", "ethernet"],
    )
    def test_decoded_columns_are_contiguous_and_own_their_data(
        self, frames, linktype
    ):
        """No decoded column is a view that keeps a block's gathers
        alive, whether the skip rules drop records or not."""
        data = _pcap_file(frames, linktype=linktype)
        (table,) = pcap._decode_blocks(io.BytesIO(data))
        assert len(table)
        for name in COLUMNS:
            column = table.column(name)
            assert column.flags.c_contiguous and column.flags.owndata, name
