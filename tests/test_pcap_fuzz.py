"""Parity fuzz: the columnar pcap reader against the per-record oracle.

Hypothesis generates classic pcap streams over both byte orders and
both link types: well-formed and malformed IPv4 headers, garbage
bodies, random capture lengths, corrupt caplens and a random
truncation point.  :func:`read_pcap` must return the oracle's columns
(values and dtypes) and :func:`iter_pcap` must batch the same rows
exactly ``chunk_packets`` at a time; on a corrupt stream both must
raise the oracle's error at the oracle's byte offset, the streaming
reader only after yielding every complete batch before it.  The
reader's block size is drawn too, down to one byte, so records and
batches straddle block boundaries.
"""

import io
import struct
from unittest import mock

import numpy as np
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from repro.net import pcap
from repro.net.pcap import MAX_CAPLEN, iter_pcap, read_pcap
from repro.net.table import COLUMNS, PacketTable
from repro.net.trace import Trace
from tests.pcap_oracle import oracle_run

_DLT_EN10MB = 1
_DLT_RAW = 101
_CHUNKS = (1, 7, 8192)
_BLOCKS = st.sampled_from([1, 13, 100, 1 << 16, 1 << 18, 1 << 20])
_sometimes = st.sampled_from([False, False, True])
# Transport bytes the reader needs per protocol (TCP, UDP, ICMP).
_TRANSPORT_MIN = {6: 14, 17: 4, 1: 1}


@st.composite
def _ipv4_datagram(draw, clean: bool) -> bytes:
    """A header-only IPv4 datagram; unless ``clean``, often a bad one."""
    if clean:
        version, ihl = 4, draw(st.sampled_from([5, 5, 6, 15]))
        proto = draw(st.sampled_from([6, 17, 1]))
        min_transport = _TRANSPORT_MIN[proto]
    else:
        version = draw(st.sampled_from([4, 4, 4, 6]))
        ihl = draw(st.sampled_from([5, 5, 5, 6, 15, 4, 0]))
        proto = draw(st.sampled_from([6, 6, 17, 17, 1, 1, 47, 58]))
        min_transport = 0
    header = struct.pack(
        ">BBHHHBBHII",
        (version << 4) | ihl,
        0,
        draw(st.integers(0, 0xFFFF)),
        0,
        0,
        64,
        proto,
        0,
        draw(st.integers(0, 0xFFFFFFFF)),
        draw(st.integers(0, 0xFFFFFFFF)),
    )
    options = draw(st.binary(min_size=max(ihl - 5, 0) * 4,
                             max_size=max(ihl - 5, 0) * 4))
    transport = draw(st.binary(min_size=min_transport, max_size=24))
    return header + options + transport


@st.composite
def _frame(draw, linktype: int, clean: bool) -> bytes:
    """One captured frame of ``linktype``; unless ``clean``, maybe
    garbage, a non-IPv4 frame or cut to a random caplen."""
    if clean:
        body, ethertype = draw(_ipv4_datagram(clean)), 0x0800
    else:
        body = draw(st.one_of(_ipv4_datagram(clean), st.binary(max_size=64)))
        ethertype = draw(st.sampled_from([0x0800, 0x0800, 0x0806, 0x86DD]))
    if linktype == _DLT_EN10MB:
        body = bytes(12) + struct.pack(">H", ethertype) + body
    if clean:
        return body
    return body[: draw(st.integers(0, len(body)))]


@st.composite
def _pcap_stream(draw) -> bytes:
    endian = draw(st.sampled_from("<>"))
    linktype = draw(st.sampled_from([_DLT_EN10MB, _DLT_RAW]))
    clean = draw(st.booleans())
    parts = [
        struct.pack(endian + "IHHiIII", 0xA1B2C3D4, 2, 4, 0, 0, 65535, linktype)
    ]
    for _ in range(draw(st.integers(0, 48))):
        frame = draw(_frame(linktype, clean))
        parts.append(
            struct.pack(
                endian + "IIII",
                draw(st.integers(0, 0xFFFFFFFF)),
                draw(st.integers(0, 1_999_999)),
                len(frame),
                len(frame),
            )
        )
        parts.append(frame)
    if draw(_sometimes):
        # A corrupt caplen: the reader must stop at this header, even
        # when that many bytes follow it.
        caplen = draw(st.sampled_from([MAX_CAPLEN + 1, 0xFFFFFFFF]))
        header = struct.pack(endian + "IIII", 0, 0, caplen, caplen)
        parts.append(header)
        if caplen == MAX_CAPLEN + 1 and draw(st.booleans()):
            parts.append(bytes(caplen) + header)
    data = b"".join(parts)
    if draw(_sometimes):
        data = data[: draw(st.integers(0, len(data)))]
    return data


def _corrupt_caplen_with_body() -> bytes:
    """One UDP record, then a caplen over the limit followed by that many
    bytes: with a block that holds them all, the walk itself must stop
    at the corrupt header."""
    udp = struct.pack(">BBHHHBBHIIHHHH", 0x45, 0, 28, 0, 0, 64, 17, 0, 1, 2,
                      53, 53, 8, 0)
    corrupt = struct.pack("<IIII", 0, 0, MAX_CAPLEN + 1, MAX_CAPLEN + 1)
    return b"".join([
        struct.pack("<IHHiIII", 0xA1B2C3D4, 2, 4, 0, 0, 65535, _DLT_RAW),
        struct.pack("<IIII", 1, 0, len(udp), len(udp)),
        udp,
        corrupt,
        bytes(MAX_CAPLEN + 1),
        corrupt,
    ])


def _assert_same_columns(got: PacketTable, expected: PacketTable) -> None:
    for name in COLUMNS:
        assert got.column(name).dtype == expected.column(name).dtype, name
        np.testing.assert_array_equal(got.column(name), expected.column(name))


def _assert_same_error(got: Exception, expected: Exception) -> None:
    assert type(got) is type(expected)
    assert str(got) == str(expected)
    assert getattr(got, "offset", None) == getattr(expected, "offset", None)


_fuzz = settings(
    max_examples=150,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)


@given(_pcap_stream(), _BLOCKS)
@example(_corrupt_caplen_with_body(), 1 << 20)
@_fuzz
def test_read_pcap_matches_oracle(data, block):
    packets, error = oracle_run(data)
    try:
        with mock.patch.object(pcap, "_BLOCK_BYTES", block):
            trace = read_pcap(io.BytesIO(data))
    except Exception as exc:  # compared with the oracle's outcome below
        assert error is not None, f"unexpected {exc!r}"
        _assert_same_error(exc, error)
        return
    assert error is None, f"read_pcap did not raise {error!r}"
    _assert_same_columns(trace.table, Trace.from_table(packets).table)


@given(_pcap_stream(), _BLOCKS)
@example(_corrupt_caplen_with_body(), 1 << 20)
@_fuzz
def test_iter_pcap_batches_match_oracle(data, block):
    packets, error = oracle_run(data)
    for chunk in _CHUNKS:
        batches = []
        raised = None
        try:
            with mock.patch.object(pcap, "_BLOCK_BYTES", block):
                for batch in iter_pcap(io.BytesIO(data), chunk_packets=chunk):
                    batches.append(batch)
        except Exception as exc:  # compared with the oracle's outcome below
            raised = exc
        if error is None:
            assert raised is None, f"unexpected {raised!r}"
            expected = packets
        else:
            assert raised is not None, f"iter_pcap did not raise {error!r}"
            _assert_same_error(raised, error)
            # Only the complete batches before the corruption arrive.
            expected = packets.take(np.arange(len(packets) - len(packets) % chunk))
        sizes = [len(batch) for batch in batches]
        assert all(size == chunk for size in sizes[:-1])
        assert not sizes or 0 < sizes[-1] <= chunk
        assert sum(sizes) == len(expected)
        _assert_same_columns(PacketTable.concatenate(batches), expected)
