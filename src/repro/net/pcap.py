"""Minimal pcap reader / writer, decoding straight into table columns.

The MAWI archive distributes classic libpcap files.  This module
implements the subset needed offline: the classic (non-ng) pcap
container with Ethernet (DLT_EN10MB) or raw-IP (DLT_RAW) link types,
IPv4, and TCP/UDP/ICMP transport headers.  Packets the reader cannot
interpret (non-IPv4, other transports, truncated captures) are skipped,
which matches how header-only MAWI traces are typically consumed.

One columnar decoder serves both entry points, and it builds no
:class:`~repro.net.packet.Packet` per record.  It reads the file in
blocks and decodes each block in two steps:

* the *record walk*, a loop that reads only each record header's
  caplen to find the next record, and checks the framing;
* the *field decode*, vectorized NumPy gathers that decode every
  header field of the walked records at once, for both byte orders and
  both link types, into :class:`~repro.net.table.PacketTable` columns.

:func:`read_pcap` materializes a whole file as a
:class:`~repro.net.trace.Trace` (the offline pipeline's input).
:func:`iter_pcap` yields tables of exactly ``chunk_packets`` rows and
reads ahead one small block, so a capture of any size streams in
bounded memory (the ingestion layer of :mod:`repro.stream`).

Malformed input raises the typed
:class:`~repro.errors.PcapFormatError` carrying the byte offset of the
corruption, never a bare ``struct.error`` and never a silent stop.

Only header fields used by the pipeline are decoded; payload bytes are
never retained.
"""

from __future__ import annotations

import struct
from array import array
from dataclasses import dataclass
from typing import BinaryIO, Iterator, Union

import numpy as np

from repro.errors import PcapError, PcapFormatError
from repro.net.packet import (
    PROTO_ICMP,
    PROTO_TCP,
    PROTO_UDP,
    Packet,
)
from repro.net.table import PacketTable
from repro.net.trace import Trace, TraceMetadata

# ``_windows(raw, k)[offsets]`` gathers the k bytes at every offset as
# one row each, without a (len(offsets), k) index array.
_windows = np.lib.stride_tricks.sliding_window_view

_MAGIC_LE = 0xA1B2C3D4
_MAGIC_BE = 0xD4C3B2A1
_DLT_EN10MB = 1
_DLT_RAW = 101

_GLOBAL_HEADER = struct.Struct("<IHHiIII")
_RECORD_HEADER = struct.Struct("<IIII")
_ETHERNET_HEADER = 14

#: Largest per-record capture length accepted before the file is
#: declared corrupt.  The classic pcap snaplen ceiling is 65535; MAWI
#: header traces are far below it.  A caplen beyond this bound is a
#: corrupted record header, not a giant packet.
MAX_CAPLEN = 1 << 18

#: Timestamps :func:`write_pcap` can store (see :func:`_check_writable`).
_MAX_TIME = float(2**32 - 1)

#: Bytes the decoder reads per block: about four thousand records of a
#: header-only trace, enough to amortize its per-block NumPy calls,
#: while its temporary arrays and :func:`iter_pcap`'s read-ahead stay
#: about half a default 8192-packet batch.  The record walk costs the
#: same per record at any block size.
_BLOCK_BYTES = 1 << 18


@dataclass
class PcapStats:
    """Counters describing a parse run."""

    packets: int = 0
    skipped: int = 0


def _read_global_header(fh: BinaryIO) -> tuple[str, int]:
    """Parse the pcap global header; return (byte order, linktype).

    The byte order is the ``struct`` prefix of the record headers,
    ``"<"`` or ``">"``.  Raises :class:`PcapFormatError` (with byte
    offset) for truncation or a bad magic, :class:`PcapError` for an
    unsupported link type.
    """
    header = fh.read(_GLOBAL_HEADER.size)
    if len(header) < _GLOBAL_HEADER.size:
        raise PcapFormatError(
            f"truncated pcap global header ({len(header)} of "
            f"{_GLOBAL_HEADER.size} bytes)",
            offset=0,
        )
    magic = struct.unpack("<I", header[:4])[0]
    if magic == _MAGIC_LE:
        endian = "<"
    elif magic == _MAGIC_BE:
        endian = ">"
    else:
        raise PcapFormatError(f"bad pcap magic {magic:#x}", offset=0)
    fields = struct.unpack(endian + "IHHiIII", header)
    linktype = fields[6]
    if linktype not in (_DLT_EN10MB, _DLT_RAW):
        raise PcapError(f"unsupported link type {linktype}")
    return endian, linktype


def _walk(buf: bytes, caplen_at) -> tuple[array, int]:
    """Record walk: offsets of the complete records at the head of ``buf``.

    Returns the offsets and the position where the walk stopped: the end
    of ``buf``, an incomplete record, or a caplen above
    :data:`MAX_CAPLEN` (the caller tells them apart).
    """
    size = len(buf)
    last = size - _RECORD_HEADER.size
    starts = array("q")
    append = starts.append
    pos = 0
    while pos <= last:
        (caplen,) = caplen_at(buf, pos)
        end = pos + _RECORD_HEADER.size + caplen
        if caplen > MAX_CAPLEN or end > size:
            break
        append(pos)
        pos = end
    return starts, pos


def _decode(buf: bytes, starts: array, endian: str, linktype: int) -> PacketTable:
    """Field decode: the records of ``buf`` at offsets ``starts`` as rows.

    Applies the reader's skip rules (non-IPv4 frames, IPv4 headers
    shorter than 20 bytes or than the capture, transports other than
    TCP/UDP/ICMP or too short for their fields) and its rewrites (size
    ``max(total_len, 20)``, TCP flags masked to ``0x3F``).  Ports, flags
    and ICMP type are read only on the rows that carry them; the other
    rows gather a harmless in-bounds byte and are zeroed.  A skip rule
    that drops no record gathers nothing, so a clean raw-IP capture
    decodes without per-row subsets.  Every column is C-contiguous and
    owns its memory: none keeps a block's temporary arrays alive.
    """
    raw = np.frombuffer(buf, dtype=np.uint8)
    record = np.frombuffer(starts, dtype=np.int64)
    # ts_sec, ts_usec and caplen of every record header.
    header = _windows(raw, 12)[record].view(endian + "u4")
    ts_sec, ts_usec, caplen = header.T
    ip = record + _RECORD_HEADER.size
    ip_len = caplen.astype(np.int64)
    # ``rows``: the records still decoded, ascending.
    if linktype == _DLT_EN10MB:
        rows = np.flatnonzero(ip_len >= _ETHERNET_HEADER)
        ethertype = ip[rows] + 12
        rows = rows[(raw[ethertype] == 0x08) & (raw[ethertype + 1] == 0x00)]
        ip = ip[rows] + _ETHERNET_HEADER
        ip_len = ip_len[rows] - _ETHERNET_HEADER
    else:
        rows = np.arange(len(record))
    fixed = ip_len >= 20
    if not fixed.all():
        fixed = np.flatnonzero(fixed)
        rows, ip, ip_len = rows[fixed], ip[fixed], ip_len[fixed]
    if not len(rows):  # nothing to decode, and maybe under 20 bytes
        return PacketTable.empty()

    # The fixed IPv4 header as five words in native byte order: version,
    # IHL and total length; id and fragment; TTL, protocol and checksum;
    # src; dst.
    words = _windows(raw, 20)[ip].view(">u4").astype(np.uint32)
    ihl = ((words[:, 0] >> 24) & 0x0F).astype(np.int64) * 4
    proto = (words[:, 2] >> 16) & 0xFF
    transport_len = ip_len - ihl
    tcp = (proto == PROTO_TCP) & (transport_len >= 14)
    udp = (proto == PROTO_UDP) & (transport_len >= 4)
    icmp = (proto == PROTO_ICMP) & (transport_len >= 1)
    kept = ((words[:, 0] >> 28) == 4) & (ihl >= 20) & (tcp | udp | icmp)
    if not kept.all():
        kept = np.flatnonzero(kept)
        rows, words, proto = rows[kept], words[kept], proto[kept]
        tcp, udp, icmp = tcp[kept], udp[kept], icmp[kept]
        ip, ihl = ip[kept], ihl[kept]
    transport = ip + ihl
    if len(rows) < len(record):
        ts_sec, ts_usec = ts_sec[rows], ts_usec[rows]

    has_ports = tcp | udp
    ports = _windows(raw, 4)[np.where(has_ports, transport, 0)].view(">u2")
    flags = raw[np.where(tcp, transport + 13, 0)] & 0x3F
    return PacketTable(
        time=ts_sec + ts_usec / 1e6,
        src=words[:, 3].copy(),
        dst=words[:, 4].copy(),
        sport=np.where(has_ports, ports[:, 0], 0),
        dport=np.where(has_ports, ports[:, 1], 0),
        proto=proto,
        size=np.maximum(words[:, 0] & 0xFFFF, 20),
        tcp_flags=np.where(tcp, flags, 0),
        icmp_type=np.where(icmp, raw[transport], 0),
    )


def _decode_blocks(fh: BinaryIO) -> Iterator[PacketTable]:
    """Decode a pcap stream block by block, in file order.

    Reads :data:`_BLOCK_BYTES` at a time (more when one record needs
    it) and yields the decoded rows of the complete records read so
    far.  A framing error is raised only after the rows of every record
    before it were yielded, with the message and byte offset a
    record-at-a-time parser reports.
    """
    endian, linktype = _read_global_header(fh)
    caplen_at = struct.Struct(endian + "8xI").unpack_from
    header_size = _RECORD_HEADER.size
    base = _GLOBAL_HEADER.size  # file offset of buf[0]
    buf = b""  # the unwalked tail: less than one record
    while True:
        if len(buf) >= header_size:
            (caplen,) = caplen_at(buf, 0)
            if caplen > MAX_CAPLEN:
                raise PcapFormatError(
                    f"corrupt pcap record header: caplen {caplen} exceeds "
                    f"{MAX_CAPLEN}",
                    offset=base,
                )
            need = header_size + caplen - len(buf)
        else:
            need = header_size - len(buf)
        data = fh.read(max(_BLOCK_BYTES, need))
        if not data:
            break
        buf = buf + data if buf else data
        # Only the unwalked tail stays referenced while the consumer
        # works on the yielded rows.
        del data
        starts, pos = _walk(buf, caplen_at)
        decoded = _decode(buf, starts, endian, linktype) if starts else None
        base, buf = base + pos, buf[pos:]
        if decoded is not None:
            yield decoded
    if len(buf) >= header_size:
        raise PcapFormatError(
            f"truncated pcap record body ({len(buf) - header_size} of "
            f"{caplen_at(buf, 0)[0]} bytes)",
            offset=base + header_size,
        )
    if buf:
        raise PcapFormatError(
            f"truncated pcap record header ({len(buf)} of {header_size} "
            "bytes)",
            offset=base,
        )


def read_pcap(path_or_file: Union[str, BinaryIO], name: str = "") -> Trace:
    """Read a classic pcap file into a :class:`Trace`.

    Parameters
    ----------
    path_or_file:
        Filesystem path or an open binary file object.
    name:
        Optional trace name for the metadata; defaults to the path.

    Raises
    ------
    PcapFormatError
        If the file is truncated or corrupt (global header, record
        header or record body); the exception carries the byte offset.
    PcapError
        If the link type is unsupported.
    """
    if isinstance(path_or_file, str):
        with open(path_or_file, "rb") as handle:
            return read_pcap(handle, name=name or path_or_file)
    table = PacketTable.concatenate(_decode_blocks(path_or_file))
    return Trace.from_table(table, TraceMetadata(name=name or "pcap"))


def iter_pcap(
    path_or_file: Union[str, BinaryIO],
    chunk_packets: int = 8192,
) -> Iterator[PacketTable]:
    """Stream a classic pcap file as bounded :class:`PacketTable` batches.

    Every batch holds exactly ``chunk_packets`` rows except the last.
    The file is read :data:`_BLOCK_BYTES` (256 KiB) at a time and the
    reader holds at most one batch of decoded rows beyond that block, so
    ``chunk_packets`` bounds its memory and arbitrarily large captures
    stream in constant memory.  A batch may straddle blocks: its rows do
    not depend on the block size.
    Batches preserve file order (they are *not* re-sorted by time — the
    streaming window handles ordering).  Concatenating every yielded
    table gives exactly the packets :func:`read_pcap` would return.

    Raises the same typed errors as :func:`read_pcap`; a corrupt tail
    raises only after the preceding complete batches were yielded,
    which is what lets a streaming consumer label everything up to the
    corruption point.
    """
    if chunk_packets <= 0:
        raise ValueError("chunk_packets must be positive")
    if isinstance(path_or_file, str):
        with open(path_or_file, "rb") as handle:
            yield from iter_pcap(handle, chunk_packets=chunk_packets)
            return
    pending: list[PacketTable] = []  # decoded rows not yet yielded
    held = 0
    for block in _decode_blocks(path_or_file):
        pending.append(block)
        held += len(block)
        if held < chunk_packets:
            continue
        rows = PacketTable.concatenate(pending)
        full = held - held % chunk_packets
        batches = [
            rows.take(np.arange(start, start + chunk_packets))
            for start in range(0, full, chunk_packets)
        ]
        pending = [rows.take(np.arange(full, held))]
        held -= full
        # Across a yield only ``pending`` and the batches hold rows.
        del block, rows
        yield from batches
    if held:
        yield PacketTable.concatenate(pending)


def _ipv4_bytes(packet: Packet) -> bytes:
    """Serialize a packet as a header-only IPv4 datagram."""
    transport: bytes
    if packet.proto == PROTO_TCP:
        transport = struct.pack(
            ">HHIIBBHHH",
            packet.sport,
            packet.dport,
            0,  # seq
            0,  # ack
            5 << 4,  # data offset
            packet.tcp_flags,
            8192,  # window
            0,  # checksum (unset; readers in this package ignore it)
            0,  # urgent
        )
    elif packet.proto == PROTO_UDP:
        transport = struct.pack(">HHHH", packet.sport, packet.dport, 8, 0)
    else:
        transport = struct.pack(">BBHI", packet.icmp_type, 0, 0, 0)
    total_len = 20 + len(transport)
    header = struct.pack(
        ">BBHHHBBHII",
        0x45,
        0,
        max(packet.size, total_len),
        0,
        0,
        64,
        packet.proto,
        0,  # checksum left zero — readers here ignore it
        packet.src,
        packet.dst,
    )
    return header + transport


def _check_writable(table: PacketTable) -> None:
    """Raise :class:`PcapError` for the first row a pcap record cannot hold.

    The IPv4 total length field holds at most 65535 bytes, and the
    record header stores the time as unsigned 32-bit seconds plus
    microseconds (the last second is excluded: rounding the
    microseconds may carry into it).
    """
    time = table.time
    for field, bad, rule in (
        ("size", table.size > 0xFFFF, "must be at most 65535 bytes"),
        (
            "time",
            ~((time >= 0) & (time < _MAX_TIME)),
            "must be in [0, 2**32 - 1) seconds",
        ),
    ):
        if bad.any():
            index = int(np.argmax(bad))
            value = getattr(table, field)[index]
            raise PcapError(
                f"cannot write packet {index}: {field} {value} ({rule})"
            )


def write_pcap(trace: Trace, path_or_file: Union[str, BinaryIO]) -> PcapStats:
    """Write a trace as a classic little-endian raw-IP pcap file.

    Captured lengths equal the serialized header length; wire lengths
    reflect the packet's declared :attr:`Packet.size`, so byte-volume
    statistics survive a round trip.

    Raises
    ------
    PcapError
        Before anything is written (or a path is opened), if a packet's
        size or time does not fit a classic pcap record.
    """
    _check_writable(trace.table)
    if isinstance(path_or_file, str):
        with open(path_or_file, "wb") as handle:
            return _write_records(trace, handle)
    return _write_records(trace, path_or_file)


def _write_records(trace: Trace, fh: BinaryIO) -> PcapStats:
    fh.write(
        _GLOBAL_HEADER.pack(_MAGIC_LE, 2, 4, 0, 0, 65535, _DLT_RAW)
    )
    stats = PcapStats()
    for packet in trace:
        data = _ipv4_bytes(packet)
        ts_sec = int(packet.time)
        ts_usec = int(round((packet.time - ts_sec) * 1e6))
        if ts_usec >= 1_000_000:
            ts_sec += 1
            ts_usec -= 1_000_000
        fh.write(
            _RECORD_HEADER.pack(ts_sec, ts_usec, len(data), max(packet.size, len(data)))
        )
        fh.write(data)
        stats.packets += 1
    return stats
