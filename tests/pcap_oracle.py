"""Record-at-a-time pcap parser: the reference for the columnar reader.

This is the reader :mod:`repro.net.pcap` used before it decoded whole
blocks into table columns: it walks the file one record at a time,
decodes each IPv4 datagram into a :class:`~repro.net.packet.Packet`
with ``struct``, and reports the same typed errors at the same byte
offsets.  ``tests/test_pcap_fuzz.py`` compares the columnar reader
against it.
"""

from __future__ import annotations

import io
import struct
from typing import BinaryIO, Iterator, Union

from repro.errors import PcapError, PcapFormatError
from repro.net.packet import PROTO_ICMP, PROTO_TCP, PROTO_UDP, Packet
from repro.net.pcap import _DLT_EN10MB, MAX_CAPLEN, _read_global_header
from repro.net.table import PacketTable

_GLOBAL_HEADER_SIZE = 24


def parse_ipv4(data: bytes, time: float) -> Union[Packet, None]:
    """Decode one IPv4 datagram into a :class:`Packet`, or None."""
    if len(data) < 20:
        return None
    version_ihl = data[0]
    if version_ihl >> 4 != 4:
        return None
    ihl = (version_ihl & 0x0F) * 4
    if ihl < 20 or len(data) < ihl:
        return None
    total_len = struct.unpack_from(">H", data, 2)[0]
    proto = data[9]
    src, dst = struct.unpack_from(">II", data, 12)
    sport = dport = 0
    tcp_flags = 0
    icmp_type = 0
    transport = data[ihl:]
    if proto == PROTO_TCP:
        if len(transport) < 14:
            return None
        sport, dport = struct.unpack_from(">HH", transport, 0)
        tcp_flags = transport[13] & 0x3F
    elif proto == PROTO_UDP:
        if len(transport) < 4:
            return None
        sport, dport = struct.unpack_from(">HH", transport, 0)
    elif proto == PROTO_ICMP:
        if len(transport) < 1:
            return None
        icmp_type = transport[0]
    else:
        return None
    return Packet(
        time=time,
        src=src,
        dst=dst,
        sport=sport,
        dport=dport,
        proto=proto,
        size=max(total_len, 20),
        tcp_flags=tcp_flags,
        icmp_type=icmp_type,
    )


def iter_packets(fh: BinaryIO) -> Iterator[Packet]:
    """Parse packets one at a time, tracking byte offsets for errors."""
    endian, linktype = _read_global_header(fh)
    record = struct.Struct(endian + "IIII")
    offset = _GLOBAL_HEADER_SIZE
    while True:
        rec = fh.read(record.size)
        if not rec:
            break
        if len(rec) < record.size:
            raise PcapFormatError(
                f"truncated pcap record header ({len(rec)} of "
                f"{record.size} bytes)",
                offset=offset,
            )
        ts_sec, ts_usec, caplen, _wirelen = record.unpack(rec)
        if caplen > MAX_CAPLEN:
            raise PcapFormatError(
                f"corrupt pcap record header: caplen {caplen} exceeds "
                f"{MAX_CAPLEN}",
                offset=offset,
            )
        data = fh.read(caplen)
        if len(data) < caplen:
            raise PcapFormatError(
                f"truncated pcap record body ({len(data)} of {caplen} "
                "bytes)",
                offset=offset + record.size,
            )
        offset += record.size + caplen
        if linktype == _DLT_EN10MB:
            if len(data) < 14:
                continue
            ethertype = struct.unpack_from(">H", data, 12)[0]
            if ethertype != 0x0800:
                continue
            data = data[14:]
        packet = parse_ipv4(data, ts_sec + ts_usec / 1e6)
        if packet is not None:
            yield packet


def oracle_run(data: bytes) -> tuple[PacketTable, Union[Exception, None]]:
    """The packets parsed before the stream ended or failed, and the error."""
    packets: list[Packet] = []
    error = None
    try:
        for packet in iter_packets(io.BytesIO(data)):
            packets.append(packet)
    except PcapError as exc:
        error = exc
    return PacketTable.from_packets(packets), error
