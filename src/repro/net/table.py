"""Columnar packet storage: the struct-of-arrays store behind every trace.

A :class:`PacketTable` holds one NumPy array per packet header field
(timestamps, addresses, ports, protocol, length, TCP flags, ICMP type).
It is the columnar twin of the :class:`~repro.net.packet.Packet`
dataclass: row ``i`` of the table and ``Packet`` number ``i`` of the
trace describe the same captured datagram, and :meth:`PacketTable.packet`
materializes one from the other.

Everything downstream of :class:`~repro.net.trace.Trace` that used to
scan Python objects packet-by-packet — feature-filter matching, traffic
extraction, flow aggregation, detector feature binning — operates on
these arrays instead.  The object-based code paths survive as reference
kernels selected through the engine layer (:mod:`repro.engine`); the
parity suite asserts both produce identical results.

Column dtypes
-------------
``time``       float64 — capture timestamp in seconds.
``src, dst``   uint32  — IPv4 addresses as 32-bit integers.
``sport, dport`` uint16 — transport ports (0 for ICMP).
``proto``      uint8   — IP protocol number (1/6/17).
``size``       int64   — IP datagram length in bytes.
``tcp_flags``  uint8   — TCP flag byte (0 for non-TCP).
``icmp_type``  uint8   — ICMP type (0 for non-ICMP).
"""

from __future__ import annotations

from typing import Iterable, Optional, Sequence

import numpy as np

from repro.net.flow import FlowKey, Granularity
from repro.net.packet import PROTO_ICMP, PROTO_TCP, PROTO_UDP, Packet

#: Column name -> dtype, in Packet field order.
COLUMN_DTYPES: dict[str, np.dtype] = {
    "time": np.dtype(np.float64),
    "src": np.dtype(np.uint32),
    "dst": np.dtype(np.uint32),
    "sport": np.dtype(np.uint16),
    "dport": np.dtype(np.uint16),
    "proto": np.dtype(np.uint8),
    "size": np.dtype(np.int64),
    "tcp_flags": np.dtype(np.uint8),
    "icmp_type": np.dtype(np.uint8),
}

COLUMNS = tuple(COLUMN_DTYPES)


class PacketTable:
    """Struct-of-arrays packet storage (one NumPy array per field).

    Construction validates the same invariants as
    :class:`~repro.net.packet.Packet` — supported protocol numbers and
    positive sizes — but vectorized; ports are range-checked by the
    uint16 dtype itself.
    """

    __slots__ = tuple(COLUMNS)

    def __init__(
        self,
        time: np.ndarray,
        src: np.ndarray,
        dst: np.ndarray,
        sport: np.ndarray,
        dport: np.ndarray,
        proto: np.ndarray,
        size: np.ndarray,
        tcp_flags: np.ndarray,
        icmp_type: np.ndarray,
    ) -> None:
        values = {
            "time": time,
            "src": src,
            "dst": dst,
            "sport": sport,
            "dport": dport,
            "proto": proto,
            "size": size,
            "tcp_flags": tcp_flags,
            "icmp_type": icmp_type,
        }
        n = None
        for name, value in values.items():
            column = np.asarray(value, dtype=COLUMN_DTYPES[name])
            if column.ndim != 1:
                raise ValueError(f"column {name!r} must be one-dimensional")
            if n is None:
                n = len(column)
            elif len(column) != n:
                raise ValueError(
                    f"column {name!r} has {len(column)} rows, expected {n}"
                )
            object.__setattr__(self, name, column)
        self._validate()

    def __setattr__(self, name: str, value) -> None:
        raise AttributeError("PacketTable is immutable")

    def __reduce__(self):
        # Slots + the immutability guard above break default pickling
        # (the batch runner ships traces into pool workers); rebuild
        # through the constructor instead.
        return (PacketTable, tuple(getattr(self, name) for name in COLUMNS))

    def _validate(self) -> None:
        proto = self.proto
        if proto.size:
            supported = (
                (proto == PROTO_ICMP) | (proto == PROTO_TCP) | (proto == PROTO_UDP)
            )
            if not supported.all():
                bad = int(proto[~supported][0])
                raise ValueError(f"unsupported protocol {bad}")
            if not (self.size > 0).all():
                raise ValueError("packet size must be positive")

    # -- construction --------------------------------------------------

    @classmethod
    def from_packets(cls, packets: Sequence[Packet]) -> "PacketTable":
        """Build a table from packet objects (one C-level pass per column)."""
        n = len(packets)
        return cls(
            time=np.fromiter((p.time for p in packets), np.float64, count=n),
            src=np.fromiter((p.src for p in packets), np.uint32, count=n),
            dst=np.fromiter((p.dst for p in packets), np.uint32, count=n),
            sport=np.fromiter((p.sport for p in packets), np.uint16, count=n),
            dport=np.fromiter((p.dport for p in packets), np.uint16, count=n),
            proto=np.fromiter((p.proto for p in packets), np.uint8, count=n),
            size=np.fromiter((p.size for p in packets), np.int64, count=n),
            tcp_flags=np.fromiter(
                (p.tcp_flags for p in packets), np.uint8, count=n
            ),
            icmp_type=np.fromiter(
                (p.icmp_type for p in packets), np.uint8, count=n
            ),
        )

    @classmethod
    def empty(cls) -> "PacketTable":
        return cls(*([np.empty(0)] * len(COLUMNS)))

    @classmethod
    def concatenate(cls, tables: Iterable["PacketTable"]) -> "PacketTable":
        """Stack several tables row-wise (order preserved)."""
        tables = list(tables)
        if not tables:
            return cls.empty()
        return cls(
            **{
                name: np.concatenate([getattr(t, name) for t in tables])
                for name in COLUMNS
            }
        )

    # -- container protocol --------------------------------------------

    def __len__(self) -> int:
        return len(self.time)

    def column(self, name: str) -> np.ndarray:
        """Column array by name (``KeyError`` for unknown names)."""
        if name not in COLUMN_DTYPES:
            raise KeyError(f"unknown column {name!r}")
        return getattr(self, name)

    def packet(self, index: int) -> Packet:
        """Materialize row ``index`` as a :class:`Packet` object."""
        return Packet(
            time=float(self.time[index]),
            src=int(self.src[index]),
            dst=int(self.dst[index]),
            sport=int(self.sport[index]),
            dport=int(self.dport[index]),
            proto=int(self.proto[index]),
            size=int(self.size[index]),
            tcp_flags=int(self.tcp_flags[index]),
            icmp_type=int(self.icmp_type[index]),
        )

    def take(self, indices) -> "PacketTable":
        """Row subset (by index array or boolean mask), order preserved."""
        indices = np.asarray(indices)
        return PacketTable(
            **{name: getattr(self, name)[indices] for name in COLUMNS}
        )

    def sorted_by_time(self) -> "PacketTable":
        """Stable time-sort (ties keep their current order)."""
        time = self.time
        if time.size == 0 or bool((time[:-1] <= time[1:]).all()):
            return self
        order = np.argsort(time, kind="stable")
        return self.take(order)

    def is_time_sorted(self) -> bool:
        time = self.time
        return time.size == 0 or bool((time[:-1] <= time[1:]).all())

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"PacketTable(n={len(self)})"


# -- flow encoding -----------------------------------------------------
#
# Flow-aware layers (the traffic extractor, Trace.flows) need a
# per-packet *flow code*: a dense integer identifying the packet's flow
# at a granularity.  Codes are numbered by first appearance, so code
# order matches the insertion order of the object-based
# ``aggregate_flows`` reference exactly.


def flow_codes(
    table: PacketTable, granularity: Granularity
) -> tuple[np.ndarray, list[FlowKey]]:
    """Per-packet flow codes plus the code -> :class:`FlowKey` table.

    Returns ``(codes, keys)`` where ``codes[i]`` is the dense id (int64,
    numbered by first appearance) of packet ``i``'s flow and
    ``keys[code]`` is the corresponding flow key — canonically ordered
    for ``Granularity.BIFLOW``, literal for ``Granularity.UNIFLOW``.
    """
    if granularity is Granularity.PACKET:
        raise ValueError("packets have no flow key; use packet indices instead")
    n = len(table)
    src = table.src.astype(np.uint64)
    dst = table.dst.astype(np.uint64)
    sport = table.sport.astype(np.uint64)
    dport = table.dport.astype(np.uint64)
    if granularity is Granularity.BIFLOW:
        # Canonical endpoint order: the (address, port) pair comparison
        # of ``biflow_key`` equals comparing the packed 48-bit integers.
        forward = (src << np.uint64(16)) | sport
        backward = (dst << np.uint64(16)) | dport
        swap = forward > backward
        src, dst = np.where(swap, dst, src), np.where(swap, src, dst)
        sport, dport = (
            np.where(swap, dport, sport),
            np.where(swap, sport, dport),
        )
    # Pack the 5-tuple into two uint64 words (64 + 40 bits used) and
    # group them with a stable sort: each group's rows stay in row
    # order, so its first sorted row is the flow's first appearance.
    high = (src << np.uint64(32)) | dst
    low = (
        (sport << np.uint64(24))
        | (dport << np.uint64(8))
        | table.proto.astype(np.uint64)
    )
    order = np.lexsort((low, high))
    starts = np.ones(n, dtype=bool)
    high, low = high[order], low[order]
    starts[1:] = (high[1:] != high[:-1]) | (low[1:] != low[:-1])
    group = np.cumsum(starts) - 1
    # Number the flows by first appearance: the rank of each flow's
    # first row among all first rows.
    first = np.zeros(n, dtype=bool)
    first[order[starts]] = True
    rank = np.cumsum(first) - 1
    codes = np.empty(n, dtype=np.int64)
    codes[order] = rank[order[starts]][group]
    rows = np.nonzero(first)[0]
    keys = list(
        map(
            FlowKey,
            src[rows].tolist(),
            sport[rows].tolist(),
            dst[rows].tolist(),
            dport[rows].tolist(),
            table.proto[rows].tolist(),
        )
    )
    return codes, keys


def aggregate_flows_table(
    table: PacketTable,
    granularity: Granularity = Granularity.UNIFLOW,
    codes: Optional[np.ndarray] = None,
    keys: Optional[list[FlowKey]] = None,
):
    """Vectorized twin of :func:`repro.net.flow.aggregate_flows`.

    Produces the identical ``{FlowKey: Flow}`` mapping — same insertion
    order, same per-flow statistics, same ``packet_indices`` — from the
    columnar table.  ``codes``/``keys`` may be passed when already
    computed (e.g. by a :class:`~repro.core.extractor.TrafficExtractor`).
    """
    from repro.net.flow import Flow

    if granularity is Granularity.PACKET:
        raise ValueError("cannot aggregate flows at packet granularity")
    if codes is None or keys is None:
        codes, keys = flow_codes(table, granularity)
    n_flows = len(keys)
    flows: dict[FlowKey, Flow] = {}
    if n_flows == 0:
        return flows

    counts = np.bincount(codes, minlength=n_flows)
    byte_sums = np.bincount(codes, weights=table.size, minlength=n_flows)
    is_tcp = table.proto == PROTO_TCP
    flags = table.tcp_flags
    from repro.net.packet import FIN, RST, SYN

    def _flag_counts(bit: int) -> np.ndarray:
        return np.bincount(
            codes, weights=(is_tcp & ((flags & bit) > 0)), minlength=n_flows
        )

    syn_counts = _flag_counts(SYN)
    fin_counts = _flag_counts(FIN)
    rst_counts = _flag_counts(RST)
    icmp_counts = np.bincount(
        codes, weights=(table.proto == PROTO_ICMP), minlength=n_flows
    )

    # Group packet indices per flow: a stable sort by code keeps the
    # indices ascending inside each group, matching append order.
    order = np.argsort(codes, kind="stable")
    boundaries = np.cumsum(counts)[:-1]
    groups = np.split(order, boundaries)

    time = table.time
    for code, key in enumerate(keys):
        indices = groups[code]
        flow = Flow(key=key)
        flow.packets = int(counts[code])
        flow.bytes = int(byte_sums[code])
        flow.syn_count = int(syn_counts[code])
        flow.fin_count = int(fin_counts[code])
        flow.rst_count = int(rst_counts[code])
        flow.icmp_count = int(icmp_counts[code])
        group_times = time[indices]
        flow.first_time = float(group_times.min())
        flow.last_time = float(group_times.max())
        flow.packet_indices = [int(i) for i in indices]
        flows[key] = flow
    return flows
