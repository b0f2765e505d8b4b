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

import copy
from itertools import chain
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
# Flow-aware layers (the traffic extractor, the Table-1 heuristics,
# rule mining, Trace.flows) need a per-packet *flow code*: a dense
# integer identifying the packet's flow at a granularity.  Codes are
# numbered by first appearance, so code order matches the insertion
# order of the object-based ``aggregate_flows`` reference exactly.

#: The packed-key dtype of :meth:`FlowTable.lookup`: the two key words
#: big-endian, so byte order is numeric (high word, low word) order.
_PACKED_KEY = np.dtype(">u8")


def _pack(src, sport, dst, dport, proto) -> tuple[np.ndarray, np.ndarray]:
    """A 5-tuple of unsigned columns as two uint64 words (64 + 40 bits
    used), built in place to keep temporaries few."""
    high = src.astype(np.uint64)
    high <<= np.uint64(32)
    high |= dst
    low = sport.astype(np.uint64)
    low <<= np.uint64(16)
    low |= dport
    low <<= np.uint64(8)
    low |= proto
    return high, low


def value_row_keys(column: np.ndarray) -> np.ndarray:
    """The rows of an unsigned column of at most 32 bits, sorted by
    value, then row, as ``uint64`` keys ``value << 32 | row``.

    NumPy sorts the packed keys with its SIMD sort, where an argsort of
    the column would sort indirectly.  Rows are numbered in 32 bits.
    """
    keys = column.astype(np.uint64)
    keys <<= np.uint64(32)
    # Row numbers a slice at a time: no second n-row array.
    for first in range(0, len(column), 1 << 14):
        last = min(first + (1 << 14), len(column))
        keys[first:last] |= np.arange(first, last, dtype=np.uint64)
    keys.sort()
    return keys


def _radix_order(columns) -> np.ndarray:
    """Stable sort permutation of the rows by ``columns`` (most
    significant first; unsigned, at most 32 bits each).

    LSD radix passes, least significant digit first: a 32-bit column is
    two 16-bit digits, and NumPy sorts ``uint16``/``uint8`` keys by
    radix under ``kind="stable"``, so each digit is one linear pass.
    The result is ``np.lexsort`` of the columns.
    """
    order = None
    for column in reversed(columns):
        if column.itemsize > 2:
            digits = (
                (column & 0xFFFF).astype(np.uint16),
                (column >> 16).astype(np.uint16),
            )
        else:
            digits = (column,)
        for digit in digits:
            if order is None:
                order = np.argsort(digit, kind="stable")
            else:
                order = order[np.argsort(digit[order], kind="stable")]
    return order


def _packed_keys(high: np.ndarray, low: np.ndarray) -> np.ndarray:
    """One 16-byte value per key that compares like ``(high, low)``."""
    packed = np.empty((len(high), 2), dtype=_PACKED_KEY)
    packed[:, 0] = high
    packed[:, 1] = low
    return packed.view(np.dtype("V16")).ravel()


class FlowTable:
    """The flows of one packet table at one granularity.

    :meth:`~repro.net.trace.Trace.flow_table` builds one per trace and
    granularity.  Flows are numbered ``0..F-1`` by first appearance.

    Attributes
    ----------
    codes:
        ``(n,)`` int64: the flow code of each packet row.
    first_row:
        ``(F,)`` int64: each flow's first row, ascending.
    rows, offsets:
        The code -> rows index: ``rows[offsets[c]:offsets[c + 1]]``
        are flow ``c``'s rows, ascending.
    key_columns:
        ``(F, 5)`` int64: each flow's src, sport, dst, dport and proto
        (:class:`FlowKey` field order; canonical endpoint order at
        biflow granularity), indexed by code.

    :class:`FlowKey` objects are built only on request: :meth:`keys`
    for all flows, :meth:`keys_of` for some.

    :meth:`extended` appends flows with no packet here: they take the
    codes past the table (``len(table)`` onwards), and have key columns
    but no rows.
    """

    __slots__ = (
        "granularity",
        "codes",
        "first_row",
        "rows",
        "offsets",
        "key_columns",
        "_sorted_keys",
        "_sorted_codes",
        "_keys",
    )

    def __init__(self, table: PacketTable, granularity: Granularity) -> None:
        if granularity is Granularity.PACKET:
            raise ValueError(
                "packets have no flow key; use packet indices instead"
            )
        n = len(table)
        src, dst = table.src, table.dst
        sport, dport = table.sport, table.dport
        if granularity is Granularity.BIFLOW:
            # Canonical endpoint order: the (address, port) pair
            # comparison of ``biflow_key`` equals comparing the packed
            # 48-bit integers.
            forward = (src.astype(np.uint64) << np.uint64(16)) | sport
            backward = (dst.astype(np.uint64) << np.uint64(16)) | dport
            swap = forward > backward
            src, dst = np.where(swap, dst, src), np.where(swap, src, dst)
            sport, dport = (
                np.where(swap, dport, sport),
                np.where(swap, sport, dport),
            )
        # Group the keys with a stable sort in packed-key order (src,
        # dst, sport, dport, proto): each group's rows stay in row
        # order, so its first sorted row is the flow's first appearance.
        key = (src, dst, sport, dport, table.proto)
        order = _radix_order(key)
        starts = np.zeros(n, dtype=bool)
        starts[:1] = True
        for column in key:
            column = column[order]
            starts[1:] |= column[1:] != column[:-1]
        group_start = np.flatnonzero(starts)
        group_rows = order[group_start]
        # Number the flows by first appearance: the rank of each flow's
        # first row among all first rows.
        first = np.zeros(n, dtype=bool)
        first[group_rows] = True
        group_code = (np.cumsum(first) - 1)[group_rows]
        codes = np.empty(n, dtype=np.int64)
        codes[order] = np.repeat(group_code, np.diff(np.append(group_start, n)))
        first_row = np.flatnonzero(first)
        # The code -> rows index: ``order`` holds each flow's rows as
        # one ascending run; lay the runs out in code order.
        n_flows = len(group_start)
        group_of = np.empty(n_flows, dtype=np.int64)
        group_of[group_code] = np.arange(n_flows)
        sizes = np.diff(np.append(group_start, n))[group_of]
        offsets = np.zeros(n_flows + 1, dtype=np.int64)
        np.cumsum(sizes, out=offsets[1:])
        rows = order[
            np.repeat(group_start[group_of] - offsets[:-1], sizes)
            + np.arange(n, dtype=np.int64)
        ]
        fields = (src, sport, dst, dport, table.proto)
        key_columns = np.empty((n_flows, 5), dtype=np.int64)
        for j, column in enumerate(fields):
            key_columns[:, j] = column[first_row]
        self.granularity = granularity
        self.codes = codes
        self.first_row = first_row
        self.rows = rows
        self.offsets = offsets
        self.key_columns = key_columns
        self._sorted_keys = _packed_keys(
            *_pack(*(column[group_rows] for column in fields))
        )
        self._sorted_codes = group_code
        self._keys: Optional[list[Optional[FlowKey]]] = None

    def __len__(self) -> int:
        return len(self.first_row)

    @property
    def nbytes(self) -> int:
        """Bytes held by the table's arrays."""
        return sum(
            int(array.nbytes)
            for array in (
                self.codes,
                self.first_row,
                self.rows,
                self.offsets,
                self.key_columns,
                self._sorted_keys,
                self._sorted_codes,
            )
        )

    def keys(self) -> list[FlowKey]:
        """Every flow's :class:`FlowKey`, indexed by code."""
        return self.keys_of(range(len(self)))

    def keys_of(self, codes) -> list[FlowKey]:
        """The :class:`FlowKey` of each code in ``codes``, in order.

        Keys are built on first request and kept, so every traffic set
        decoded from this table shares one object per flow.
        """
        codes = codes.tolist() if isinstance(codes, np.ndarray) else list(codes)
        if self._keys is None:
            self._keys = [None] * len(self.key_columns)
        keys = self._keys
        missing = [c for c in codes if keys[c] is None]
        if missing:
            built = map(FlowKey._make, self.key_columns[missing].tolist())
            for code, key in zip(missing, built):
                keys[code] = key
        return [keys[c] for c in codes]

    def extended(self, keys) -> "FlowTable":
        """This table plus the flows ``keys``, which have no packet here.

        ``keys`` is ``(m, 5)`` like :attr:`key_columns`, none of them a
        flow of this table.  They take the codes past the table,
        ``len(self)`` onwards in order, with key columns and empty row
        ranges.  Every other array is shared: the packets keep their
        codes, and ``len``, :meth:`keys` and :meth:`lookup` still see
        the flows with packets only.
        """
        table = copy.copy(self)
        keys = np.asarray(keys, dtype=np.int64).reshape(-1, 5)
        table.offsets = np.concatenate(
            [self.offsets, np.full(len(keys), self.offsets[-1])]
        )
        table.key_columns = np.concatenate([self.key_columns, keys])
        table._keys = None
        return table

    def lookup(self, keys) -> np.ndarray:
        """The code of each key; ``-1`` for keys with no packet here.

        ``keys`` is ``(m, 5)`` like :attr:`key_columns`.  One binary
        search over the flows' sorted packed keys serves all of them.
        """
        keys = np.asarray(keys, dtype=np.uint64).reshape(-1, 5)
        found = np.full(len(keys), -1, dtype=np.int64)
        if len(self) == 0 or len(keys) == 0:
            return found
        wanted = _packed_keys(*_pack(*keys.T))
        at = np.minimum(
            np.searchsorted(self._sorted_keys, wanted), len(self) - 1
        )
        hit = self._sorted_keys[at] == wanted
        found[hit] = self._sorted_codes[at[hit]]
        return found

    def codes_of(self, traffic_sets) -> list[np.ndarray]:
        """Sorted codes of each set of :class:`FlowKey`\\ s.

        Keys with no packet here are dropped.  One :meth:`lookup`
        serves every set.
        """
        if not traffic_sets:
            return []
        sizes = np.fromiter(map(len, traffic_sets), np.int64, len(traffic_sets))
        keys = np.fromiter(
            chain.from_iterable(traffic_sets),
            dtype=np.dtype((np.uint64, 5)),
            count=int(sizes.sum()),
        )
        found = self.lookup(keys)
        return [
            np.unique(part[part >= 0])
            for part in np.split(found, np.cumsum(sizes)[:-1])
        ]

    def rows_of(self, codes) -> np.ndarray:
        """The rows of the flows ``codes``, flow by flow (int64)."""
        codes = np.asarray(codes, dtype=np.int64)
        starts = self.offsets[codes]
        sizes = self.offsets[codes + 1] - starts
        total = int(sizes.sum())
        if total == 0:
            return np.empty(0, dtype=np.int64)
        ends = np.cumsum(sizes)
        return self.rows[
            np.repeat(starts - (ends - sizes), sizes)
            + np.arange(total, dtype=np.int64)
        ]


def flow_codes(
    table: PacketTable, granularity: Granularity
) -> tuple[np.ndarray, list[FlowKey]]:
    """Per-packet flow codes plus the code -> :class:`FlowKey` table.

    Returns ``(codes, keys)`` where ``codes[i]`` is the dense id (int64,
    numbered by first appearance) of packet ``i``'s flow and
    ``keys[code]`` is the corresponding flow key — canonically ordered
    for ``Granularity.BIFLOW``, literal for ``Granularity.UNIFLOW``.
    """
    flows = FlowTable(table, granularity)
    return flows.codes, flows.keys()


def aggregate_flows_table(
    table: PacketTable,
    granularity: Granularity = Granularity.UNIFLOW,
    flows: Optional[FlowTable] = None,
):
    """Vectorized twin of :func:`repro.net.flow.aggregate_flows`.

    Produces the identical ``{FlowKey: Flow}`` mapping — same insertion
    order, same per-flow statistics, same ``packet_indices`` — from the
    columnar table.  ``flows`` may be passed when already built (e.g.
    by :meth:`~repro.net.trace.Trace.flow_table`).
    """
    from repro.net.flow import Flow

    if granularity is Granularity.PACKET:
        raise ValueError("cannot aggregate flows at packet granularity")
    if flows is None:
        flows = FlowTable(table, granularity)
    codes = flows.codes
    n_flows = len(flows)
    result: dict[FlowKey, Flow] = {}
    if n_flows == 0:
        return result

    counts = np.diff(flows.offsets)
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

    time = table.time
    offsets = flows.offsets.tolist()
    for code, key in enumerate(flows.keys()):
        indices = flows.rows[offsets[code] : offsets[code + 1]]
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
        result[key] = flow
    return result
