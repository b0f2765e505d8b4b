"""Trace container.

A :class:`Trace` is an ordered, timestamp-sorted collection of packets
with metadata describing its origin — in the MAWI archive, the capture
date and samplepoint.  Traces are immutable after construction, which
lets the pipeline cache flow aggregations per (trace, granularity).

Since the columnar engine, a trace is *backed* by a
:class:`~repro.net.table.PacketTable` (struct-of-arrays): the hot paths
— filter matching, traffic extraction, detector feature binning — read
the NumPy columns directly via :attr:`Trace.table`, while
:class:`~repro.net.packet.Packet` objects are materialized lazily and
cached only where object-level code still needs them (rule mining,
reference kernels, tests).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Iterator, Optional, Sequence

import numpy as np

from repro.errors import TraceError
from repro.net.flow import Flow, FlowKey, Granularity
from repro.net.packet import Packet
from repro.net.table import FlowTable, PacketTable, aggregate_flows_table


@dataclass(frozen=True)
class TraceMetadata:
    """Provenance of a trace.

    Attributes
    ----------
    name:
        Human-readable identifier, e.g. ``"2004-05-03"``.
    samplepoint:
        MAWI samplepoint ("B" or "F" in the paper).
    link_mbps:
        Nominal capacity of the measured link; the archive timeline
        upgrades it (18 -> 100 -> 150 Mbps).
    date:
        ISO date string, used by the archive for ordering.
    """

    name: str = "trace"
    samplepoint: str = "F"
    link_mbps: float = 100.0
    date: str = ""


class Trace:
    """An immutable, time-sorted packet trace over a columnar table.

    Parameters
    ----------
    packets:
        Packets in any order; they are sorted by timestamp on
        construction (stably, so simultaneous packets keep their
        generation order).
    metadata:
        Optional :class:`TraceMetadata`.
    """

    def __init__(
        self,
        packets: Sequence[Packet],
        metadata: Optional[TraceMetadata] = None,
    ) -> None:
        table = PacketTable.from_packets(list(packets)).sorted_by_time()
        self._init_from_table(table, metadata)

    @classmethod
    def from_table(
        cls,
        table: PacketTable,
        metadata: Optional[TraceMetadata] = None,
    ) -> "Trace":
        """Build a trace directly from a columnar table (no objects)."""
        trace = cls.__new__(cls)
        trace._init_from_table(table.sorted_by_time(), metadata)
        return trace

    def _init_from_table(
        self, table: PacketTable, metadata: Optional[TraceMetadata]
    ) -> None:
        self._table = table
        self.metadata = metadata or TraceMetadata()
        self._times = table.time
        self._packet_cache: list[Optional[Packet]] = [None] * len(table)
        self._packets_tuple: Optional[tuple[Packet, ...]] = None
        self._flow_cache: dict[Granularity, dict[FlowKey, Flow]] = {}
        self._flow_tables: dict[Granularity, FlowTable] = {}

    # -- columnar access ----------------------------------------------

    @property
    def table(self) -> PacketTable:
        """The struct-of-arrays backing store (time-sorted)."""
        return self._table

    def flow_table(self, granularity: Granularity) -> FlowTable:
        """The :class:`~repro.net.table.FlowTable` at ``granularity``.

        Built on first use and cached per trace.
        """
        flows = self._flow_tables.get(granularity)
        if flows is None:
            flows = self._flow_tables[granularity] = FlowTable(
                self._table, granularity
            )
        return flows

    def with_flow_table(self, flows: FlowTable) -> "Trace":
        """A view of this trace whose flow table at
        ``flows.granularity`` is ``flows``.

        ``flows`` must code this trace's packets, and may extend its
        own table with flows that have no packet here
        (:meth:`FlowTable.extended`).  This is how the streaming
        engine shows Steps 2-4 the flows its live alarms carry into a
        window.  The view shares the packet table, the packet objects
        and the flow tables of the other granularity; this trace is
        not changed.
        """
        view = Trace.__new__(Trace)
        view.__dict__.update(vars(self))
        view._flow_cache = {}
        view._flow_tables = {**self._flow_tables, flows.granularity: flows}
        return view

    # -- basic container protocol ------------------------------------

    def __len__(self) -> int:
        return len(self._table)

    def __iter__(self) -> Iterator[Packet]:
        return iter(self.packets)

    def __getitem__(self, index):
        if isinstance(index, slice):
            return self.packets[index]
        packet = self._packet_cache[index]
        if packet is None:
            packet = self._table.packet(index)
            self._packet_cache[index] = packet
        return packet

    @property
    def packets(self) -> tuple[Packet, ...]:
        """The packets as objects, sorted by time (materialized lazily)."""
        if self._packets_tuple is None:
            cache = self._packet_cache
            table = self._table
            for i, packet in enumerate(cache):
                if packet is None:
                    cache[i] = table.packet(i)
            self._packets_tuple = tuple(cache)
        return self._packets_tuple

    @property
    def duration(self) -> float:
        """Trace duration in seconds (0 for empty traces)."""
        if len(self._times) == 0:
            return 0.0
        return float(self._times[-1] - self._times[0])

    @property
    def start_time(self) -> float:
        if len(self._times) == 0:
            raise TraceError("empty trace has no start time")
        return float(self._times[0])

    @property
    def end_time(self) -> float:
        if len(self._times) == 0:
            raise TraceError("empty trace has no end time")
        return float(self._times[-1])

    @property
    def total_bytes(self) -> int:
        return int(self._table.size.sum())

    # -- slicing and filtering ----------------------------------------

    def time_slice(self, t0: float, t1: float) -> range:
        """Indices of packets with ``t0 <= time < t1``.

        Returned as a ``range`` so callers can use it either to index
        packets or as a set of packet ids without materializing a list.
        """
        if t1 < t0:
            raise TraceError(f"empty interval [{t0}, {t1})")
        lo, hi = np.searchsorted(self._times, [t0, t1], side="left")
        return range(int(lo), int(hi))

    def select(self, predicate: Callable[[Packet], bool]) -> list[int]:
        """Indices of packets satisfying ``predicate`` (object path)."""
        return [i for i, p in enumerate(self.packets) if predicate(p)]

    # -- flow aggregation ---------------------------------------------

    def flows(self, granularity: Granularity = Granularity.UNIFLOW) -> dict[FlowKey, Flow]:
        """Flow table at ``granularity`` (cached per trace).

        Aggregation runs on the columnar table; it produces the exact
        mapping of :func:`repro.net.flow.aggregate_flows`.
        """
        cached = self._flow_cache.get(granularity)
        if cached is None:
            cached = aggregate_flows_table(
                self._table, granularity, self.flow_table(granularity)
            )
            self._flow_cache[granularity] = cached
        return cached

    def flow_of(self, index: int, granularity: Granularity) -> FlowKey:
        """Flow key of packet ``index`` at ``granularity``."""
        from repro.net.flow import key_for

        return key_for(self[index], granularity)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"Trace(name={self.metadata.name!r}, packets={len(self)}, "
            f"duration={self.duration:.1f}s)"
        )


def merge_traces(traces: Sequence[Trace], name: str = "merged") -> Trace:
    """Merge several traces into one time-sorted trace.

    Metadata other than the name is taken from the first trace; callers
    merging across link upgrades should set metadata themselves.
    Tables are concatenated column-wise — no packet objects are built.
    """
    if not traces:
        raise TraceError("cannot merge zero traces")
    table = PacketTable.concatenate([trace.table for trace in traces])
    base = traces[0].metadata
    metadata = TraceMetadata(
        name=name,
        samplepoint=base.samplepoint,
        link_mbps=base.link_mbps,
        date=base.date,
    )
    return Trace.from_table(table, metadata)
