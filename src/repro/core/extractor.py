"""Traffic extractor (the "oracle" of the predecessor paper).

Retrieves the traffic described by each alarm at a chosen granularity
(paper Section 2.1.1).  The extracted traffic of an alarm is a set:

* packet granularity — a set of packet indices into the trace;
* uniflow / biflow granularity — a set of flow keys.

The granularity choice is the estimator's central trade-off (Fig. 1 and
Fig. 3): packets give precise but fragmented associations, flows relate
alarms that touch different packets of the same conversation.

Two interchangeable strategies implement the retrieval, registered as
the per-engine ``"traffic_extractor"`` kernels.  Each implements one
method, ``extract_table``, which reads an
:class:`~repro.core.alarm_table.AlarmTable` and returns an
:class:`Extraction`: per alarm, a sorted array of integer codes
(packet rows, or flow codes of the trace's
:class:`~repro.net.table.FlowTable`), and a :class:`TrafficSets` over
them.  The codes feed the similarity graph, the communities, the
Table-1 heuristics and the rule blocks on every engine;
:class:`TrafficSets` builds the public sets from them only for the
elements a caller reads.

* :class:`ColumnarTrafficExtraction` — one batched pass over the
  alarm table.  Each packet column that is some filter's first tested
  field gets one sorted index of ``value << 32 | row``, so two
  ``searchsorted`` calls bound every filter's candidate rows inside its
  time window, and the filter's other tests run on those rows only.
  Every flow key of the table maps to its uniflow code in one lookup,
  and its candidates are its flow's rows from the flow table's code ->
  rows index.  Each alarm's candidate count is known before anything
  is gathered, so the pass takes consecutive slices of alarms under
  one fixed budget (:data:`SLICE_ROWS`); a slice's codes are one sort
  and dedupe of ``alarm * width + code`` keys, and each alarm's array
  is a read-only slice of the result.
* :class:`ReferenceTrafficExtraction` — the original per-packet
  predicate loop, kept as the readable reference; its per-packet flow
  keys are coded with one :meth:`~repro.net.table.FlowTable.codes_of`
  call.  The engine parity suite asserts both strategies extract
  identical codes.

Both keep one window rule: flow-key traffic includes packets at
exactly the alarm's ``t1`` when that is the trace's last timestamp,
while a filter's window stays half-open.
"""

from __future__ import annotations

from collections.abc import Sequence
from typing import Callable, FrozenSet, NamedTuple, Union

import numpy as np

from repro.core.alarm_table import FLOW_COLUMNS, AlarmTable, as_alarm_table
from repro.detectors.base import Alarm
from repro.engine import Engine, EngineSpec, resolve_engine
from repro.errors import TraceError
from repro.net.flow import FlowKey, Granularity, biflow_key, uniflow_key
from repro.net.table import PacketTable
from repro.net.trace import Trace

#: Filter fields in :class:`~repro.core.alarm_table.AlarmTable` column
#: order (``f_src``, ``f_dst``, ...).
_FILTER_FIELDS = ("src", "dst", "sport", "dport", "proto")

#: Candidate rows one slice of alarms gathers at most: the rows that
#: pass each filter's first test inside its window, and the rows of
#: each flow key's flow.  An alarm over budget is a slice of its own.
SLICE_ROWS = 1 << 14

_ROW_BITS = np.uint64(32)

_NO_ROWS = np.empty(0, dtype=np.int64)
_NO_ROWS.flags.writeable = False


def _sorted_unique(values: np.ndarray) -> np.ndarray:
    """``np.unique(values)`` by one sort and a neighbour test."""
    values = np.sort(values)
    if len(values) > 1:
        keep = np.empty(len(values), dtype=bool)
        keep[0] = True
        np.not_equal(values[1:], values[:-1], out=keep[1:])
        values = values[keep]
    return values


def _runs(starts: np.ndarray, stops: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The ranges ``[starts[k], stops[k])`` end to end, and the ``k``
    of each element."""
    sizes = stops - starts
    run = np.repeat(np.arange(len(sizes)), sizes)
    before = np.cumsum(sizes) - sizes
    return np.arange(len(run), dtype=np.int64) + (starts - before)[run], run


def _value_rows(
    column: np.ndarray, value: np.ndarray, lo: np.ndarray, hi: np.ndarray
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The rows of ``column`` sorted by value, then row (``uint32``),
    and where the rows holding ``value[k]`` in ``[lo[k], hi[k])`` start
    and stop in them.

    The search runs over the column's value index, the sorted
    ``value << 32 | row`` of every row; only its low words, the rows,
    are kept.
    """
    index = column.astype(np.uint64)
    index <<= _ROW_BITS
    # Row numbers a slice at a time: no second n-row array.
    for first in range(0, len(column), SLICE_ROWS):
        last = min(first + SLICE_ROWS, len(column))
        index[first:last] |= np.arange(first, last, dtype=np.uint64)
    index.sort()
    key = value.astype(np.uint64) << _ROW_BITS
    start = np.searchsorted(index, key | lo.astype(np.uint64))
    stop = np.searchsorted(index, key | hi.astype(np.uint64))
    return index.astype(np.uint32), start, stop


class _FilterCandidates:
    """The rows each filter of an alarm table may match.

    A filter's first tested field (in :data:`_FILTER_FIELDS` order)
    picks its candidates from that column's value index, the sorted
    ``value << 32 | row`` of every packet: two ``searchsorted`` calls
    bound the rows holding the value inside the filter's window.  A
    filter that tests no field takes its whole window.  The other
    tests run on the candidates only, when a slice is taken.  Rows are
    numbered in 32 bits.
    """

    def __init__(self, table: AlarmTable, packets: PacketTable) -> None:
        time = packets.time
        # Every filter's window [t0, t1): its own bounds, else its
        # alarm's; two searchsorted calls bound all their row ranges.
        owner = np.repeat(np.arange(len(table)), np.diff(table.filter_bounds))
        t0s = np.where(np.isnan(table.f_t0), table.t0[owner], table.f_t0)
        t1s = np.where(np.isnan(table.f_t1), table.t1[owner], table.f_t1)
        empty = np.flatnonzero(t1s < t0s)
        if empty.size:
            # Mirror Trace.time_slice on the reference path.
            j = int(empty[0])
            raise TraceError(f"empty interval [{float(t0s[j])}, {float(t1s[j])})")
        lo = np.searchsorted(time, t0s)
        hi = np.searchsorted(time, t1s)
        # ``-1`` in a filter column is the wildcard ``None``.
        values = np.stack(
            [table.column(f"f_{name}").astype(np.int64) for name in _FILTER_FIELDS]
        )
        tested = values >= 0
        first = np.where(tested.any(axis=0), tested.argmax(axis=0), -1)
        # Candidates as positions: rows for a filter without tests,
        # else places in its first field's rows sorted by value.
        self.starts, self.stops = lo.copy(), hi.copy()
        self.rows_by_value: dict[int, np.ndarray] = {}
        for field, name in enumerate(_FILTER_FIELDS):
            picked = np.flatnonzero(first == field)
            if not picked.size:
                continue
            # The alarm table admits only values the column can hold.
            self.rows_by_value[field], start, stop = _value_rows(
                packets.column(name), values[field, picked], lo[picked], hi[picked]
            )
            self.starts[picked] = start
            self.stops[picked] = stop
        self.packets = packets
        self.values = values
        self.first = first
        self.more = tested & (np.arange(len(_FILTER_FIELDS))[:, None] != first)
        self.bounds = table.filter_bounds
        self.owner = owner
        cumulative = np.zeros(len(owner) + 1, dtype=np.int64)
        np.cumsum(self.stops - self.starts, out=cumulative[1:])
        self.per_alarm = np.diff(cumulative[self.bounds])

    def take(self, i: int, j: int) -> tuple[np.ndarray, np.ndarray]:
        """The matching rows of alarms ``i..j-1``' filters, and the
        alarm of each (int64 both; a row repeats across filters)."""
        first_filter, stop_filter = int(self.bounds[i]), int(self.bounds[j])
        group = self.first[first_filter:stop_filter]
        rows, of = [], []
        for field in np.unique(group).tolist():
            picked = np.flatnonzero(group == field) + first_filter
            at, run = _runs(self.starts[picked], self.stops[picked])
            if field >= 0:
                at = self.rows_by_value[field][at].astype(np.int64)
            rows.append(at)
            of.append(picked[run])
        rows = np.concatenate(rows) if rows else _NO_ROWS
        of = np.concatenate(of) if of else _NO_ROWS
        keep = None
        for field, name in enumerate(_FILTER_FIELDS):
            at = np.flatnonzero(self.more[field, of])
            if not at.size:
                continue
            hit = self.packets.column(name)[rows[at]] == self.values[field, of[at]]
            if keep is None:
                keep = np.ones(len(rows), dtype=bool)
            keep[at[~hit]] = False
        if keep is not None:
            rows, of = rows[keep], of[keep]
        return rows, self.owner[of]


class _FlowKeyCandidates:
    """The rows of each alarm's flow keys that fall in its window.

    All flow keys of the table map to uniflow codes in one
    :meth:`~repro.net.table.FlowTable.lookup`, and a key's candidates
    are its flow's rows.  A flow-key window ending at the trace's last
    timestamp includes the packets there.
    """

    def __init__(self, table: AlarmTable, trace: Trace) -> None:
        self.bounds = table.flow_bounds
        self.per_alarm = np.zeros(len(table), dtype=np.int64)
        if not self.bounds[-1]:
            return
        time = trace.table.time
        self.flows = trace.flow_table(Granularity.UNIFLOW)
        self.codes = self.flows.lookup(
            np.stack([table.column(name) for name in FLOW_COLUMNS], axis=1)
        )
        found = self.codes >= 0
        offsets = self.flows.offsets
        self.runs = np.zeros(len(self.codes), dtype=np.int64)
        self.runs[found] = (
            offsets[self.codes[found] + 1] - offsets[self.codes[found]]
        )
        cumulative = np.zeros(len(self.runs) + 1, dtype=np.int64)
        np.cumsum(self.runs, out=cumulative[1:])
        self.per_alarm = np.diff(cumulative[self.bounds])
        self.owner = np.repeat(np.arange(len(table)), np.diff(self.bounds))
        self.lo = np.searchsorted(time, table.t0)
        self.hi = np.searchsorted(time, table.t1)
        if len(time):
            at_end = table.t1 == time[-1]
            self.lo[at_end] = np.minimum(self.lo, self.hi)[at_end]
            self.hi[at_end] = len(time)

    def take(self, i: int, j: int) -> tuple[np.ndarray, np.ndarray]:
        """The windowed rows of alarms ``i..j-1``' flow keys, and the
        alarm of each (int64 both)."""
        first_key, stop_key = int(self.bounds[i]), int(self.bounds[j])
        if first_key == stop_key:
            return _NO_ROWS, _NO_ROWS
        keys = slice(first_key, stop_key)
        found = self.codes[keys] >= 0
        rows = self.flows.rows_of(self.codes[keys][found])
        owner = np.repeat(self.owner[keys][found], self.runs[keys][found])
        keep = (rows >= self.lo[owner]) & (rows < self.hi[owner])
        return rows[keep], owner[keep]


class TrafficSets(Sequence):
    """Per-alarm traffic sets, decoded from code arrays on first access.

    Element ``i`` is ``decode(codes[i])``, built when a caller first
    reads it and then kept.  Equal to any sequence holding the same
    sets in the same order.
    """

    def __init__(
        self,
        codes: list[np.ndarray],
        decode: Callable[[np.ndarray], FrozenSet],
    ) -> None:
        self.codes = codes
        self.decode = decode
        self._sets: list = [None] * len(codes)

    def __len__(self) -> int:
        return len(self.codes)

    def __getitem__(self, index):
        if isinstance(index, slice):
            return [self[i] for i in range(*index.indices(len(self)))]
        traffic = self._sets[index]
        if traffic is None:
            traffic = self._sets[index] = self.decode(self.codes[index])
        return traffic

    def __eq__(self, other) -> bool:
        if not isinstance(other, Sequence):
            return NotImplemented
        return list(self) == list(other)

    __hash__ = None

    def union(self, ids: Sequence[int]) -> np.ndarray:
        """Sorted codes of the union of elements ``ids``."""
        if len(ids) == 1:
            return self.codes[ids[0]]
        return _sorted_unique(np.concatenate([self.codes[i] for i in ids]))


class _ExtractionStrategy:
    """What both extraction strategies share: the code decoder."""

    def __init__(
        self, trace: Trace, granularity: Granularity, engine: Engine
    ) -> None:
        self.trace = trace
        self.granularity = granularity
        self.engine = engine

    def traffic_of(self, codes: np.ndarray) -> FrozenSet:
        """The public traffic set of a code array."""
        if self.granularity is Granularity.PACKET:
            return frozenset(codes.tolist())
        return frozenset(self.trace.flow_table(self.granularity).keys_of(codes))


class ReferenceTrafficExtraction(_ExtractionStrategy):
    """Pure-Python extraction strategy (the correctness oracle).

    Finds each alarm's packets with per-packet predicates, then hands
    over the same codes as :class:`ColumnarTrafficExtraction`.
    """

    def __init__(
        self, trace: Trace, granularity: Granularity, engine: Engine
    ) -> None:
        super().__init__(trace, granularity, engine)
        # Per-packet flow keys (lazy by granularity need).
        self._uniflow_of: list[FlowKey] = [uniflow_key(p) for p in trace]
        if granularity is Granularity.BIFLOW:
            self._biflow_of: list[FlowKey] = [biflow_key(p) for p in trace]
        else:
            self._biflow_of = []
        # Uniflow key -> packet indices, for flow-key alarms.
        self._uniflow_index: dict[FlowKey, list[int]] = {}
        for i, key in enumerate(self._uniflow_of):
            self._uniflow_index.setdefault(key, []).append(i)

    def _packet_indices(self, alarm: Alarm) -> set[int]:
        """Packet indices designated by the alarm (filters + flow keys)."""
        trace = self.trace
        indices: set[int] = set()
        for feature_filter in alarm.filters:
            t0 = feature_filter.t0 if feature_filter.t0 is not None else alarm.t0
            t1 = feature_filter.t1 if feature_filter.t1 is not None else alarm.t1
            for i in trace.time_slice(t0, t1):
                if feature_filter.matches(trace[i]):
                    indices.add(i)
        if alarm.flow_keys:
            for key in alarm.flow_keys:
                for i in self._uniflow_index.get(key, ()):
                    if alarm.t0 <= trace[i].time < alarm.t1 or (
                        trace[i].time == alarm.t1 == trace.end_time
                    ):
                        indices.add(i)
        return indices

    def extract_table(
        self, table: AlarmTable
    ) -> tuple[list[np.ndarray], TrafficSets]:
        """Per-row code arrays and their traffic sets.

        Each row's packets come from the per-packet loop; at packet
        granularity they are its codes, otherwise their flow keys are
        coded, every row at once.
        """
        packets = [self._packet_indices(table.alarm(i)) for i in range(len(table))]
        if self.granularity is Granularity.PACKET:
            codes = [np.array(sorted(rows), dtype=np.int64) for rows in packets]
        else:
            key_of = (
                self._uniflow_of
                if self.granularity is Granularity.UNIFLOW
                else self._biflow_of
            )
            codes = self.trace.flow_table(self.granularity).codes_of(
                [{key_of[i] for i in rows} for rows in packets]
            )
        return codes, TrafficSets(codes, self.traffic_of)

    def packets_of(self, traffic: FrozenSet) -> list[int]:
        if self.granularity is Granularity.PACKET:
            return sorted(int(i) for i in traffic)
        if self.granularity is Granularity.UNIFLOW:
            result: list[int] = []
            for key in traffic:
                result.extend(self._uniflow_index.get(key, ()))
            return sorted(result)
        # Biflow: collect both directions via the biflow key map.
        wanted = set(traffic)
        return sorted(
            i for i, key in enumerate(self._biflow_of) if key in wanted
        )


class ColumnarTrafficExtraction(_ExtractionStrategy):
    """Vectorized extraction strategy over the trace's packet table."""

    def extract_table(
        self, table: AlarmTable
    ) -> tuple[list[np.ndarray], TrafficSets]:
        """Per-row code arrays (the graph input) and their traffic sets.

        Designations are read from the table's filter and flow-key
        columns; no :class:`Alarm`, filter or flow-key view is built.
        Element ``i`` of the codes holds the sorted unique traffic
        codes (flow ids, or packet indices at packet granularity) of
        row ``i``: the integer alphabet the ``"similarity_graph"``
        kernel consumes without per-element Python work.

        Every alarm's candidate count is known before any packet row
        is gathered, so the alarms are taken in consecutive slices of
        at most :data:`SLICE_ROWS` candidates; an alarm over that
        budget is a slice of its own.
        """
        packets = self.trace.table
        n_alarms = len(table)
        filters = _FilterCandidates(table, packets)
        flow_keys = _FlowKeyCandidates(table, self.trace)
        count = np.zeros(n_alarms + 1, dtype=np.int64)
        np.cumsum(filters.per_alarm + flow_keys.per_alarm, out=count[1:])
        if self.granularity is Granularity.PACKET:
            traffic_codes, width = None, len(packets)
        else:
            flows = self.trace.flow_table(self.granularity)
            traffic_codes, width = flows.codes, len(flows)
        codes: list[np.ndarray] = []
        i = 0
        while i < n_alarms:
            j = int(np.searchsorted(count, count[i] + SLICE_ROWS, side="right"))
            j = max(i + 1, j - 1)
            filter_rows, filter_owner = filters.take(i, j)
            key_rows, key_owner = flow_keys.take(i, j)
            rows = np.concatenate([filter_rows, key_rows])
            keys = rows if traffic_codes is None else traffic_codes[rows]
            keys += (np.concatenate([filter_owner, key_owner]) - i) * width
            keys = _sorted_unique(keys)
            bounds = np.searchsorted(
                keys, np.arange(j - i + 1, dtype=np.int64) * width
            )
            keys -= np.repeat(
                np.arange(j - i, dtype=np.int64) * width, np.diff(bounds)
            )
            keys.flags.writeable = False
            bounds = bounds.tolist()
            codes.extend(
                keys[lo:hi] for lo, hi in zip(bounds[:-1], bounds[1:])
            )
            i = j
        return codes, TrafficSets(codes, self.traffic_of)

    def packets_of(self, traffic: FrozenSet) -> list[int]:
        if self.granularity is Granularity.PACKET:
            return sorted(int(i) for i in traffic)
        flows = self.trace.flow_table(self.granularity)
        return np.sort(flows.rows_of(flows.codes_of([traffic])[0])).tolist()


class Extraction(NamedTuple):
    """One batch extraction: per-alarm codes and traffic sets."""

    #: One sorted int64 code array per alarm (packet rows, or flow
    #: codes of the trace's flow table): what the
    #: ``"similarity_graph"`` kernel ingests, on every engine.
    graph_input: list[np.ndarray]
    #: The public per-alarm traffic sets (packet indices or flow keys),
    #: decoded from ``graph_input`` on access.
    traffic_sets: TrafficSets


class TrafficExtractor:
    """Extracts, per alarm, the associated traffic set.

    Every engine hands over the same sorted code arrays; the engine's
    ``"traffic_extractor"`` kernel only decides how they are found
    (per-packet predicates, or the trace's cached flow tables and
    ``searchsorted`` row ranges).

    Parameters
    ----------
    trace:
        The trace alarms refer to.
    granularity:
        Traffic granularity of the extracted sets.
    engine:
        Engine spec (see :func:`repro.engine.resolve_engine`); the
        engine's ``"traffic_extractor"`` kernel picks the strategy.
        All strategies produce identical codes.
    """

    def __init__(
        self,
        trace: Trace,
        granularity: Granularity = Granularity.UNIFLOW,
        engine: EngineSpec = "auto",
    ) -> None:
        self.trace = trace
        self.granularity = granularity
        self.engine = resolve_engine(engine, what="extractor")
        self._impl = self.engine.kernel("traffic_extractor")(
            trace, granularity, self.engine
        )

    # -- public API ----------------------------------------------------

    def extract_all(
        self, alarms: Union[AlarmTable, Sequence[Alarm]]
    ) -> Extraction:
        """Extract every alarm's traffic (index-aligned with the rows).

        ``alarms`` is an :class:`~repro.core.alarm_table.AlarmTable`; a
        plain alarm list is encoded into one first.
        """
        table = as_alarm_table(alarms, engine=self.engine)
        return Extraction(*self._impl.extract_table(table))

    def extract(self, alarm: Alarm) -> FrozenSet:
        """Traffic set of one alarm at this extractor's granularity."""
        return self.extract_all([alarm]).traffic_sets[0]

    def packets_of(self, traffic: FrozenSet) -> list[int]:
        """Expand a traffic set back to sorted packet indices.

        For packet granularity this is the identity; for flow
        granularities it returns every packet of every listed flow.
        The reference heuristics use it to gather their packets.
        """
        return self._impl.packets_of(traffic)
