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

* :class:`ColumnarTrafficExtraction` — each filter is evaluated over
  the rows of its time window only, found with one ``searchsorted``
  on the time-sorted trace; every flow key of the table is mapped to
  its uniflow code in one vectorized lookup, and its rows come from
  the flow table's code -> rows index.
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
from repro.net.trace import Trace

#: Filter fields in :class:`~repro.core.alarm_table.AlarmTable` column
#: order (``f_src``, ``f_dst``, ...).
_FILTER_FIELDS = ("src", "dst", "sport", "dport", "proto")

_NO_ROWS = np.empty(0, dtype=np.int64)
_NO_ROWS.flags.writeable = False


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
        return np.unique(np.concatenate([self.codes[i] for i in ids]))


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

    def __init__(
        self, trace: Trace, granularity: Granularity, engine: Engine
    ) -> None:
        super().__init__(trace, granularity, engine)
        self._scratch = engine.scratch()

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
        """
        time = self.trace.table.time
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
        filter_lo = np.searchsorted(time, t0s).tolist()
        filter_hi = np.searchsorted(time, t1s).tolist()
        tests = self._filter_tests(table)
        flow_bounds = table.flow_bounds.tolist()
        if flow_bounds[-1]:
            uniflows = self.trace.flow_table(Granularity.UNIFLOW)
            key_codes = uniflows.lookup(
                np.stack([table.column(name) for name in FLOW_COLUMNS], axis=1)
            )
            key_lo = np.searchsorted(time, table.t0).tolist()
            key_hi = np.searchsorted(time, table.t1).tolist()
            # A flow-key window ending at the trace's last timestamp
            # includes the packets there.
            at_end = (table.t1 == time[-1]).tolist() if len(time) else []
        filter_bounds = table.filter_bounds.tolist()
        traffic_codes = (
            None
            if self.granularity is Granularity.PACKET
            else self.trace.flow_table(self.granularity).codes
        )
        codes = []
        for i in range(len(table)):
            windows = [
                (filter_lo[j], filter_hi[j], tests[j])
                for j in range(filter_bounds[i], filter_bounds[i + 1])
                if filter_hi[j] > filter_lo[j]
            ]
            rows = _NO_ROWS
            if flow_bounds[i + 1] > flow_bounds[i]:
                wanted = key_codes[flow_bounds[i] : flow_bounds[i + 1]]
                wanted = wanted[wanted >= 0]
                if wanted.size:
                    lo, hi = key_lo[i], key_hi[i]
                    if at_end[i]:
                        lo, hi = min(lo, hi), len(time)
                    rows = uniflows.rows_of(wanted)
                    rows = rows[(rows >= lo) & (rows < hi)]
            bounds = [(lo, hi) for lo, hi, _ in windows]
            if rows.size:
                bounds.append((int(rows.min()), int(rows.max()) + 1))
            if not bounds:
                codes.append(_NO_ROWS)
                continue
            start = min(lo for lo, _ in bounds)
            stop = max(hi for _, hi in bounds)
            mask = self._scratch.zeros(stop - start, dtype=bool)
            for lo, hi, window_tests in windows:
                window = mask[lo - start : hi - start]
                if not window_tests:
                    window[:] = True
                    continue
                (column, value), *more = window_tests
                hits = column[lo:hi] == value
                for column, value in more:
                    hits &= column[lo:hi] == value
                window |= hits
            mask[rows - start] = True
            codes.append(
                np.flatnonzero(mask) + start
                if traffic_codes is None
                else np.unique(traffic_codes[start:stop][mask])
            )
        return codes, TrafficSets(codes, self.traffic_of)

    def _filter_tests(self, table: AlarmTable) -> list[list[tuple]]:
        """The ``(column, value)`` tests of each filter row.

        ``-1`` in a filter column is the wildcard ``None``.
        """
        packets = self.trace.table
        return [
            [
                (packets.column(name), value)
                for name, value in zip(_FILTER_FIELDS, row)
                if value >= 0
            ]
            for row in zip(
                *(table.column(f"f_{name}").tolist() for name in _FILTER_FIELDS)
            )
        ]

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
