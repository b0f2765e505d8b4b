"""Zero-copy packet-table transport over ``multiprocessing.shared_memory``.

The pickle transport serializes every :class:`~repro.net.table.PacketTable`
column into the pool's task pipe and deserializes it in the worker —
two full copies plus pickle framing, per task.  This module replaces
that with named shared-memory segments:

* the parent **exports** the table once (:func:`export_table`, or
  :meth:`TableArena.export` when successive exports can recycle one
  segment): columns are packed back-to-back into one segment, and a
  tiny picklable :class:`SharedTableHandle` (segment name + row count,
  from which the per-column layout is derived) rides the task pipe
  instead of the data;
* the worker **attaches** (:meth:`SharedTableHandle.attach`, or the
  process-local :class:`SegmentRegistry` which *pins* the mapping so
  later shards naming the same segment skip the map entirely): each
  column becomes a NumPy view directly over the mapped segment — no
  copy, no deserialization — wrapped in an immutable
  :class:`~repro.net.table.PacketTable`;
* the parent **unlinks** the segment after its consumers finish
  (:meth:`SharedTableHandle.unlink` / :meth:`TableArena.close`),
  returning the memory to the OS.

Archive labeling therefore scales with cores, not with pickle
bandwidth; ``repro bench`` measures both transports side by side, and
``docs/architecture-fanout.md`` walks the full
export → attach → pin → reuse → teardown lifecycle.
"""

from __future__ import annotations

import atexit
import os
from collections import OrderedDict
from dataclasses import dataclass
from multiprocessing import shared_memory
from typing import Optional, Union

import numpy as np

from repro.core.alarm_table import (
    ALARM_COLUMNS,
    FILTER_COLUMNS,
    FLOW_COLUMNS,
    AlarmTable,
)
from repro.core.alarm_table import (
    ALARM_COLUMN_DTYPES as _ALARM_DTYPES,
)
from repro.core.alarm_table import (
    FILTER_COLUMN_DTYPES as _FILTER_DTYPES,
)
from repro.core.alarm_table import (
    FLOW_COLUMN_DTYPES as _FLOW_DTYPES,
)
from repro.net.table import COLUMN_DTYPES, COLUMNS, PacketTable


#: Segment names *created* by this process (exports and arenas).  The
#: attach-side resource-tracker workaround below must skip these: when
#: owner and attacher are the same process (inline pools, tests),
#: unregistering on attach would strip the owner's own registration
#: and make the eventual unlink double-unregister.
_owned_names: set[str] = set()


#: Set in a fork-started child whose parent already ran a resource
#: tracker: the child inherited the connection, so it reports to the
#: very tracker the segment owner registered with.
_shares_parent_tracker = False


def _note_fork() -> None:
    global _shares_parent_tracker
    try:  # pragma: no cover - depends on interpreter internals
        from multiprocessing import resource_tracker

        tracker_fd = resource_tracker._resource_tracker._fd
    except Exception:
        tracker_fd = None
    _shares_parent_tracker = tracker_fd is not None


os.register_at_fork(after_in_child=_note_fork)


def _unregister_attached(name: str) -> None:
    """Opt an attached (not owned) segment out of resource tracking.

    Before Python 3.13 (``track=False``), merely attaching registers
    the segment with the process's resource tracker, which then
    "cleans up" — unlinks — segments the parent still owns when the
    worker exits, and warns about leaks it never owned.  Attach-side
    unregistration is the documented workaround; it is skipped for
    segments this very process owns, and in a forked child sharing
    its parent's tracker: there the attach's registration is the
    owner's own, and two workers unregistering one segment make the
    tracker print a ``KeyError`` traceback for the second.
    """
    if name in _owned_names or _shares_parent_tracker:
        return
    try:  # pragma: no cover - depends on interpreter internals
        from multiprocessing.resource_tracker import unregister

        unregister(f"/{name}", "shared_memory")
    except Exception:
        pass


def _register_owned(name: str) -> None:
    """Re-assert tracker registration just before an owner-side unlink.

    Fork-started workers share the parent's resource tracker, so a
    worker's attach-side :func:`_unregister_attached` may have removed
    the owner's registration; re-registering (a set add — idempotent)
    keeps the unlink's internal unregister balanced instead of tripping
    a tracker ``KeyError``.
    """
    try:  # pragma: no cover - depends on interpreter internals
        from multiprocessing.resource_tracker import register

        register(f"/{name}", "shared_memory")
    except Exception:
        pass


class AttachedTable:
    """A :class:`PacketTable` view over a mapped shared segment.

    Keeps the segment mapped for as long as the table is in use; call
    :meth:`close` (or use as a context manager) after dropping every
    reference to the table and arrays derived from its columns.
    """

    def __init__(self, shm: shared_memory.SharedMemory, table: PacketTable) -> None:
        self._shm: Optional[shared_memory.SharedMemory] = shm
        self.table: Optional[PacketTable] = table

    def __enter__(self) -> PacketTable:
        assert self.table is not None
        return self.table

    def __exit__(self, *exc) -> None:
        self.close()

    def close(self) -> None:
        """Drop the table and unmap the segment (idempotent).

        A still-referenced column view makes the unmap raise
        ``BufferError``; the mapping then simply lives until process
        exit, which is safe — only :meth:`SharedTableHandle.unlink`
        frees the backing memory, and that stays the parent's job.
        """
        self.table = None
        if self._shm is not None:
            try:
                self._shm.close()
            except BufferError:  # pragma: no cover - view still alive
                pass
            self._shm = None


@dataclass(frozen=True)
class SharedTableHandle:
    """Picklable description of one exported table segment."""

    name: str
    n_rows: int

    def attach(self) -> AttachedTable:
        """Map the segment and view it as a :class:`PacketTable`.

        One mapping per call; callers that attach the same segment many
        times (pool workers receiving successive shards against one
        pinned table) should go through :func:`segment_registry`
        instead, which maps once and rebuilds only the cheap views.
        """
        shm = shared_memory.SharedMemory(name=self.name)
        _unregister_attached(self.name)
        return AttachedTable(shm, _table_view(shm, self.n_rows))

    def unlink(self) -> None:
        """Free the backing segment (owner-side, after workers finish).

        Idempotent: a second unlink (or an unlink racing another
        owner's) is a silent no-op.  Attached mappings in workers stay
        valid after the unlink — the memory is returned to the OS only
        once every mapping closes, so a pinned registry entry merely
        delays the release, never corrupts it.
        """
        _owned_names.discard(self.name)
        try:
            segment = shared_memory.SharedMemory(name=self.name)
        except FileNotFoundError:  # pragma: no cover - already unlinked
            return
        segment.unlink()
        segment.close()


def _column_bytes(n_rows: int, dtype: np.dtype) -> int:
    """Segment bytes reserved per column, 8-byte aligned."""
    return -(-n_rows * dtype.itemsize // 8) * 8


def _table_view(
    shm: shared_memory.SharedMemory, n_rows: int
) -> PacketTable:
    """View a mapped segment as a :class:`PacketTable`.

    The layout is fully determined by ``n_rows`` (columns packed
    back-to-back in ``COLUMNS`` order, 8-byte aligned), so a segment
    larger than the layout needs — an arena recycled from a bigger
    export — views correctly through the same function.
    """
    columns = {}
    offset = 0
    for column, dtype in COLUMN_DTYPES.items():
        columns[column] = np.ndarray(
            (n_rows,), dtype=dtype, buffer=shm.buf, offset=offset
        )
        offset += _column_bytes(n_rows, dtype)
    return PacketTable(**columns)


def segment_bytes(n_rows: int) -> int:
    """Total segment size for an ``n_rows`` table (≥ 1 byte)."""
    return max(
        sum(_column_bytes(n_rows, dtype) for dtype in COLUMN_DTYPES.values()),
        1,
    )


def transport_probe_shm(handle: SharedTableHandle) -> int:
    """Pool worker for the transport microbench: attach + touch.

    Returns the table's total byte count, forcing a real read of the
    mapped columns; the work is deliberately trivial so the measured
    time is the transport, not the compute.
    """
    attached = handle.attach()
    try:
        return int(attached.table.size.sum())
    finally:
        attached.close()


def transport_probe_pickle(table: PacketTable) -> int:
    """Pickle-transport twin of :func:`transport_probe_shm`."""
    return int(table.size.sum())


# -- alarm tables ------------------------------------------------------
#
# The result-side twin of the packet transport: a worker's Step 1
# alarm table flows back to the parent as one shared segment instead
# of a pickled object list.  Every numeric column (per-alarm, ragged
# bounds, encoded per-filter / per-flow-key blocks) lands in the
# segment; only the two small name pools ride the handle.


def _alarm_layout(
    n_rows: int, n_filters: int, n_flows: int
) -> list[tuple[str, np.dtype, int]]:
    """(column, dtype, length) for every numeric alarm-table array."""
    layout = [(name, _ALARM_DTYPES[name], n_rows) for name in ALARM_COLUMNS]
    layout.append(("filter_bounds", np.dtype(np.int64), n_rows + 1))
    layout.append(("flow_bounds", np.dtype(np.int64), n_rows + 1))
    layout.extend(
        (name, _FILTER_DTYPES[name], n_filters) for name in FILTER_COLUMNS
    )
    layout.extend(
        (name, _FLOW_DTYPES[name], n_flows) for name in FLOW_COLUMNS
    )
    return layout


def alarm_segment_bytes(n_rows: int, n_filters: int, n_flows: int) -> int:
    """Total segment size for an alarm table (≥ 1 byte)."""
    return max(
        sum(
            _column_bytes(length, dtype)
            for _name, dtype, length in _alarm_layout(n_rows, n_filters, n_flows)
        ),
        1,
    )


class AttachedAlarmTable:
    """An :class:`AlarmTable` view over a mapped shared segment.

    Same contract as :class:`AttachedTable`: keep it open while the
    table (or arrays derived from its columns) is in use, then
    :meth:`close`; the exporting side owns the segment's lifetime.
    """

    def __init__(
        self, shm: shared_memory.SharedMemory, table: AlarmTable
    ) -> None:
        self._shm: Optional[shared_memory.SharedMemory] = shm
        self.table: Optional[AlarmTable] = table

    def __enter__(self) -> AlarmTable:
        assert self.table is not None
        return self.table

    def __exit__(self, *exc) -> None:
        self.close()

    def close(self) -> None:
        self.table = None
        if self._shm is not None:
            try:
                self._shm.close()
            except BufferError:  # pragma: no cover - view still alive
                pass
            self._shm = None


@dataclass(frozen=True)
class SharedAlarmTableHandle:
    """Picklable description of one exported alarm-table segment.

    The numeric columns live in the named segment; the detector /
    configuration name pools — small by construction — travel with the
    handle itself.
    """

    name: str
    n_rows: int
    n_filters: int
    n_flows: int
    detectors: tuple[str, ...]
    configs: tuple[str, ...]

    def attach(self) -> AttachedAlarmTable:
        """Map the segment and view it as an :class:`AlarmTable`."""
        shm = shared_memory.SharedMemory(name=self.name)
        _unregister_attached(self.name)
        return AttachedAlarmTable(shm, self._view(shm))

    def _view(self, shm: shared_memory.SharedMemory) -> AlarmTable:
        """The zero-copy :class:`AlarmTable` over a mapped segment."""
        columns = {}
        offset = 0
        for column, dtype, length in _alarm_layout(
            self.n_rows, self.n_filters, self.n_flows
        ):
            columns[column] = np.ndarray(
                (length,), dtype=dtype, buffer=shm.buf, offset=offset
            )
            offset += _column_bytes(length, dtype)
        return AlarmTable(
            **columns, detectors=self.detectors, configs=self.configs
        )

    def to_table(self) -> AlarmTable:
        """Attach, copy out a process-local table, and unmap.

        For consumers that outlive the segment (the parent collects a
        worker's results, then unlinks); the copy is one memcpy per
        column.
        """
        attached = self.attach()
        try:
            table = attached.table
            return AlarmTable(
                **{
                    name: np.array(getattr(table, name))
                    for name, _dtype, _length in _alarm_layout(
                        self.n_rows, self.n_filters, self.n_flows
                    )
                },
                detectors=self.detectors,
                configs=self.configs,
            )
        finally:
            attached.close()

    def unlink(self) -> None:
        """Free the backing segment (owner-side, after consumption)."""
        _owned_names.discard(self.name)
        try:
            segment = shared_memory.SharedMemory(name=self.name)
        except FileNotFoundError:  # pragma: no cover - already unlinked
            return
        segment.unlink()
        segment.close()


def export_alarm_table(table: AlarmTable) -> SharedAlarmTableHandle:
    """Copy an alarm table's numeric columns into a fresh segment.

    The caller owns the segment and must eventually call
    :meth:`SharedAlarmTableHandle.unlink`.  Pool workers use this to
    hand their Step 1 results back zero-copy: the report carries the
    handle, the parent attaches (or :meth:`~SharedAlarmTableHandle.to_table`\\ s)
    and unlinks.
    """
    n_rows = len(table)
    n_filters = len(table.f_src)
    n_flows = len(table.w_src)
    shm = shared_memory.SharedMemory(
        create=True, size=alarm_segment_bytes(n_rows, n_filters, n_flows)
    )
    _owned_names.add(shm.name)
    try:
        offset = 0
        for column, dtype, length in _alarm_layout(
            n_rows, n_filters, n_flows
        ):
            view = np.ndarray(
                (length,), dtype=dtype, buffer=shm.buf, offset=offset
            )
            view[:] = getattr(table, column)
            offset += _column_bytes(length, dtype)
            del view
        handle = SharedAlarmTableHandle(
            name=shm.name,
            n_rows=n_rows,
            n_filters=n_filters,
            n_flows=n_flows,
            detectors=table.detectors,
            configs=table.configs,
        )
    except BaseException:
        _owned_names.discard(shm.name)
        shm.close()
        shm.unlink()
        raise
    shm.close()
    return handle


def export_table(table: PacketTable) -> SharedTableHandle:
    """Copy ``table`` into a fresh shared segment; return its handle.

    The caller owns the segment and must eventually call
    :meth:`SharedTableHandle.unlink` (normally after every worker
    labeled against it) — segments outlive the creating process
    otherwise.  Callers exporting many tables in sequence should prefer
    a :class:`TableArena`, which recycles one segment instead of paying
    the create/unlink round-trip per export.
    """
    n_rows = len(table)
    shm = shared_memory.SharedMemory(create=True, size=segment_bytes(n_rows))
    _owned_names.add(shm.name)
    try:
        _write_table(shm, table)
        handle = SharedTableHandle(name=shm.name, n_rows=n_rows)
    except BaseException:
        _owned_names.discard(shm.name)
        shm.close()
        shm.unlink()
        raise
    shm.close()
    return handle


def _write_table(
    shm: shared_memory.SharedMemory, table: PacketTable
) -> None:
    """Pack ``table``'s columns into ``shm`` (one memcpy per column)."""
    n_rows = len(table)
    offset = 0
    for column in COLUMNS:
        dtype = COLUMN_DTYPES[column]
        view = np.ndarray(
            (n_rows,), dtype=dtype, buffer=shm.buf, offset=offset
        )
        view[:] = getattr(table, column)
        offset += _column_bytes(n_rows, dtype)
        del view


# -- feature planes ----------------------------------------------------
#
# The third transport family: cached feature planes (sketch buckets,
# binned histograms, PCA residuals, ...) computed once by the parent
# flow to fan-out workers as one shared segment, so sibling tasks of
# the same trace attach the ensemble's planes zero-copy instead of
# recomputing them per worker.  A plane is an ndarray, a flat
# tuple/list of ndarrays and scalars, or a BinnedHistogram; the layout
# (array dtypes/shapes at 8-byte-aligned running offsets, scalars
# riding the handle) travels with the picklable handle, exactly like
# the alarm-table transport.


def _array_bytes(shape: tuple, dtype: np.dtype) -> int:
    """Segment bytes reserved per plane array, 8-byte aligned."""
    n = 1
    for dim in shape:
        n *= int(dim)
    return -(-n * dtype.itemsize // 8) * 8


def _plane_parts(value) -> tuple[str, tuple, list[np.ndarray]]:
    """Flatten one exportable plane into ``(kind, parts, arrays)``.

    ``parts`` is the picklable per-item layout — ``("array", dtype_str,
    shape)`` items consume segment bytes in order, ``("scalar", v)``
    items ride the handle — and ``arrays`` the matching ndarrays to
    write.  Kinds: ``"nd"`` (bare array), ``"tuple"`` / ``"list"``
    (flat containers), ``"hist"`` (BinnedHistogram).
    """
    if isinstance(value, np.ndarray):
        return "nd", (("array", value.dtype.str, value.shape),), [value]
    if isinstance(value, (tuple, list)):
        kind = "tuple" if isinstance(value, tuple) else "list"
        parts: list[tuple] = []
        arrays: list[np.ndarray] = []
        for item in value:
            if isinstance(item, np.ndarray):
                parts.append(("array", item.dtype.str, item.shape))
                arrays.append(item)
            else:
                scalar = item.item() if isinstance(item, np.generic) else item
                parts.append(("scalar", scalar))
        return kind, tuple(parts), arrays
    # BinnedHistogram duck-type (feature name + three numeric arrays).
    return (
        "hist",
        (
            ("scalar", value.feature),
            ("array", value.values.dtype.str, value.values.shape),
            ("array", value.codes.dtype.str, value.codes.shape),
            ("array", value.counts.dtype.str, value.counts.shape),
        ),
        [value.values, value.codes, value.counts],
    )


def planes_segment_bytes(items) -> int:
    """Total segment size for ``(spec, value)`` plane pairs (≥ 1 byte)."""
    total = 0
    for _spec, value in items:
        _kind, parts, _arrays = _plane_parts(value)
        for part in parts:
            if part[0] == "array":
                total += _array_bytes(part[2], np.dtype(part[1]))
    return max(total, 1)


class AttachedPlanes:
    """A ``{spec: plane}`` view over a mapped shared segment.

    Same contract as :class:`AttachedTable`: keep it open while any
    plane view is in use, then :meth:`close`; the exporting side owns
    the segment's lifetime.
    """

    def __init__(
        self, shm: shared_memory.SharedMemory, planes: dict
    ) -> None:
        self._shm: Optional[shared_memory.SharedMemory] = shm
        self.planes: Optional[dict] = planes

    def __enter__(self) -> dict:
        assert self.planes is not None
        return self.planes

    def __exit__(self, *exc) -> None:
        self.close()

    def close(self) -> None:
        self.planes = None
        if self._shm is not None:
            try:
                self._shm.close()
            except BufferError:  # pragma: no cover - view still alive
                pass
            self._shm = None


@dataclass(frozen=True)
class SharedPlanesHandle:
    """Picklable description of one exported feature-plane segment.

    ``entries`` holds one ``(spec, kind, parts)`` triple per plane;
    the numeric arrays live in the named segment at running offsets
    derived from ``parts``, scalars (histogram feature names, tuple
    members) travel with the handle.
    """

    name: str
    entries: tuple

    def attach(self) -> AttachedPlanes:
        """Map the segment and view it as a ``{spec: plane}`` dict."""
        shm = shared_memory.SharedMemory(name=self.name)
        _unregister_attached(self.name)
        return AttachedPlanes(shm, self._view(shm))

    def _view(self, shm: shared_memory.SharedMemory) -> dict:
        """Zero-copy plane views over a mapped segment.

        Array views are marked read-only: workers share one physical
        copy, so an accidental in-place mutation must raise rather
        than corrupt a sibling's input (plane consumers that rewrite
        entries — the streaming KL baseline — ``.copy()`` first).
        """
        planes: dict = {}
        offset = 0
        for spec, kind, parts in self.entries:
            items = []
            for part in parts:
                if part[0] == "scalar":
                    items.append(part[1])
                    continue
                _tag, dtype_str, shape = part
                dtype = np.dtype(dtype_str)
                view = np.ndarray(
                    shape, dtype=dtype, buffer=shm.buf, offset=offset
                )
                view.flags.writeable = False
                items.append(view)
                offset += _array_bytes(shape, dtype)
            planes[spec] = _rebuild_plane(kind, items)
        return planes

    def unlink(self) -> None:
        """Free the backing segment (owner-side, after workers finish)."""
        _owned_names.discard(self.name)
        try:
            segment = shared_memory.SharedMemory(name=self.name)
        except FileNotFoundError:  # pragma: no cover - already unlinked
            return
        segment.unlink()
        segment.close()


def _rebuild_plane(kind: str, items: list):
    if kind == "nd":
        return items[0]
    if kind == "tuple":
        return tuple(items)
    if kind == "list":
        return items
    # "hist": (feature, values, codes, counts)
    from repro.detectors.features import BinnedHistogram

    return BinnedHistogram(items[0], items[1], items[2], items[3])


def _write_planes(shm: shared_memory.SharedMemory, items) -> tuple:
    """Pack plane arrays into ``shm``; return the handle entries."""
    entries = []
    offset = 0
    for spec, value in items:
        kind, parts, arrays = _plane_parts(value)
        for array in arrays:
            dtype = array.dtype
            view = np.ndarray(
                array.shape, dtype=dtype, buffer=shm.buf, offset=offset
            )
            view[...] = array
            offset += _array_bytes(array.shape, dtype)
            del view
        entries.append((spec, kind, parts))
    return tuple(entries)


def export_planes(items) -> SharedPlanesHandle:
    """Copy ``(spec, value)`` plane pairs into a fresh shared segment.

    The caller owns the segment and must eventually call
    :meth:`SharedPlanesHandle.unlink`.  Callers exporting per shard
    should prefer a :class:`PlaneArena`, which recycles one segment.
    """
    items = list(items)
    shm = shared_memory.SharedMemory(
        create=True, size=planes_segment_bytes(items)
    )
    _owned_names.add(shm.name)
    try:
        entries = _write_planes(shm, items)
        handle = SharedPlanesHandle(name=shm.name, entries=entries)
    except BaseException:
        _owned_names.discard(shm.name)
        shm.close()
        shm.unlink()
        raise
    shm.close()
    return handle


class PlaneArena:
    """A reusable shared segment for successive feature-plane exports.

    The plane twin of :class:`TableArena`: one owned segment recycled
    across exports, grown (with ``slack`` headroom, under a new name)
    only when a bigger plane set arrives.  Same recycle discipline:
    never export over a segment while a task holding its previous
    handle may still read it.
    """

    def __init__(self, slack: float = 1.25) -> None:
        if slack < 1.0:
            raise ValueError(f"slack must be >= 1, got {slack}")
        self.slack = slack
        self._shm: Optional[shared_memory.SharedMemory] = None
        #: Segments allocated over the arena's lifetime (observability:
        #: steady state is 1).
        self.allocations = 0

    def export(self, items) -> SharedPlanesHandle:
        """Pack plane pairs into the (recycled or grown) segment."""
        items = list(items)
        need = planes_segment_bytes(items)
        if self._shm is None or self._shm.size < need:
            self.close()
            self._shm = shared_memory.SharedMemory(
                create=True, size=max(int(need * self.slack), need)
            )
            _owned_names.add(self._shm.name)
            self.allocations += 1
        entries = _write_planes(self._shm, items)
        return SharedPlanesHandle(name=self._shm.name, entries=entries)

    @property
    def name(self) -> Optional[str]:
        """Current segment name (``None`` before first export)."""
        return self._shm.name if self._shm is not None else None

    def close(self) -> None:
        """Unlink and unmap the current segment (idempotent)."""
        if self._shm is None:
            return
        shm, self._shm = self._shm, None
        _owned_names.discard(shm.name)
        _register_owned(shm.name)
        try:
            shm.unlink()
        except FileNotFoundError:  # pragma: no cover - already unlinked
            pass
        _close_quietly(shm)

    def __enter__(self) -> "PlaneArena":
        return self

    def __exit__(self, *exc) -> None:
        self.close()


# -- persistent attachment and segment reuse ---------------------------
#
# The per-shard export/attach/unlink cycle above is correct but pays a
# fixed cost per segment (shm_open + mmap + resource-tracker traffic +
# unlink) that dwarfs the memcpy for small tables — the reason the
# microbench's 11x shm win historically failed to show up end-to-end.
# Two pieces remove the churn:
#
# * parent side, a TableArena recycles ONE named segment across
#   successive exports (growing only when a bigger table arrives), so
#   steady-state export cost is a pure memcpy;
# * worker side, a SegmentRegistry pins mappings by segment name, so a
#   worker receiving its second shard against the same (or a recycled)
#   segment skips the map entirely and only rebuilds the O(#columns)
#   NumPy views.
#
# Safety: the arena owner must not overwrite a segment while any task
# holding its previous handle is still running — the pooled run modes
# guarantee this by recycling an arena only after the shard's report
# arrived.  Registry eviction and process exit merely unmap; the
# backing memory is freed when the owner unlinks AND the last mapping
# closes, in either order.


class SegmentRegistry:
    """Process-local cache of attached segments, keyed by name.

    Pool workers use the module singleton (:func:`segment_registry`) to
    attach task segments: the first task naming a segment maps it, every
    later task reuses the pinned mapping and only rebuilds the cheap
    per-column views (layouts travel with each handle, so one segment
    can back differently-sized tables across its lifetime — the arena
    recycling contract).

    ``max_segments`` bounds worker memory: mappings are evicted LRU
    once the pin count exceeds it.  Eviction (and :meth:`clear`, which
    runs at interpreter exit) closes the mapping; if column views built
    from it are still referenced the unmap is deferred to process exit
    — safe, because only the exporting side ever unlinks.
    """

    def __init__(self, max_segments: int = 8) -> None:
        self.max_segments = max_segments
        self._mappings: OrderedDict[str, shared_memory.SharedMemory] = (
            OrderedDict()
        )
        #: Mappings created / reused since construction (observability:
        #: a healthy persistent-worker run shows hits >> attaches).
        self.attaches = 0
        self.hits = 0

    def _mapping(self, name: str) -> shared_memory.SharedMemory:
        mapping = self._mappings.get(name)
        if mapping is not None:
            self.hits += 1
            self._mappings.move_to_end(name)
            return mapping
        mapping = shared_memory.SharedMemory(name=name)
        _unregister_attached(name)
        self._mappings[name] = mapping
        self.attaches += 1
        while len(self._mappings) > self.max_segments:
            _evicted, old = self._mappings.popitem(last=False)
            _close_quietly(old)
        return mapping

    def table(self, handle: SharedTableHandle) -> PacketTable:
        """A pinned zero-copy :class:`PacketTable` for ``handle``."""
        return _table_view(self._mapping(handle.name), handle.n_rows)

    def alarm_table(self, handle: SharedAlarmTableHandle) -> AlarmTable:
        """A pinned zero-copy :class:`AlarmTable` for ``handle``."""
        return handle._view(self._mapping(handle.name))

    def planes(self, handle: SharedPlanesHandle) -> dict:
        """Pinned zero-copy ``{spec: plane}`` views for ``handle``."""
        return handle._view(self._mapping(handle.name))

    def names(self) -> tuple[str, ...]:
        """Currently pinned segment names, LRU-oldest first."""
        return tuple(self._mappings)

    def release(self, name: str) -> None:
        """Unpin one segment (idempotent)."""
        mapping = self._mappings.pop(name, None)
        if mapping is not None:
            _close_quietly(mapping)

    def clear(self) -> None:
        """Unpin every segment (idempotent; registered atexit)."""
        while self._mappings:
            _name, mapping = self._mappings.popitem(last=False)
            _close_quietly(mapping)


def _close_quietly(mapping: shared_memory.SharedMemory) -> None:
    try:
        mapping.close()
    except BufferError:  # pragma: no cover - views still alive
        pass


_registry: Optional[SegmentRegistry] = None


def segment_registry() -> SegmentRegistry:
    """The process-wide :class:`SegmentRegistry` (created lazily).

    In pool workers this is the pin store that survives across tasks;
    its :meth:`~SegmentRegistry.clear` is registered ``atexit`` so a
    cleanly exiting worker unmaps everything it pinned.
    """
    global _registry
    if _registry is None:
        _registry = SegmentRegistry()
        atexit.register(_registry.clear)
    return _registry


class TableArena:
    """A reusable shared segment for successive packet-table exports.

    ``export`` packs the table into the owned segment and returns a
    fresh :class:`SharedTableHandle` naming it.  The segment is created
    on first use and *recycled* on every later export that fits; a
    bigger table reallocates (with ``slack`` headroom, so ingest-sized
    jitter doesn't thrash) under a new name and unlinks the old
    segment.  Stable names are what make worker-side pinning pay:
    after warm-up, an export is one memcpy in the parent and zero
    map/unmap work in the workers.

    The caller owns the recycle discipline: never export over a
    segment while a task holding its previous handle may still read it
    (the session recycles an arena only after the shard's report
    arrives).  :meth:`close` unlinks the segment; the arena is
    reusable afterwards (a later export allocates fresh).
    """

    def __init__(self, slack: float = 1.25) -> None:
        if slack < 1.0:
            raise ValueError(f"slack must be >= 1, got {slack}")
        self.slack = slack
        self._shm: Optional[shared_memory.SharedMemory] = None
        #: Segments allocated over the arena's lifetime (observability:
        #: steady state is 1).
        self.allocations = 0

    def export(self, table: PacketTable) -> SharedTableHandle:
        """Pack ``table`` into the (recycled or grown) segment."""
        need = segment_bytes(len(table))
        if self._shm is None or self._shm.size < need:
            self.close()
            self._shm = shared_memory.SharedMemory(
                create=True, size=max(int(need * self.slack), need)
            )
            _owned_names.add(self._shm.name)
            self.allocations += 1
        _write_table(self._shm, table)
        return SharedTableHandle(name=self._shm.name, n_rows=len(table))

    @property
    def name(self) -> Optional[str]:
        """Current segment name (``None`` before first export)."""
        return self._shm.name if self._shm is not None else None

    def close(self) -> None:
        """Unlink and unmap the current segment (idempotent)."""
        if self._shm is None:
            return
        shm, self._shm = self._shm, None
        _owned_names.discard(shm.name)
        _register_owned(shm.name)
        try:
            shm.unlink()
        except FileNotFoundError:  # pragma: no cover - already unlinked
            pass
        _close_quietly(shm)

    def __enter__(self) -> "TableArena":
        return self

    def __exit__(self, *exc) -> None:
        self.close()


#: Either transport handle type (task fields accept both).
AnyHandle = Union[SharedTableHandle, SharedAlarmTableHandle]
