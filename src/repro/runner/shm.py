"""Zero-copy transport of packet tables and feature planes to workers.

Shared memory is the only way packets cross a process boundary:

* the parent **exports** a value into a named segment it owns — a
  :class:`TableArena` for packet tables, a :class:`PlaneArena` for a
  trace's cached feature planes.  Arrays are packed back-to-back,
  8-byte aligned, and a tiny picklable handle (segment name plus the
  layout: a row count, or per-plane dtypes and shapes) rides the task
  pipe instead of the data;
* the worker **attaches** through the process-local
  :class:`SegmentRegistry`, which *pins* the mapping so later tasks
  naming the same segment skip the map entirely: every array becomes
  a NumPy view directly over the mapped segment — no copy, no
  deserialization;
* the parent **unlinks** the segment after its consumers finish
  (:meth:`TableArena.close`, or :meth:`SharedTableHandle.unlink` for a
  one-shot :func:`export_table`), returning the memory to the OS.

``docs/architecture-fanout.md`` walks the full
export → attach → pin → reuse → teardown lifecycle.
"""

from __future__ import annotations

import atexit
import math
import os
from collections import OrderedDict
from dataclasses import dataclass
from multiprocessing import shared_memory
from typing import Optional

import numpy as np

from repro.net.table import COLUMN_DTYPES, COLUMNS, PacketTable


#: Segment names *created* by this process (exports and arenas).  The
#: attach-side resource-tracker workaround below must skip these: when
#: owner and attacher are the same process (tests, one-shot exports),
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


def _close_quietly(mapping: shared_memory.SharedMemory) -> None:
    """Unmap; a still-referenced view defers the unmap to process exit.

    That is safe: only the owner's unlink frees the backing memory,
    and the memory returns to the OS once every mapping is gone.
    """
    try:
        mapping.close()
    except BufferError:  # pragma: no cover - views still alive
        pass


# -- segment layout ----------------------------------------------------
#
# Both families pack arrays back-to-back at 8-byte-aligned running
# offsets; the layout — a (dtype, shape) per array, in order — is
# derivable from the handle alone, so a segment larger than the layout
# needs (an arena recycled from a bigger export) views correctly.


def _array_bytes(dtype: np.dtype, shape: tuple) -> int:
    """Segment bytes reserved for one array, 8-byte aligned."""
    return -(-math.prod(shape) * dtype.itemsize // 8) * 8


def _layout_bytes(layout) -> int:
    """Total segment size for a ``(dtype, shape)`` layout (≥ 1 byte)."""
    return max(sum(_array_bytes(dtype, shape) for dtype, shape in layout), 1)


def _views(buf, layout, writeable: bool = True) -> list[np.ndarray]:
    """Zero-copy arrays over ``buf``, one per ``(dtype, shape)``."""
    views = []
    offset = 0
    for dtype, shape in layout:
        view = np.ndarray(shape, dtype=dtype, buffer=buf, offset=offset)
        view.flags.writeable = writeable
        views.append(view)
        offset += _array_bytes(dtype, shape)
    return views


def _write(buf, arrays) -> None:
    """Pack ``arrays`` into ``buf`` (one memcpy each)."""
    layout = [(array.dtype, array.shape) for array in arrays]
    for view, array in zip(_views(buf, layout), arrays):
        view[...] = array


def _table_layout(n_rows: int) -> list[tuple[np.dtype, tuple]]:
    return [(COLUMN_DTYPES[column], (n_rows,)) for column in COLUMNS]


def segment_bytes(n_rows: int) -> int:
    """Total segment size for an ``n_rows`` packet table (≥ 1 byte)."""
    return _layout_bytes(_table_layout(n_rows))


def _plane_items(value) -> tuple[str, list]:
    """One exportable plane as ``(kind, items)``.

    ``items`` are the plane's arrays and picklable scalars in order.
    Kinds: ``"nd"`` (bare array), ``"tuple"`` / ``"list"`` (flat
    containers), ``"hist"`` (BinnedHistogram: feature name, values,
    codes, counts).
    """
    if isinstance(value, np.ndarray):
        return "nd", [value]
    if isinstance(value, (tuple, list)):
        kind = "tuple" if isinstance(value, tuple) else "list"
        return kind, [
            item.item() if isinstance(item, np.generic) else item
            for item in value
        ]
    # BinnedHistogram duck-type (feature name + three numeric arrays).
    return "hist", [value.feature, value.values, value.codes, value.counts]


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


# -- handles -----------------------------------------------------------


class Attached:
    """A one-shot view (packet table or plane dict) over a mapping.

    Keeps the segment mapped while the view is in use; use it as a
    context manager, or call :meth:`close` after dropping every
    reference to the view and arrays derived from it.
    """

    def __init__(self, shm: shared_memory.SharedMemory, view) -> None:
        self._shm: Optional[shared_memory.SharedMemory] = shm
        self.view = view

    def __enter__(self):
        return self.view

    def __exit__(self, *exc) -> None:
        self.close()

    def close(self) -> None:
        """Drop the view and unmap the segment (idempotent)."""
        self.view = None
        if self._shm is not None:
            _close_quietly(self._shm)
            self._shm = None


@dataclass(frozen=True)
class _SegmentHandle:
    """Picklable name of one exported segment; subclasses add layout."""

    name: str

    def attach(self) -> Attached:
        """Map the segment once (pool tasks pin via the registry)."""
        shm = shared_memory.SharedMemory(name=self.name)
        _unregister_attached(self.name)
        return Attached(shm, self._view(shm))

    def unlink(self) -> None:
        """Free the backing segment (owner-side, after workers finish).

        Idempotent: a second unlink is a silent no-op.  Attached
        mappings stay valid after the unlink — the memory is returned
        to the OS only once every mapping closes.
        """
        _owned_names.discard(self.name)
        try:
            segment = shared_memory.SharedMemory(name=self.name)
        except FileNotFoundError:  # pragma: no cover - already unlinked
            return
        segment.unlink()
        segment.close()


@dataclass(frozen=True)
class SharedTableHandle(_SegmentHandle):
    """An exported :class:`PacketTable`: the columns in ``COLUMNS`` order."""

    n_rows: int

    def _view(self, shm: shared_memory.SharedMemory) -> PacketTable:
        return PacketTable(*_views(shm.buf, _table_layout(self.n_rows)))


@dataclass(frozen=True)
class SharedPlanesHandle(_SegmentHandle):
    """An exported ``{spec: plane}`` set.

    ``layout`` is the ``(dtype_str, shape)`` of each distinct array,
    in segment order.  ``entries`` holds one ``(spec, kind, parts)``
    triple per plane: an ``("array", i)`` part is the ``i``-th array
    of the segment, so planes that share an array share its view, and
    a ``("scalar", v)`` part (histogram feature names, tuple members)
    travels with the handle.
    """

    entries: tuple
    layout: tuple

    def _view(self, shm: shared_memory.SharedMemory) -> dict:
        """Read-only plane views: workers share one physical copy, so
        an in-place mutation must raise rather than corrupt a sibling's
        input (the streaming KL baseline ``.copy()``\\ s first)."""
        arrays = _views(
            shm.buf,
            [(np.dtype(dtype), shape) for dtype, shape in self.layout],
            writeable=False,
        )
        return {
            spec: _rebuild_plane(
                kind,
                [
                    arrays[value] if part == "array" else value
                    for part, value in parts
                ],
            )
            for spec, kind, parts in self.entries
        }


# -- owned, recycled segments ------------------------------------------
#
# A fresh segment per export pays a fixed cost (shm_open + mmap +
# resource-tracker traffic + unlink) that dwarfs the memcpy for small
# tables.  An arena owns ONE named segment recycled across exports,
# grown (with ``slack`` headroom, under a new name) only when a bigger
# value arrives, so steady-state export cost is a pure memcpy and the
# stable name lets workers' pinned mappings hit.
#
# Safety: the owner must not export over a segment while a task
# holding its previous handle may still read it — the pooled run
# modes recycle an arena only after the shard's report arrived.


class _Arena:
    """One owned shared segment, recycled across exports."""

    def __init__(self, slack: float = 1.25) -> None:
        if slack < 1.0:
            raise ValueError(f"slack must be >= 1, got {slack}")
        self.slack = slack
        self._shm: Optional[shared_memory.SharedMemory] = None
        #: Segments allocated over the arena's lifetime (observability:
        #: steady state is 1).
        self.allocations = 0

    def _segment(self, need: int) -> shared_memory.SharedMemory:
        """The owned segment, (re)allocated when smaller than ``need``."""
        if self._shm is None or self._shm.size < need:
            self.close()
            self._shm = shared_memory.SharedMemory(
                create=True, size=max(int(need * self.slack), need)
            )
            _owned_names.add(self._shm.name)
            self.allocations += 1
        return self._shm

    @property
    def name(self) -> Optional[str]:
        """Current segment name (``None`` before first export)."""
        return self._shm.name if self._shm is not None else None

    def close(self) -> None:
        """Unlink and unmap the current segment (idempotent).

        The arena stays usable: a later export allocates afresh.
        """
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

    def __enter__(self):
        return self

    def __exit__(self, *exc) -> None:
        self.close()


class TableArena(_Arena):
    """A recycled segment for successive packet-table exports."""

    def export(self, table: PacketTable) -> SharedTableHandle:
        """Pack ``table`` into the (recycled or grown) segment."""
        shm = self._segment(segment_bytes(len(table)))
        _write(shm.buf, [getattr(table, column) for column in COLUMNS])
        return SharedTableHandle(name=shm.name, n_rows=len(table))


class PlaneArena(_Arena):
    """A recycled segment for successive feature-plane exports."""

    def export(self, items) -> SharedPlanesHandle:
        """Pack ``(spec, value)`` plane pairs into the segment.

        Each distinct array, by identity, is written once: planes that
        share one (every binned histogram of a field holds its
        ``value_codes`` arrays) refer back to it.
        """
        entries = []
        arrays: list[np.ndarray] = []
        index_of: dict[int, int] = {}
        for spec, value in items:
            kind, plane_items = _plane_items(value)
            parts = []
            for item in plane_items:
                if not isinstance(item, np.ndarray):
                    parts.append(("scalar", item))
                    continue
                index = index_of.get(id(item))
                if index is None:
                    index = index_of[id(item)] = len(arrays)
                    arrays.append(item)
                parts.append(("array", index))
            entries.append((spec, kind, tuple(parts)))
        layout = [(array.dtype, array.shape) for array in arrays]
        shm = self._segment(_layout_bytes(layout))
        _write(shm.buf, arrays)
        return SharedPlanesHandle(
            name=shm.name,
            entries=tuple(entries),
            layout=tuple((dtype.str, shape) for dtype, shape in layout),
        )


class ArenaPool:
    """The recycled arenas of one owner (a session or a stream).

    :meth:`take` lends out a free arena of the asked kind, making one
    when none is free; :meth:`give` returns it once no task can still
    read its segment; :meth:`close` unlinks every segment.
    """

    def __init__(self) -> None:
        #: Every arena made, lent out or free.
        self.arenas: list[_Arena] = []
        self._free: dict[type, list[_Arena]] = {}

    def take(self, kind: type) -> _Arena:
        free = self._free.get(kind)
        if free:
            return free.pop()
        arena = kind()
        self.arenas.append(arena)
        return arena

    def give(self, arena: Optional[_Arena]) -> None:
        if arena is not None:
            self._free.setdefault(type(arena), []).append(arena)

    def close(self) -> None:
        """Unlink every arena's segment (idempotent)."""
        self._free.clear()
        while self.arenas:
            self.arenas.pop().close()


def export_table(table: PacketTable) -> SharedTableHandle:
    """Copy ``table`` into a fresh segment the caller owns.

    For callers shipping a few long-lived tables (pooled parameter
    sweeps); the caller must eventually call
    :meth:`SharedTableHandle.unlink`.  Successive exports should go
    through a :class:`TableArena` instead.
    """
    arena = TableArena(slack=1.0)
    try:
        handle = arena.export(table)
    except BaseException:
        arena.close()
        raise
    # Hand the segment to the handle: unmap here, keep it linked.
    _close_quietly(arena._shm)
    return handle


# -- persistent attachment ---------------------------------------------


class SegmentRegistry:
    """Process-local cache of attached segments, keyed by name.

    Pool workers use the module singleton (:func:`segment_registry`) to
    attach task segments: the first task naming a segment maps it, every
    later task reuses the pinned mapping and only rebuilds the cheap
    views (layouts travel with each handle, so one segment can back
    differently-sized values across its lifetime — the arena recycling
    contract).

    ``max_segments`` bounds worker memory: mappings are evicted LRU
    once the pin count exceeds it.  Eviction (and :meth:`clear`, which
    runs at interpreter exit) closes the mapping; if views built from
    it are still referenced the unmap is deferred to process exit —
    safe, because only the exporting side ever unlinks.
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

    def view(self, handle: _SegmentHandle):
        """The pinned zero-copy view (table or plane dict) of ``handle``."""
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
