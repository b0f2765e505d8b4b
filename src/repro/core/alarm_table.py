"""Columnar alarm storage: the struct-of-arrays twin of :class:`Alarm`.

An :class:`AlarmTable` is to alarms what
:class:`~repro.net.table.PacketTable` is to packets: one NumPy array
per alarm field, with :class:`~repro.detectors.base.Alarm` objects
materialized lazily (and cached) only where object-level code still
needs them.  It is the one carrier of Steps 2-4 on every engine —
similarity estimation, community detection, the acceptance heuristics
— which read the columns directly: time spans for window eviction and
community envelopes, dense detector/configuration codes for vote
tables, encoded filter/flow-key rows for traffic extraction.

A table encoded from alarm objects (:meth:`AlarmTable.from_alarms`)
seeds its view caches with those very objects, and :meth:`~AlarmTable.take`
and :meth:`~AlarmTable.concatenate` carry the caches along, so the
filters and flow keys a detector built are never rebuilt from columns
downstream.  Only a cold table (decoded from an alarm segment of the
cache or the warehouse, or unpickled from a pool pipe) materializes
views from its columns.

Layout
------
Per-alarm numeric columns (length ``n``):

``det_code``     int32   — index into the :attr:`detectors` name pool.
``config_code``  int32   — index into the :attr:`configs` name pool.
``t0, t1``       float64 — the alarm's half-open time window.
``score``        float64 — detector-specific anomaly score.

Variable-length designations are stored as *ragged* columns: per-alarm
``filter_bounds`` / ``flow_bounds`` (length ``n + 1``, monotone) index
into flat per-filter / per-flow-key column blocks:

* filters — one row per :class:`~repro.net.filters.FeatureFilter`,
  fields encoded numerically with ``-1`` (ints) / ``NaN`` (floats)
  standing for the wildcard ``None``;
* flow keys — one row per :class:`~repro.net.flow.FlowKey`
  (src/sport/dst/dport/proto as unsigned columns).

Because every column is a plain array, an alarm table spills into a
warehouse alarm segment (the alarm cache's entries too), pickles
compactly (fan-out workers return them) and slices / concatenates
without touching Python objects.  Detector and
configuration *names* live in small first-appearance-ordered pools;
the dense coding is computed by the paired ``"alarm_codes"`` engine
kernels.
"""

from __future__ import annotations

from typing import Iterable, Iterator, Optional, Sequence, Union

import numpy as np

from repro.detectors.base import Alarm
from repro.net.filters import FIELD_LIMITS, FeatureFilter
from repro.net.flow import FlowKey

#: Per-alarm numeric columns (length n).
ALARM_COLUMN_DTYPES: dict[str, np.dtype] = {
    "det_code": np.dtype(np.int32),
    "config_code": np.dtype(np.int32),
    "t0": np.dtype(np.float64),
    "t1": np.dtype(np.float64),
    "score": np.dtype(np.float64),
}

#: Per-filter encoded columns (length = total filters).  ``-1`` / NaN
#: encode the wildcard ``None``.
FILTER_COLUMN_DTYPES: dict[str, np.dtype] = {
    "f_src": np.dtype(np.int64),
    "f_dst": np.dtype(np.int64),
    "f_sport": np.dtype(np.int32),
    "f_dport": np.dtype(np.int32),
    "f_proto": np.dtype(np.int16),
    "f_t0": np.dtype(np.float64),
    "f_t1": np.dtype(np.float64),
}

#: Per-flow-key columns (length = total flow keys).
FLOW_COLUMN_DTYPES: dict[str, np.dtype] = {
    "w_src": np.dtype(np.uint32),
    "w_sport": np.dtype(np.uint16),
    "w_dst": np.dtype(np.uint32),
    "w_dport": np.dtype(np.uint16),
    "w_proto": np.dtype(np.uint8),
}

#: Ragged bounds columns (length n + 1 each).
BOUND_COLUMNS = ("filter_bounds", "flow_bounds")

ALARM_COLUMNS = tuple(ALARM_COLUMN_DTYPES)
FILTER_COLUMNS = tuple(FILTER_COLUMN_DTYPES)
FLOW_COLUMNS = tuple(FLOW_COLUMN_DTYPES)

#: Every array the table carries, in constructor order.
ALL_ARRAYS = ALARM_COLUMNS + BOUND_COLUMNS + FILTER_COLUMNS + FLOW_COLUMNS

#: Lazy view caches, one slot per alarm / filter row / flow-key row.
_VIEW_CACHES = ("_alarm_cache", "_filter_cache", "_flow_key_cache")


def _encode_optional_int(value: Optional[int]) -> int:
    return -1 if value is None else int(value)


def _encode_optional_float(value: Optional[float]) -> float:
    return np.nan if value is None else float(value)


def _ragged_take(bounds: np.ndarray, rows: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Gather ragged segments for a row subset.

    Returns ``(new_bounds, flat_indices)``: the bounds of the selected
    segments re-packed contiguously, and the flat indices into the old
    per-element block that realize the gather.
    """
    counts = bounds[1:] - bounds[:-1]
    picked = counts[rows]
    new_bounds = np.zeros(len(rows) + 1, dtype=np.int64)
    np.cumsum(picked, out=new_bounds[1:])
    total = int(new_bounds[-1])
    if total == 0:
        return new_bounds, np.empty(0, dtype=np.int64)
    starts = bounds[:-1][rows]
    flat = (
        np.repeat(starts, picked)
        + np.arange(total, dtype=np.int64)
        - np.repeat(new_bounds[:-1], picked)
    )
    return new_bounds, flat


class AlarmTable:
    """Struct-of-arrays alarm storage with lazy :class:`Alarm` views."""

    __slots__ = ALL_ARRAYS + ("detectors", "configs") + _VIEW_CACHES

    def __init__(
        self,
        det_code,
        config_code,
        t0,
        t1,
        score,
        filter_bounds,
        flow_bounds,
        f_src,
        f_dst,
        f_sport,
        f_dport,
        f_proto,
        f_t0,
        f_t1,
        w_src,
        w_sport,
        w_dst,
        w_dport,
        w_proto,
        detectors: Sequence[str] = (),
        configs: Sequence[str] = (),
    ) -> None:
        values = dict(
            zip(
                ALL_ARRAYS,
                (
                    det_code, config_code, t0, t1, score,
                    filter_bounds, flow_bounds,
                    f_src, f_dst, f_sport, f_dport, f_proto, f_t0, f_t1,
                    w_src, w_sport, w_dst, w_dport, w_proto,
                ),
            )
        )
        dtypes = {
            **ALARM_COLUMN_DTYPES,
            **FILTER_COLUMN_DTYPES,
            **FLOW_COLUMN_DTYPES,
            "filter_bounds": np.dtype(np.int64),
            "flow_bounds": np.dtype(np.int64),
        }
        for name, value in values.items():
            column = np.asarray(value, dtype=dtypes[name])
            if column.ndim != 1:
                raise ValueError(f"column {name!r} must be one-dimensional")
            object.__setattr__(self, name, column)
        object.__setattr__(self, "detectors", tuple(detectors))
        object.__setattr__(self, "configs", tuple(configs))
        self._validate()
        n = len(self.det_code)
        object.__setattr__(self, "_alarm_cache", [None] * n)
        object.__setattr__(self, "_filter_cache", [None] * len(self.f_src))
        object.__setattr__(self, "_flow_key_cache", [None] * len(self.w_src))

    def __setattr__(self, name: str, value) -> None:
        raise AttributeError("AlarmTable is immutable")

    def __reduce__(self):
        return (
            AlarmTable,
            tuple(getattr(self, name) for name in ALL_ARRAYS)
            + (self.detectors, self.configs),
        )

    def _validate(self) -> None:
        n = len(self.det_code)
        for name in ALARM_COLUMNS:
            if len(getattr(self, name)) != n:
                raise ValueError(f"column {name!r} length mismatch")
        for bounds, block in (
            (self.filter_bounds, FILTER_COLUMNS),
            (self.flow_bounds, FLOW_COLUMNS),
        ):
            if len(bounds) != n + 1:
                raise ValueError("bounds must have n + 1 entries")
            if n and not (bounds[1:] >= bounds[:-1]).all():
                raise ValueError("bounds must be monotone")
            if int(bounds[0]) != 0:
                raise ValueError("bounds must start at 0")
            total = int(bounds[-1])
            for name in block:
                if len(getattr(self, name)) != total:
                    raise ValueError(f"column {name!r} length mismatch")
        # A filter value is -1 (the wildcard) or one its packet column
        # can hold, as in every table encoded from FeatureFilters.
        for field, limit in FIELD_LIMITS.items():
            column = getattr(self, "f_" + field)
            if column.size and (
                int(column.min()) < -1 or int(column.max()) >= limit
            ):
                raise ValueError(
                    f"column 'f_{field}' holds a value outside [-1, {limit})"
                )
        if n:
            if self.det_code.size and int(self.det_code.max(initial=-1)) >= len(
                self.detectors
            ):
                raise ValueError("det_code out of range of the detector pool")
            if int(self.config_code.max(initial=-1)) >= len(self.configs):
                raise ValueError("config_code out of range of the config pool")

    # -- construction --------------------------------------------------

    @classmethod
    def from_alarms(
        cls, alarms: Sequence[Alarm], engine="auto"
    ) -> "AlarmTable":
        """Batch-encode alarm objects into one table.

        The dense detector / configuration coding runs through the
        engine's paired ``"alarm_codes"`` kernel (first-appearance
        numbering on every engine).
        """
        from repro.engine import resolve_engine

        engine = resolve_engine(engine, what="alarm-table")
        alarms = list(alarms)
        n = len(alarms)
        alarm_codes = engine.kernel("alarm_codes")
        det_code, detectors = alarm_codes([a.detector for a in alarms])
        config_code, configs = alarm_codes([a.config for a in alarms])

        filter_bounds = np.zeros(n + 1, dtype=np.int64)
        flow_bounds = np.zeros(n + 1, dtype=np.int64)
        for i, alarm in enumerate(alarms):
            filter_bounds[i + 1] = filter_bounds[i] + len(alarm.filters)
            flow_bounds[i + 1] = flow_bounds[i] + len(alarm.flow_keys)

        filters = [f for a in alarms for f in a.filters]
        flow_keys = [k for a in alarms for k in a.flow_keys]
        table = cls(
            det_code=det_code,
            config_code=config_code,
            t0=np.fromiter((a.t0 for a in alarms), np.float64, count=n),
            t1=np.fromiter((a.t1 for a in alarms), np.float64, count=n),
            score=np.fromiter((a.score for a in alarms), np.float64, count=n),
            filter_bounds=filter_bounds,
            flow_bounds=flow_bounds,
            f_src=[_encode_optional_int(f.src) for f in filters],
            f_dst=[_encode_optional_int(f.dst) for f in filters],
            f_sport=[_encode_optional_int(f.sport) for f in filters],
            f_dport=[_encode_optional_int(f.dport) for f in filters],
            f_proto=[_encode_optional_int(f.proto) for f in filters],
            f_t0=[_encode_optional_float(f.t0) for f in filters],
            f_t1=[_encode_optional_float(f.t1) for f in filters],
            w_src=[k.src for k in flow_keys],
            w_sport=[k.sport for k in flow_keys],
            w_dst=[k.dst for k in flow_keys],
            w_dport=[k.dport for k in flow_keys],
            w_proto=[k.proto for k in flow_keys],
            detectors=detectors,
            configs=configs,
        )
        # Seed the lazy caches with the originals: views materialized
        # from a freshly encoded table are the very objects encoded.
        object.__setattr__(table, "_alarm_cache", list(alarms))
        object.__setattr__(table, "_filter_cache", list(filters))
        object.__setattr__(table, "_flow_key_cache", list(flow_keys))
        return table

    @classmethod
    def empty(cls) -> "AlarmTable":
        zero = np.empty(0)
        return cls(
            *([zero] * len(ALARM_COLUMNS)),
            np.zeros(1, dtype=np.int64),
            np.zeros(1, dtype=np.int64),
            *([zero] * (len(FILTER_COLUMNS) + len(FLOW_COLUMNS))),
        )

    @classmethod
    def concatenate(cls, tables: Iterable["AlarmTable"]) -> "AlarmTable":
        """Stack tables row-wise, merging the name pools.

        Pool order is first appearance across the inputs, so
        concatenating per-detector tables in ensemble order numbers
        configurations exactly like sequential list extension.
        """
        tables = [t for t in tables]
        if not tables:
            return cls.empty()
        if len(tables) == 1:
            return tables[0]

        def merge_pool(attr: str, code_attr: str):
            pool: list[str] = []
            code_of: dict[str, int] = {}
            remapped = []
            for table in tables:
                mapping = np.empty(len(getattr(table, attr)), dtype=np.int32)
                for j, name in enumerate(getattr(table, attr)):
                    code = code_of.get(name)
                    if code is None:
                        code = code_of[name] = len(pool)
                        pool.append(name)
                    mapping[j] = code
                codes = getattr(table, code_attr)
                remapped.append(
                    mapping[codes] if len(codes) else codes.astype(np.int32)
                )
            return np.concatenate(remapped), tuple(pool)

        det_code, detectors = merge_pool("detectors", "det_code")
        config_code, configs = merge_pool("configs", "config_code")

        def cat(name: str) -> np.ndarray:
            return np.concatenate([getattr(t, name) for t in tables])

        def cat_bounds(name: str) -> np.ndarray:
            parts = [tables[0].column(name)]
            offset = int(parts[0][-1])
            for table in tables[1:]:
                bounds = table.column(name)
                parts.append(bounds[1:] + offset)
                offset += int(bounds[-1])
            return np.concatenate(parts)

        table = cls(
            det_code=det_code,
            config_code=config_code,
            t0=cat("t0"),
            t1=cat("t1"),
            score=cat("score"),
            filter_bounds=cat_bounds("filter_bounds"),
            flow_bounds=cat_bounds("flow_bounds"),
            **{name: cat(name) for name in FILTER_COLUMNS},
            **{name: cat(name) for name in FLOW_COLUMNS},
            detectors=detectors,
            configs=configs,
        )
        for cache in _VIEW_CACHES:
            object.__setattr__(
                table,
                cache,
                [view for t in tables for view in getattr(t, cache)],
            )
        return table

    # -- container protocol --------------------------------------------

    def __len__(self) -> int:
        return len(self.det_code)

    def __bool__(self) -> bool:
        return len(self) > 0

    def __iter__(self) -> Iterator[Alarm]:
        for i in range(len(self)):
            yield self.alarm(i)

    def __getitem__(self, index: int) -> Alarm:
        return self.alarm(index)

    def column(self, name: str) -> np.ndarray:
        if name not in ALL_ARRAYS:
            raise KeyError(f"unknown column {name!r}")
        return getattr(self, name)

    def __eq__(self, other) -> bool:
        if not isinstance(other, AlarmTable):
            return NotImplemented
        return (
            self.detectors == other.detectors
            and self.configs == other.configs
            and all(
                np.array_equal(
                    getattr(self, name), getattr(other, name), equal_nan=True
                )
                for name in ALL_ARRAYS
            )
        )

    __hash__ = None  # mutable caches inside; identity hashing is a trap

    # -- lazy object views ---------------------------------------------

    def filter_at(self, index: int) -> FeatureFilter:
        """Materialize one pooled filter row (cached)."""
        cached = self._filter_cache[index]
        if cached is None:
            def opt_int(column):
                value = int(getattr(self, column)[index])
                return None if value < 0 else value

            def opt_float(column):
                value = float(getattr(self, column)[index])
                return None if np.isnan(value) else value

            cached = self._filter_cache[index] = FeatureFilter(
                src=opt_int("f_src"),
                dst=opt_int("f_dst"),
                sport=opt_int("f_sport"),
                dport=opt_int("f_dport"),
                proto=opt_int("f_proto"),
                t0=opt_float("f_t0"),
                t1=opt_float("f_t1"),
            )
        return cached

    def flow_key_at(self, index: int) -> FlowKey:
        """Materialize one pooled flow-key row (cached)."""
        cached = self._flow_key_cache[index]
        if cached is None:
            cached = self._flow_key_cache[index] = FlowKey(
                src=int(self.w_src[index]),
                sport=int(self.w_sport[index]),
                dst=int(self.w_dst[index]),
                dport=int(self.w_dport[index]),
                proto=int(self.w_proto[index]),
            )
        return cached

    def filters_of(self, index: int) -> tuple[FeatureFilter, ...]:
        lo, hi = self.filter_bounds[index], self.filter_bounds[index + 1]
        return tuple(self.filter_at(i) for i in range(int(lo), int(hi)))

    def flow_keys_of(self, index: int) -> frozenset:
        lo, hi = self.flow_bounds[index], self.flow_bounds[index + 1]
        return frozenset(
            self.flow_key_at(i) for i in range(int(lo), int(hi))
        )

    def alarm(self, index: int) -> Alarm:
        """Materialize row ``index`` as an :class:`Alarm` (cached)."""
        cached = self._alarm_cache[index]
        if cached is None:
            cached = self._alarm_cache[index] = Alarm(
                detector=self.detectors[int(self.det_code[index])],
                config=self.configs[int(self.config_code[index])],
                t0=float(self.t0[index]),
                t1=float(self.t1[index]),
                filters=self.filters_of(index),
                flow_keys=self.flow_keys_of(index),
                score=float(self.score[index]),
            )
        return cached

    # -- slicing --------------------------------------------------------

    def take(self, rows) -> "AlarmTable":
        """Row subset (index array or boolean mask), order preserved.

        Name pools are carried over unchanged — codes stay valid — so
        window eviction in the streaming engine is a pure column slice.
        The view caches are gathered along with the rows: views already
        materialized (or seeded by :meth:`from_alarms`) stay the same
        objects in the subset.
        """
        rows = np.asarray(rows)
        if rows.dtype == bool:
            rows = np.nonzero(rows)[0]
        rows = rows.astype(np.int64)
        filter_bounds, filter_idx = _ragged_take(self.filter_bounds, rows)
        flow_bounds, flow_idx = _ragged_take(self.flow_bounds, rows)
        table = AlarmTable(
            **{name: getattr(self, name)[rows] for name in ALARM_COLUMNS},
            filter_bounds=filter_bounds,
            flow_bounds=flow_bounds,
            **{name: getattr(self, name)[filter_idx] for name in FILTER_COLUMNS},
            **{name: getattr(self, name)[flow_idx] for name in FLOW_COLUMNS},
            detectors=self.detectors,
            configs=self.configs,
        )
        for cache, index in zip(_VIEW_CACHES, (rows, filter_idx, flow_idx)):
            views = getattr(self, cache)
            object.__setattr__(
                table, cache, [views[i] for i in index.tolist()]
            )
        return table

    def config_names_at(self, rows) -> set[str]:
        """Distinct configuration names of a row subset (no views)."""
        codes = np.unique(self.config_code[np.asarray(rows)])
        return {self.configs[int(c)] for c in codes}

    def detector_names_at(self, rows) -> set[str]:
        """Distinct detector names of a row subset (no views)."""
        codes = np.unique(self.det_code[np.asarray(rows)])
        return {self.detectors[int(c)] for c in codes}

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"AlarmTable(n={len(self)}, configs={len(self.configs)}, "
            f"filters={len(self.f_src)}, flow_keys={len(self.w_src)})"
        )


def as_alarm_table(
    alarms: Union[AlarmTable, Sequence[Alarm]], engine="auto"
) -> AlarmTable:
    """``alarms`` as a table: returned as-is, or a list encoded once.

    The entry points of Steps 2-4 accept a plain alarm list for
    convenience; this is where such a list joins the table path.
    """
    if isinstance(alarms, AlarmTable):
        return alarms
    return AlarmTable.from_alarms(alarms, engine=engine)
