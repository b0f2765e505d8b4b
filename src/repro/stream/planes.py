"""Incrementally maintained feature-plane bases for streaming windows.

The batch pipeline computes each window's base feature planes — per
field, the sorted distinct values with per-packet codes (the
``value_codes`` plane, on which the
:class:`~repro.detectors.features.BinnedHistogram` and Hough's pixel
index build) and the sketch bucket assignment — from scratch with
``np.unique`` and a hash per window.  Under a sliding window most of
that work repeats: the set of distinct values a stream has *ever*
carried only grows, and a value's sketch bucket never changes.

:class:`StreamingPlanes` exploits both facts.  :meth:`append` folds
each ingested chunk into one growing sorted **value dictionary** per
tracked field, hashing only the values never seen before into a
bucket map aligned with the dictionary.  :meth:`seed_window` then
derives a window's planes by ``searchsorted`` against the dictionary —
an exact reproduction of the from-scratch planes, because every packet
in a window was previously ingested:

* ``stable = searchsorted(dict_values, column)`` maps each packet to
  its dictionary slot (always a hit);
* the window's distinct values are ``dict_values[present]`` where
  ``present`` marks occupied slots — sorted and unique by
  construction, exactly ``np.unique(column)``;
* compacting occupied slots (``cumsum(present) - 1``) renumbers
  ``stable`` into the dense codes ``np.unique(..., return_inverse=True)``
  would emit;
* bucket assignments are one gather from the precomputed map, exactly
  ``shared_hasher(n, seed).buckets(column)``.

Eviction is deliberately a no-op: dropping packets from the window
never invalidates a value's hash or its position in the dictionary, so
the dictionary only grows.  Memory is therefore bounded by the number
of *distinct* values the stream has carried (at most ``2**32`` per
address field, in practice the stream's address diversity), not by its
length — the same bound the offline trace pays for one ``np.unique``.

Only vectorized-engine planes are maintained; the reference engine's
kernels build each window's planes from its packet objects (they are
the correctness oracle, not the fast path).
"""

from __future__ import annotations

import numpy as np

from repro.detectors.features import binned_value_histogram
from repro.detectors.planes import PlaneCache, merge_plane_specs
from repro.detectors.sketch import shared_hasher
from repro.net.table import PacketTable
from repro.net.trace import Trace


class StreamingPlanes:
    """Grow-only value dictionaries + bucket maps for one stream.

    Parameters
    ----------
    detectors:
        The ensemble whose ``plane_specs()`` decide which fields are
        tracked and which ``value_codes`` / ``binned_histogram`` /
        ``sketch_buckets`` planes :meth:`seed_window` pre-populates.
    """

    def __init__(self, detectors) -> None:
        specs = merge_plane_specs(detectors)
        #: ("binned_histogram", field, n_bins) specs to seed per window.
        self._hist_specs = [s for s in specs if s[0] == "binned_histogram"]
        #: ("sketch_buckets", field, n_sketches, seed) specs to seed.
        self._bucket_specs = [s for s in specs if s[0] == "sketch_buckets"]
        #: Every field with a seeded plane; each gets ("value_codes", field).
        self._fields = sorted(
            {s[1] for s in self._hist_specs}
            | {s[1] for s in self._bucket_specs}
            | {s[1] for s in specs if s[0] == "value_codes"}
        )
        #: field -> sorted distinct values ever ingested (native dtype).
        self._values: dict[str, np.ndarray] = {}
        #: (field, n_sketches, seed) -> bucket per dictionary slot.
        self._bucket_maps: dict[tuple, np.ndarray] = {}
        self.appends = 0
        self.novel_values = 0
        self.windows_seeded = 0

    @property
    def tracked_fields(self) -> tuple[str, ...]:
        return tuple(self._fields)

    def nbytes(self) -> int:
        """Current dictionary + bucket-map footprint in bytes."""
        return sum(v.nbytes for v in self._values.values()) + sum(
            m.nbytes for m in self._bucket_maps.values()
        )

    # -- ingest --------------------------------------------------------

    def append(self, chunk: PacketTable) -> None:
        """Fold one ingested chunk into the dictionaries.

        Novel values merge into each tracked field's sorted dictionary
        and are hashed — once, ever — into the aligned bucket maps.
        Must be called for every chunk entering the window ring;
        :meth:`seed_window` is only exact for packets ingested here.
        """
        if len(chunk) == 0:
            return
        self.appends += 1
        for field in self._fields:
            chunk_values = np.unique(chunk.column(field))
            values = self._values.get(field)
            if values is None:
                values = chunk_values[:0]
            if values.size:
                pos = np.searchsorted(values, chunk_values)
                in_range = pos < values.size
                fresh_mask = ~in_range
                fresh_mask[in_range] = (
                    values[pos[in_range]] != chunk_values[in_range]
                )
                fresh = chunk_values[fresh_mask]
            else:
                fresh = chunk_values
            if fresh.size == 0:
                continue
            merged = np.concatenate([values, fresh])
            merged.sort(kind="stable")
            self.novel_values += int(fresh.size)
            old_slots = np.searchsorted(merged, values)
            fresh_slots = np.searchsorted(merged, fresh)
            for spec in self._bucket_specs:
                if spec[1] != field:
                    continue
                _kind, _field, n_sketches, seed = spec
                fresh_buckets = shared_hasher(n_sketches, seed).buckets(
                    fresh.astype(np.uint64)
                )
                key = (field, n_sketches, seed)
                old_map = self._bucket_maps.get(key)
                new_map = np.empty(merged.size, dtype=fresh_buckets.dtype)
                if old_map is not None:
                    new_map[old_slots] = old_map
                new_map[fresh_slots] = fresh_buckets
                self._bucket_maps[key] = new_map
            self._values[field] = merged

    def evict_before(self, t: float) -> None:  # noqa: ARG002
        """Window eviction hook — deliberately a no-op.

        Evicting packets never invalidates a value's hash or its
        dictionary position; see the module docstring for the memory
        bound this trades for.
        """

    # -- per-window seeding --------------------------------------------

    def seed_window(self, trace: Trace, cache: PlaneCache) -> None:
        """Pre-populate ``cache`` with the window's base planes.

        Every seeded plane is element-identical (values, codes, counts,
        dtypes) to what the vectorized ``feature_plane`` kernel would
        compute from scratch for this window — the property the
        streaming parity tests pin.
        """
        table = trace.table
        if len(table) == 0:
            return
        self.windows_seeded += 1
        for field in self._fields:
            values = self._values.get(field)
            if values is None or values.size == 0:
                continue
            stable = np.searchsorted(values, table.column(field))
            for spec in self._bucket_specs:
                if spec[1] != field:
                    continue
                bucket_map = self._bucket_maps.get(
                    (field, spec[2], spec[3])
                )
                if bucket_map is not None:
                    cache.seed(spec, bucket_map[stable])
            present = np.zeros(values.size, dtype=bool)
            present[stable] = True
            renumber = np.cumsum(present) - 1
            value_codes = (
                values[present],
                renumber[stable].astype(np.int64, copy=False),
            )
            cache.seed(("value_codes", field), value_codes)
            for spec in self._hist_specs:
                if spec[1] != field:
                    continue
                n_bins = spec[2]
                cache.seed(
                    spec,
                    binned_value_histogram(
                        table,
                        field,
                        cache.get(trace, ("time_bins", n_bins)),
                        n_bins,
                        value_codes=value_codes,
                    ),
                )

    def counters(self) -> dict:
        """Observability counters for stats/bench artifacts."""
        return {
            "appends": self.appends,
            "novel_values": self.novel_values,
            "windows_seeded": self.windows_seeded,
            "nbytes": self.nbytes(),
        }


__all__ = ["StreamingPlanes"]
