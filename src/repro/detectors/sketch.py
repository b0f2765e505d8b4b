"""Random-projection sketches (hash-based traffic aggregation).

Both the PCA detector (Kanda'10 / Li'06 style) and the Gamma detector
(Dewaele'07) aggregate traffic by hashing an address into a small
number of *sketches* before doing statistics.  Sketching serves two
purposes the paper relies on:

1. it bounds the dimensionality of the monitored signal regardless of
   how many hosts appear, and
2. it lets a detector *invert* a detection back to original traffic
   features — an anomalous sketch contains few enough hosts that the
   dominant ones can be reported (this is how the PCA detector escapes
   the "PCA cannot identify the anomalous flows" critique of
   Ringberg'07, as discussed in Section 3.2).

The hash is a universal multiply-shift scheme seeded per detector
configuration, so different configurations see different random
projections.
"""

from __future__ import annotations

from collections import Counter
from functools import lru_cache

import numpy as np

from repro.engine import EngineSpec, resolve_engine
from repro.errors import DetectorError

_MERSENNE_PRIME = (1 << 61) - 1
_M61 = np.uint64(_MERSENNE_PRIME)
_MASK29 = (1 << 29) - 1
_MASK32 = (1 << 32) - 1


def _mod_mersenne(x: np.ndarray) -> np.ndarray:
    """``x mod (2^61 - 1)`` for any uint64 array, in uint64 arithmetic.

    Two folds (``2^61 ≡ 1 mod p``) bring any 64-bit value below ``p``
    except the fixed point ``p`` itself, which the final conditional
    subtraction maps to 0.
    """
    x = (x & _M61) + (x >> np.uint64(61))
    x = (x & _M61) + (x >> np.uint64(61))
    return np.where(x >= _M61, x - _M61, x)


class SketchHasher:
    """Universal hashing of 32-bit keys into ``n_sketches`` buckets."""

    def __init__(self, n_sketches: int, seed: int = 0) -> None:
        if n_sketches <= 0:
            raise DetectorError("n_sketches must be positive")
        rng = np.random.default_rng(seed)
        self.n_sketches = n_sketches
        self.seed = seed
        self._a = int(rng.integers(1, _MERSENNE_PRIME))
        self._b = int(rng.integers(0, _MERSENNE_PRIME))

    def bucket(self, key: int) -> int:
        """Bucket of one key (scalar reference for :meth:`buckets`)."""
        return ((self._a * key + self._b) % _MERSENNE_PRIME) % self.n_sketches

    def buckets(self, keys: np.ndarray) -> np.ndarray:
        """Vectorized bucket computation for an array of keys.

        Pure uint64 arithmetic: ``a * key mod (2^61 - 1)`` is computed
        via 32-bit limb products (``a = a_hi·2^32 + a_lo``) reduced with
        the Mersenne identities ``2^64 ≡ 8`` and ``2^61 ≡ 1 (mod p)``,
        so no Python-object bigints appear.  A property test pins this
        to the scalar :meth:`bucket` reference.
        """
        keys = np.asarray(keys, dtype=np.uint64)
        k = _mod_mersenne(keys)
        a_hi, a_lo = self._a >> 32, self._a & _MASK32
        k_hi, k_lo = k >> np.uint64(32), k & np.uint64(_MASK32)
        # a_hi, k_hi < 2^29 (both operands are < 2^61), so each limb
        # product below stays inside uint64.
        t_high = _mod_mersenne((a_hi * k_hi) << np.uint64(3))
        mid = _mod_mersenne(a_hi * k_lo + a_lo * k_hi)
        t_mid = _mod_mersenne(
            ((mid & np.uint64(_MASK29)) << np.uint64(32)) + (mid >> np.uint64(29))
        )
        t_low = _mod_mersenne(a_lo * k_lo)
        hashed = _mod_mersenne(
            _mod_mersenne(t_high + t_mid + t_low) + np.uint64(self._b)
        )
        return (hashed % np.uint64(self.n_sketches)).astype(np.int64)


@lru_cache(maxsize=128)
def shared_hasher(n_sketches: int, seed: int = 0) -> SketchHasher:
    """Process-wide memoized :class:`SketchHasher`.

    Hashers are deterministic in ``(n_sketches, seed)`` and immutable
    after construction, so every detector instance asking for the same
    key shares one object — detector tunings deliberately keep the
    sketch structure fixed, which makes this cache hit across the whole
    default ensemble (and across the feature-plane cache, whose bucket
    planes are keyed by the same pair).
    """
    return SketchHasher(n_sketches, seed=seed)


def sketch_time_matrix(
    times: np.ndarray,
    buckets: np.ndarray,
    n_sketches: int,
    t_start: float,
    t_end: float,
    n_bins: int,
) -> np.ndarray:
    """Packet-count matrix of shape (n_bins, n_sketches).

    Entry ``(t, s)`` counts packets whose timestamp falls in time bin
    ``t`` and whose key hashes to sketch ``s``; ``buckets`` holds each
    packet's sketch (``hasher.buckets(keys)``, or the cached
    ``sketch_buckets`` plane).  The counts are one ``bincount``.
    """
    if n_bins <= 0:
        raise DetectorError("n_bins must be positive")
    span = max(t_end - t_start, 1e-9)
    bins = np.clip(
        ((times - t_start) / span * n_bins).astype(int), 0, n_bins - 1
    )
    return cell_counts(bins, buckets, n_bins, n_sketches)


def cell_counts(
    rows: np.ndarray, columns: np.ndarray, n_rows: int, n_columns: int
) -> np.ndarray:
    """Float ``(n_rows, n_columns)`` matrix counting each packet's
    ``(rows[i], columns[i])`` cell, from one ``bincount``."""
    counts = np.bincount(
        rows * n_columns + columns, minlength=n_rows * n_columns
    )
    return counts.reshape(n_rows, n_columns).astype(float)


def dominant_keys(
    trace,
    field: str,
    rows: range,
    hasher: SketchHasher,
    sketch: int,
    top: int = 3,
    min_fraction: float = 0.1,
    engine: EngineSpec = "auto",
    planes=None,
) -> list[int]:
    """Most frequent ``field`` values hashing to ``sketch`` in ``rows``.

    Used to invert a sketch-level detection back to concrete addresses:
    return up to ``top`` values of the ``range`` of consecutive packet
    rows ``rows``, each accounting for at least ``min_fraction`` of the
    sketch's packets there, ranked by count and then by first
    appearance (``Counter.most_common`` order).  Dispatches to the
    engine's ``"dominant_keys"`` kernel with ``planes`` (the trace's
    attached cache when ``None``): the vectorized kernel reads the
    ``("key_ranks", field, start, stop)`` plane, which every sketch and
    tuning over the same rows shares, and the ``sketch_buckets`` plane
    of ``hasher``; the reference kernel counts the rows' values in a
    ``Counter``.
    """
    engine = resolve_engine(engine, what="dominant_keys")
    if planes is None:
        from repro.detectors.planes import plane_cache_for

        planes = plane_cache_for(trace, engine)
    return engine.kernel("dominant_keys")(
        trace,
        field,
        rows,
        hasher,
        sketch,
        top=top,
        min_fraction=min_fraction,
        planes=planes,
    )


def key_ranks(
    values: np.ndarray, codes: np.ndarray, start: int, stop: int
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """``(values, counts, first_rows)`` of the distinct values of rows
    ``start..stop-1`` of a column coded as ``(values, codes)``: count
    descending, then first row ascending (the ``key_ranks`` plane).

    One ``bincount`` counts every code in the rows and one
    ``np.minimum.at`` scatter finds each code's first row.
    """
    in_rows = codes[start:stop]
    counts = np.bincount(in_rows, minlength=len(values))
    first = np.full(len(values), stop, dtype=np.int64)
    np.minimum.at(first, in_rows, np.arange(start, start + in_rows.size))
    present = np.flatnonzero(counts)
    ranked = present[np.lexsort((first[present], -counts[present]))]
    return values[ranked], counts[ranked], first[ranked]


def _dominant_keys_numpy(
    trace,
    field: str,
    rows: range,
    hasher: SketchHasher,
    sketch: int,
    top: int,
    min_fraction: float,
    planes,
) -> list[int]:
    """Vectorized kernel: one pass over the rows' ranked values.

    The ranked values keep their order when cut to one sketch, so the
    sketch's first ``top`` are its most frequent; each value's bucket
    is the ``sketch_buckets`` plane at its first row.
    """
    values, counts, first = planes.get(
        trace, ("key_ranks", field, rows.start, rows.stop)
    )
    buckets = planes.get(
        trace, ("sketch_buckets", field, hasher.n_sketches, hasher.seed)
    )
    in_sketch = np.flatnonzero(buckets[first] == sketch)
    total = int(counts[in_sketch].sum())
    return [
        int(values[i])
        for i in in_sketch[:top].tolist()
        if int(counts[i]) / total >= min_fraction
    ]


def _dominant_keys_python(
    trace,
    field: str,
    rows: range,
    hasher: SketchHasher,
    sketch: int,
    top: int,
    min_fraction: float,
    planes,
) -> list[int]:
    """Reference kernel: scalar hashing of each row into a ``Counter``.

    ``planes`` is accepted for signature parity but deliberately
    ignored: the oracle reads the column's rows and rehashes every
    value scalar-by-scalar.
    """
    column = trace.table.column(field)[rows.start : rows.stop].tolist()
    in_sketch = [key for key in column if hasher.bucket(key) == sketch]
    if not in_sketch:
        return []
    counts = Counter(in_sketch)
    total = len(in_sketch)
    return [
        key
        for key, count in counts.most_common(top)
        if count / total >= min_fraction
    ]
