"""Dense per-time-bin feature histograms over the columnar table.

The KL and entropy detectors both monitor per-bin value histograms of
header features (src, dst, sport, dport).  On the vectorized engine those
histograms are dense integer matrices computed in one
``np.bincount`` pass over ``(time bin, value code)`` instead of one
``Counter`` per bin — the detector feature-binning kernel of the
vectorized engine.

:func:`binned_value_histogram` is property-tested element-for-element
against the Counter-based reference used by the detectors' reference
paths.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.net.table import PacketTable, value_row_keys


@dataclass(frozen=True)
class BinnedHistogram:
    """Per-bin value histogram of one feature column.

    Attributes
    ----------
    feature:
        Column name ("src", "dst", "sport", "dport").
    values:
        The distinct feature values, ascending; index = value code.
    codes:
        Per-packet dense value code (index into :attr:`values`).
    counts:
        ``(n_bins, n_values)`` int64 matrix; ``counts[b, c]`` is the
        number of bin-``b`` packets carrying value ``values[c]``.
    """

    feature: str
    values: np.ndarray
    codes: np.ndarray
    counts: np.ndarray

    def bin_total(self, b: int) -> int:
        """Number of packets in time bin ``b``."""
        return int(self.counts[b].sum())

    @property
    def nbytes(self) -> int:
        """Bytes held by the three arrays."""
        return int(self.values.nbytes + self.codes.nbytes + self.counts.nbytes)


def unique_codes(column: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """``(values, codes)`` of a column: its distinct values, ascending,
    and each row's int64 index into them.

    A ``uint16`` column (the ports) is coded by one ``bincount`` over
    its 65,536 possible values.  A ``uint32`` column (the addresses) is
    coded by one sort of its :func:`~repro.net.table.value_row_keys`: a
    neighbour test finds the distinct values, and one scatter of their
    running count gives each row its code.  Every other column takes
    ``np.unique``; all three give the same values, dtype included, and
    the same codes.
    """
    if column.dtype == np.uint16:
        present = np.bincount(column, minlength=1 << 16) > 0
        code_of = np.cumsum(present, dtype=np.int64) - 1
        return np.flatnonzero(present).astype(np.uint16), code_of[column]
    if column.dtype == np.uint32 and len(column) <= 1 << 32:
        keys = value_row_keys(column)
        value = keys >> np.uint64(32)
        first = np.empty(len(keys), dtype=bool)
        first[:1] = True
        np.not_equal(value[1:], value[:-1], out=first[1:])
        rank = np.cumsum(first, dtype=np.int64)
        rank -= 1
        keys &= np.uint64(0xFFFFFFFF)  # the rows, in value order
        codes = np.empty(len(keys), dtype=np.int64)
        codes[keys.view(np.int64)] = rank
        return value[first].astype(np.uint32), codes
    values, codes = np.unique(column, return_inverse=True)
    return values, codes.astype(np.int64, copy=False)


def binned_value_histogram(
    table: PacketTable,
    feature: str,
    bin_idx: np.ndarray,
    n_bins: int,
    value_codes: tuple[np.ndarray, np.ndarray] | None = None,
) -> BinnedHistogram:
    """Histogram every time bin of ``feature`` in one vectorized pass.

    ``value_codes`` optionally supplies the column's
    :func:`unique_codes` (the ``value_codes`` feature plane), so
    callers sharing the coding do not pay for ``np.unique`` twice.
    """
    if value_codes is None:
        value_codes = unique_codes(table.column(feature))
    values, codes = value_codes
    n_values = len(values)
    if n_values == 0:
        counts = np.zeros((n_bins, 0), dtype=np.int64)
    else:
        counts = np.bincount(
            bin_idx * n_values + codes, minlength=n_bins * n_values
        ).reshape(n_bins, n_values)
    return BinnedHistogram(
        feature=feature, values=values, codes=codes, counts=counts
    )


def first_appearance_order(
    member_codes: np.ndarray,
) -> tuple[np.ndarray, np.ndarray]:
    """Unique codes of a bin plus their first-appearance positions.

    Both detectors break ranking ties the way ``Counter`` iteration
    does — by first appearance within the bin — so the position of each
    value's first packet is the secondary sort key everywhere.
    """
    return np.unique(member_codes, return_index=True)
