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

from repro.net.table import PacketTable


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


def binned_value_histogram(
    table: PacketTable,
    feature: str,
    bin_idx: np.ndarray,
    n_bins: int,
) -> BinnedHistogram:
    """Histogram every time bin of ``feature`` in one vectorized pass."""
    column = table.column(feature)
    values, codes = np.unique(column, return_inverse=True)
    codes = codes.astype(np.int64, copy=False)
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
