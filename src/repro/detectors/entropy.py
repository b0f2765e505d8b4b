"""Entropy-based detector — the "emerging detector" integration demo.

Paper Section 6: "we will also take into account the results from
emerging anomaly detectors, to improve the quality and variety of the
labels over time".  This module provides such a fifth detector —
entropy time series over traffic feature distributions (Nychis et al.,
IMC'08; Lakhina et al., SIGCOMM'05) — and because it follows the
:class:`~repro.detectors.base.Detector` interface it plugs into the
pipeline unchanged:

>>> from repro.detectors import default_ensemble
>>> from repro.detectors.entropy import EntropyDetector, ENTROPY_TUNINGS
>>> from repro.labeling import MAWILabPipeline
>>> ensemble = default_ensemble() + [
...     EntropyDetector(tuning=t, **p) for t, p in ENTROPY_TUNINGS.items()
... ]
>>> pipeline = MAWILabPipeline(ensemble=ensemble)   # 15 configurations

Algorithm
---------
1. Split the trace into ``n_bins`` bins; per bin compute the Shannon
   entropy of the src-IP, dst-IP, src-port and dst-port histograms.
2. A bin whose entropy deviates from the trace median by more than
   ``threshold`` robust standard deviations (either direction —
   scans *raise* dst-IP entropy, floods *lower* it) is anomalous.
3. For an anomalous (bin, feature), report the values dominating the
   distributional change: the most frequent values when entropy
   dropped (concentration) and the newly-appearing heavy values when
   it rose (dispersion), as feature filters over the bin.
"""

from __future__ import annotations

import numpy as np

from repro.detectors.base import Alarm, Detector
from repro.detectors.features import first_appearance_order
from repro.net.filters import FeatureFilter
from repro.net.trace import Trace

_FEATURES = ("src", "dst", "sport", "dport")
_FILTER_FIELD = {"src": "src", "dst": "dst", "sport": "sport", "dport": "dport"}


def _entropy_series(counts: np.ndarray) -> np.ndarray:
    """Per-bin Shannon entropies (bits) of a dense histogram matrix.

    Each bin sums its probabilities pairwise in value order, so it
    agrees with ``tests/entropy_oracle.py``'s Counter entropy to the
    last few ulps, not bit for bit.
    """
    n_bins = counts.shape[0]
    entropies = np.zeros(n_bins)
    totals = counts.sum(axis=1)
    for b in range(n_bins):
        if totals[b] == 0:
            continue
        row = counts[b]
        probabilities = row[row > 0] / totals[b]
        entropies[b] = float(
            -(probabilities * np.log2(probabilities)).sum()
        )
    return entropies


def _entropy_deviations(entropies: np.ndarray) -> np.ndarray:
    """Robust z-scores of an entropy series (median/MAD centered)."""
    median = float(np.median(entropies))
    mad = float(np.median(np.abs(entropies - median)))
    scale = 1.4826 * mad if mad > 0 else float(entropies.std()) or 1.0
    return (entropies - median) / scale


class EntropyDetector(Detector):
    """Feature-entropy time-series detector (partial-tuple alarms)."""

    name = "entropy"

    @classmethod
    def default_params(cls) -> dict:
        return {
            "n_bins": 12,
            "threshold": 3.0,
            "top_values": 3,
        }

    def plane_specs(self) -> tuple:
        p = self.params
        n_bins = p["n_bins"]
        specs = [("time_bins", n_bins), ("bin_members", n_bins)]
        for feature in _FEATURES:
            specs.extend(
                (
                    ("binned_histogram", feature, n_bins),
                    ("entropy_series", feature, n_bins),
                )
            )
        return tuple(specs)

    def analyze(self, trace: Trace, planes=None) -> list[Alarm]:
        """Dense histograms and entropies, on every engine.

        The bin members, histograms and entropy series are shared
        feature planes (the histograms are the KL detector's, so the two
        families share them), which the engine's ``feature_plane``
        kernel builds.  ``tests/entropy_oracle.py`` keeps the Counter
        reference this path is tested against.
        """
        if len(trace) < 8:
            return []
        planes = self._plane_cache(trace, planes)
        p = self.params
        t_start, t_end = trace.start_time, trace.end_time
        span = max(t_end - t_start, 1e-9)
        n_bins = p["n_bins"]
        members_lists = planes.get(trace, ("bin_members", n_bins))

        alarms: list[Alarm] = []
        bin_width = span / n_bins
        for feature in _FEATURES:
            histogram = planes.get(
                trace, ("binned_histogram", feature, n_bins)
            )
            entropies = planes.get(
                trace, ("entropy_series", feature, n_bins)
            )
            deviations = _entropy_deviations(entropies)
            for b in np.nonzero(np.abs(deviations) > p["threshold"])[0]:
                b = int(b)
                members = members_lists[b]
                if members.size == 0:
                    continue
                t0 = t_start + b * bin_width
                t1 = t0 + bin_width
                values = self._responsible_values_dense(
                    histogram, b, members, falling=deviations[b] < 0
                )
                alarms.extend(
                    self._value_alarms(feature, values, t0, t1, deviations[b])
                )
        return alarms

    def _value_alarms(
        self, feature: str, values, t0: float, t1: float, deviation: float
    ) -> list[Alarm]:
        """One alarm per responsible value."""
        return [
            self._alarm(
                t0,
                t1,
                filters=(
                    FeatureFilter(
                        t0=t0,
                        t1=t1,
                        **{_FILTER_FIELD[feature]: int(value)},
                    ),
                ),
                score=float(abs(deviation)),
            )
            for value in values
        ]

    def _responsible_values_dense(
        self,
        histogram,
        b: int,
        members: np.ndarray,
        falling: bool,
    ) -> list:
        """Values explaining an entropy drop (concentration) or rise.

        A drop reports the bin's most frequent values, ties by first
        appearance within the bin (``Counter.most_common`` order); a
        rise reports the heavy values absent from the neighbouring
        bins, by (count, value) descending.
        """
        top = self.params["top_values"]
        counts = histogram.counts
        uniq_codes, first_pos = first_appearance_order(histogram.codes[members])
        bin_counts = counts[b, uniq_codes]
        if falling:
            order = np.lexsort((first_pos, -bin_counts))[:top]
            return [int(histogram.values[c]) for c in uniq_codes[order]]
        neighbours = np.zeros(counts.shape[1], dtype=np.int64)
        if b > 0:
            neighbours += counts[b - 1]
        if b + 1 < counts.shape[0]:
            neighbours += counts[b + 1]
        fresh = neighbours[uniq_codes] == 0
        fresh_codes = uniq_codes[fresh]
        fresh_counts = bin_counts[fresh]
        fresh_values = histogram.values[fresh_codes].astype(np.int64)
        order = np.lexsort((-fresh_values, -fresh_counts))[:top]
        return [int(v) for v in fresh_values[order]]


#: Tunings mirroring the paper's optimal/sensitive/conservative scheme.
ENTROPY_TUNINGS = {
    "optimal": {},
    "sensitive": {"threshold": 2.0, "top_values": 5},
    "conservative": {"threshold": 4.5, "top_values": 2},
}


def extended_ensemble():
    """The paper's 12 configurations plus the entropy detector's 3.

    The drop-in way to reproduce Section 6's "integrating the results
    from emerging anomaly detectors".
    """
    from repro.detectors.registry import default_ensemble

    return default_ensemble() + [
        EntropyDetector(tuning=tuning, **params)
        for tuning, params in ENTROPY_TUNINGS.items()
    ]
