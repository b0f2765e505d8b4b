"""Counter references for the entropy detector.

:func:`analyze` is the detector's analysis as the python engine ran it
before both engines shared one: per-bin ``Counter`` histograms built
packet by packet, their Shannon entropies (:func:`shannon_entropy`,
summed in ``Counter`` insertion order), and the responsible values
picked with ``most_common`` and a sorted list of fresh values
(:func:`responsible_values`).  It reuses the detector's robust
deviations and alarm construction, which both paths always shared.
``tests/test_entropy_detector.py`` checks the detector against it.
"""

from __future__ import annotations

from collections import Counter

import numpy as np

from tests.kl_oracle import bin_rows


def shannon_entropy(counts: Counter) -> float:
    """Shannon entropy (bits) of a histogram; 0 for empty input."""
    total = sum(counts.values())
    if total == 0:
        return 0.0
    probabilities = np.array(list(counts.values()), dtype=float) / total
    return float(-(probabilities * np.log2(probabilities)).sum())


def responsible_values(
    histograms: list[Counter], b: int, falling: bool, top: int
) -> list:
    """Values explaining an entropy drop (concentration) or rise."""
    current = histograms[b]
    if falling:
        # Concentration: the dominant values.
        return [value for value, _count in current.most_common(top)]
    # Dispersion: heavy values absent from the neighbouring bins.
    neighbours: Counter = Counter()
    if b > 0:
        neighbours += histograms[b - 1]
    if b + 1 < len(histograms):
        neighbours += histograms[b + 1]
    fresh = [
        (count, value)
        for value, count in current.items()
        if value not in neighbours
    ]
    fresh.sort(reverse=True)
    return [value for _count, value in fresh[:top]]


def analyze(detector, trace) -> list:
    """``detector.analyze(trace)`` from Counter histograms."""
    from repro.detectors.entropy import _FEATURES, _entropy_deviations

    if len(trace) < 8:
        return []
    p = detector.params
    n_bins = p["n_bins"]
    t_start = trace.start_time
    bin_width = max(trace.end_time - t_start, 1e-9) / n_bins
    bins = bin_rows(trace, n_bins)
    alarms = []
    for feature in _FEATURES:
        histograms = [
            Counter(getattr(trace[i], feature) for i in rows) for rows in bins
        ]
        deviations = _entropy_deviations(
            np.array([shannon_entropy(h) for h in histograms])
        )
        for b in np.nonzero(np.abs(deviations) > p["threshold"])[0]:
            b = int(b)
            if not bins[b]:
                continue
            t0 = t_start + b * bin_width
            values = responsible_values(
                histograms, b, falling=deviations[b] < 0, top=p["top_values"]
            )
            alarms.extend(
                detector._value_alarms(
                    feature, values, t0, t0 + bin_width, deviations[b]
                )
            )
    return alarms
