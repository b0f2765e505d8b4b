"""Counter references for the KL detector.

:func:`symmetric_kl` is :func:`repro.detectors.kl._symmetric_kl` as it
was before the detector computed the terms as arrays: one loop over the
key union, accumulating both divergences term by term.
``tests/test_kl_divergence.py`` checks that the array version returns
the same float, bit for bit, and that every row of the dense
divergence series agrees with it to a relative 1e-12.

:func:`analyze` is the detector's analysis as the python engine ran it
before both engines shared one: per-bin ``Counter`` histograms built
packet by packet, a scalar divergence series, and grown values ranked
in ``Counter`` insertion order (:func:`grown_values`).  It reuses the
detector's rule mining (``_mine_alarms``), cut and dedupe, which both
paths always shared.  ``tests/test_kl_detector.py`` checks the
detector's alarms against it, offline and streamed.
"""

from __future__ import annotations

from collections import Counter

import numpy as np


def symmetric_kl(prev: Counter, curr: Counter, smoothing: float) -> float:
    """Symmetrized, smoothed KL divergence between two histograms."""
    if not prev or not curr:
        return 0.0
    keys = set(prev) | set(curr)
    n_prev = sum(prev.values())
    n_curr = sum(curr.values())
    k = len(keys)
    d_pq = 0.0
    d_qp = 0.0
    for key in keys:
        p = (prev.get(key, 0) + smoothing) / (n_prev + smoothing * k)
        q = (curr.get(key, 0) + smoothing) / (n_curr + smoothing * k)
        d_pq += p * np.log(p / q)
        d_qp += q * np.log(q / p)
    return float(d_pq + d_qp) / 2.0


def bin_rows(trace, n_bins: int) -> list[list[int]]:
    """Each time bin's packet indexes, ascending, binned packet by packet."""
    t_start = trace.start_time
    span = max(trace.end_time - t_start, 1e-9)
    bins: list[list[int]] = [[] for _ in range(n_bins)]
    for i, pkt in enumerate(trace):
        bins[min(int((pkt.time - t_start) / span * n_bins), n_bins - 1)].append(i)
    return bins


def bin_counters(trace, feature: str, n_bins: int) -> list[Counter]:
    """Per-bin ``Counter`` histograms of ``feature``, in packet order."""
    return [
        Counter(getattr(trace[i], feature) for i in rows)
        for rows in bin_rows(trace, n_bins)
    ]


def divergence_series(hists: list[Counter], smoothing: float) -> np.ndarray:
    """:func:`symmetric_kl` of each bin against the one before it."""
    series = np.zeros(len(hists))
    for b in range(1, len(hists)):
        series[b] = symmetric_kl(hists[b - 1], hists[b], smoothing)
    return series


def grown_values(prev: Counter, curr: Counter, top: int) -> set:
    """Values whose probability grew the most between two bins."""
    n_prev = max(sum(prev.values()), 1)
    n_curr = max(sum(curr.values()), 1)
    growth = {
        key: curr[key] / n_curr - prev.get(key, 0) / n_prev for key in curr
    }
    ranked = sorted(growth.items(), key=lambda kv: kv[1], reverse=True)
    return {key for key, delta in ranked[:top] if delta > 0}


def analyze(detector, trace, state: dict | None = None) -> list:
    """``detector.analyze(trace)``, or ``analyze_stream(trace, state)``
    when ``state`` is given (it carries this reference's own baseline
    from window to window)."""
    from repro.detectors.kl import _FEATURES, _dedupe, _robust_cut
    from repro.rules.itemsets import packet_block

    if len(trace) < 4:
        return []
    p = detector.params
    n_bins = p["n_bins"]
    t_start = trace.start_time
    bin_width = max(trace.end_time - t_start, 1e-9) / n_bins
    bins = bin_rows(trace, n_bins)
    baseline = state.get("baseline") if state else None
    baseline_block = state.get("baseline_block") if state else None

    divergences, histograms = {}, {}
    for feature in _FEATURES:
        hists = [Counter(getattr(trace[i], feature) for i in rows) for rows in bins]
        series = divergence_series(hists, p["smoothing"])
        base = baseline.get(feature) if baseline else None
        if base:
            series[0] = symmetric_kl(base, hists[0], p["smoothing"])
        histograms[feature] = hists
        divergences[feature] = series
    if state is not None:
        state["baseline"] = {f: histograms[f][n_bins - 1] for f in _FEATURES}
        state["baseline_block"] = packet_block(
            trace.table, np.asarray(bins[n_bins - 1], dtype=np.int64)
        )

    alarms = []
    for feature in _FEATURES:
        series = divergences[feature]
        cut = _robust_cut(series, p["threshold"])
        for b in np.nonzero(series > cut)[0]:
            b = int(b)
            if not bins[b]:
                continue
            prev_hist = baseline[feature] if b == 0 else histograms[feature][b - 1]
            values = grown_values(
                prev_hist, histograms[feature][b], top=p["top_values"]
            )
            selected = [i for i in bins[b] if getattr(trace[i], feature) in values]
            if not selected:
                continue
            t0 = t_start + b * bin_width
            previous = (
                baseline_block
                if b == 0
                else packet_block(
                    trace.table, np.asarray(bins[b - 1], dtype=np.int64)
                )
            )
            alarms.extend(
                detector._mine_alarms(
                    packet_block(trace.table, np.asarray(selected, dtype=np.int64)),
                    previous,
                    t0,
                    t0 + bin_width,
                    float(series[b]),
                )
            )
    return _dedupe(alarms)
