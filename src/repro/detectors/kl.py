"""Kullback-Leibler histogram-change detector with rule extraction.

Reimplements the detector of Section 3.2(4) (Brauckhoff et al.,
IMC'09): per-time-bin histograms of several traffic features are
monitored; bins where the (symmetrized, smoothed) KL divergence from
the previous bin spikes are anomalous, and association-rule mining
extracts the feature combinations responsible.  Alarms are therefore
**partial 4-tuple rules** — the finest granularity of the four
detectors, and the reason the paper's experiments find it the most
accurate single detector.

Algorithm
---------
1. Split the trace into ``n_bins`` time bins.  For each feature in
   {src, dst, sport, dport}, build the per-bin value histogram.
2. Compute the Jensen-Shannon-style symmetrized KL divergence between
   consecutive bins per feature.
3. A (bin, feature) pair is anomalous when its divergence exceeds
   ``median + threshold * MAD`` over the trace.
4. For each anomalous bin, select the values whose probability grew
   the most (the divergence contributors), keep packets carrying any
   such value, and run the modified Apriori on them; emit one alarm
   per mined maximal rule.  The miner reads the selected rows as an
   integer block sliced from the packet table (the engine's
   ``"maximal_itemsets"`` kernel, which ranks the rules and cuts them
   at ``max_rules_per_bin``), and the lift filter counts the previous
   bin's matches with one mask per rule.
"""

from __future__ import annotations

from collections import Counter
from itertools import repeat

import numpy as np

from repro.detectors.base import Alarm, Detector
from repro.detectors.features import BinnedHistogram, first_appearance_order
from repro.net.trace import Trace
from repro.rules.columnar import itemset_mask
from repro.rules.itemsets import itemset_to_rule, packet_block

_FEATURES = ("src", "dst", "sport", "dport")


class KLDetector(Detector):
    """KL-divergence histogram detector reporting 4-tuple rules."""

    name = "kl"

    @classmethod
    def default_params(cls) -> dict:
        return {
            "n_bins": 12,
            "threshold": 3.0,
            "top_values": 5,
            "rule_support_pct": 15.0,
            "max_rules_per_bin": 6,
            "smoothing": 1e-4,
            "min_lift": 2.0,
        }

    def plane_specs(self) -> tuple:
        p = self.params
        n_bins = p["n_bins"]
        specs = [("time_bins", n_bins), ("bin_members", n_bins)]
        for feature in _FEATURES:
            specs.extend(
                (
                    ("binned_histogram", feature, n_bins),
                    ("kl_divergence", feature, n_bins, p["smoothing"]),
                )
            )
        return tuple(specs)

    def analyze(self, trace: Trace, planes=None) -> list[Alarm]:
        if len(trace) < 4:
            return []
        return self._analyze(trace, self._plane_cache(trace, planes))

    def analyze_stream(
        self, trace: Trace, state: dict, planes=None
    ) -> list[Alarm]:
        """Windowed analyze carrying a cross-window histogram baseline.

        Offline, the first time bin of a trace has no predecessor, so
        its divergence is pinned to 0 and anomalies there are invisible.
        In a stream the predecessor *exists* — it is the last bin of the
        previous window.  ``state["baseline"]`` carries those
        per-feature histograms across window advances: bin 0 of the new
        window is scored against them (and its grown values ranked
        against them), then the new window's last-bin histograms replace
        the baseline.  ``state["baseline_block"]`` carries the last
        bin's rows as a rule-mining block (see
        :mod:`repro.rules.itemsets`) for bin 0's lift filter.  With an
        empty state this is exactly :meth:`analyze` — the
        offline-parity anchor.
        """
        if len(trace) < 4:
            return []
        return self._analyze(
            trace,
            self._plane_cache(trace, planes),
            baseline=state.get("baseline"),
            baseline_block=state.get("baseline_block"),
            carry=state,
        )

    def _analyze(
        self,
        trace: Trace,
        planes,
        baseline: dict[str, Counter] | None = None,
        baseline_block: np.ndarray | None = None,
        carry: dict | None = None,
    ) -> list[Alarm]:
        """Dense per-bin histograms over the table, on every engine.

        The bin members, histograms and divergence series are shared
        feature planes, which the engine's ``feature_plane`` kernel
        builds; the tunings only move thresholds and rule budgets.
        Grown-value ranking is vectorized, and the rule miner reads the
        anomalous bins as blocks sliced from the table: no packet
        object is built.  ``tests/kl_oracle.py`` keeps the Counter
        reference this path is tested against.
        """
        p = self.params
        table = trace.table
        t_start, t_end = trace.start_time, trace.end_time
        span = max(t_end - t_start, 1e-9)
        n_bins = p["n_bins"]
        members_lists = planes.get(trace, ("bin_members", n_bins))

        alarms: list[Alarm] = []
        bin_width = span / n_bins
        new_baseline: dict[str, Counter] = {}
        for feature in _FEATURES:
            histogram = planes.get(
                trace, ("binned_histogram", feature, n_bins)
            )
            series = planes.get(
                trace,
                ("kl_divergence", feature, n_bins, p["smoothing"]),
            )
            base = baseline.get(feature) if baseline else None
            if base:
                # Shared plane: copy before the cross-window bin-0
                # baseline rewrite.
                series = series.copy()
                series[0] = _symmetric_kl(
                    base, _dense_bin_counter(histogram, 0), p["smoothing"]
                )
            if carry is not None:
                new_baseline[feature] = _dense_bin_counter(
                    histogram, n_bins - 1
                )
            cut = _robust_cut(series, p["threshold"])
            for b in np.nonzero(series > cut)[0]:
                b = int(b)
                members = members_lists[b]
                if members.size == 0:
                    continue
                if b == 0:
                    # Only reachable with a carried baseline (see
                    # analyze_stream): rank growth against it.
                    value_set = _grown_values_vs_baseline(
                        histogram, members, base, top=p["top_values"]
                    )
                else:
                    value_set = _grown_values_dense(
                        histogram, b, members, top=p["top_values"]
                    )
                if not value_set.size:
                    continue
                selected_mask = np.isin(
                    histogram.codes[members], value_set
                )
                if not selected_mask.any():
                    continue
                t0 = t_start + b * bin_width
                t1 = t0 + bin_width
                previous = (
                    baseline_block
                    if b == 0
                    else packet_block(table, members_lists[b - 1])
                )
                alarms.extend(
                    self._mine_alarms(
                        packet_block(table, members[selected_mask]),
                        previous,
                        t0,
                        t1,
                        float(series[b]),
                    )
                )
        if carry is not None:
            carry["baseline"] = new_baseline
            carry["baseline_block"] = packet_block(
                table, members_lists[n_bins - 1]
            )
        return _dedupe(alarms)

    def _mine_alarms(
        self,
        block: np.ndarray,
        previous: np.ndarray | None,
        t0: float,
        t1: float,
        score: float,
    ) -> list[Alarm]:
        """Mine the anomalous rows' rules, one alarm per rule.

        A mined rule is kept only if its prevalence *grew* relative to
        the previous bin (lift filter): anomaly extraction reports what
        changed, not what is permanently popular — this is the
        histogram-clone filtering of the original method.  Rules whose
        previous-bin coverage is already high (steady-state traffic
        such as port 80) are discarded even when frequent now.

        ``block`` and ``previous`` are rule-mining blocks (see
        :mod:`repro.rules.itemsets`) of the anomalous bin's selected
        rows and of the previous bin; for a streamed bin 0 the previous
        bin is the carried last bin of the previous window, or ``None``
        without one.
        """
        p = self.params
        itemsets, _covered = self.engine.kernel("maximal_itemsets")(
            block, p["rule_support_pct"], p["max_rules_per_bin"]
        )
        n_prev = 0 if previous is None else len(previous)
        alarms = []
        for itemset in itemsets:
            rule = itemset_to_rule(
                itemset.items, count=itemset.count, support=itemset.support
            )
            if n_prev > 0:
                prev_cov = (
                    int(np.count_nonzero(itemset_mask(previous, itemset.items)))
                    / n_prev
                )
                if prev_cov * p["min_lift"] >= rule.support:
                    continue
            alarms.append(
                self._alarm(
                    t0,
                    t1,
                    filters=(rule.to_filter(t0=t0, t1=t1),),
                    score=score,
                )
            )
        return alarms


def _divergence_series(counts: np.ndarray, smoothing: float) -> np.ndarray:
    """Symmetrized KL between consecutive rows of a dense histogram.

    Each bin pair is restricted to the values either bin holds, the
    key union of :func:`_symmetric_kl`, and summed pairwise in value
    order, so it agrees with ``tests/kl_oracle.py``'s scalar loop to
    the last few ulps, not bit for bit.
    """
    n_bins = counts.shape[0]
    series = np.zeros(n_bins)
    totals = counts.sum(axis=1)
    for b in range(1, n_bins):
        n_prev, n_curr = int(totals[b - 1]), int(totals[b])
        if n_prev == 0 or n_curr == 0:
            continue
        prev, curr = counts[b - 1], counts[b]
        support = (prev > 0) | (curr > 0)
        k = int(support.sum())
        p = (prev[support] + smoothing) / (n_prev + smoothing * k)
        q = (curr[support] + smoothing) / (n_curr + smoothing * k)
        log_ratio = np.log(p / q)
        series[b] = float((p * log_ratio).sum() - (q * log_ratio).sum()) / 2.0
    return series


def _grown_values_dense(
    histogram: BinnedHistogram, b: int, members: np.ndarray, top: int
) -> np.ndarray:
    """Value codes whose probability grew most into bin ``b``.

    Ranked by delta descending, ties by first appearance within the
    bin; the first ``top`` are kept if their delta is positive (the
    Counter reference is ``tests/kl_oracle.py``'s ``grown_values``).
    """
    counts = histogram.counts
    n_prev = max(int(counts[b - 1].sum()), 1)
    n_curr = max(int(counts[b].sum()), 1)
    uniq_codes, first_pos = first_appearance_order(histogram.codes[members])
    delta = counts[b, uniq_codes] / n_curr - counts[b - 1, uniq_codes] / n_prev
    order = np.lexsort((first_pos, -delta))[:top]
    return uniq_codes[order][delta[order] > 0]


def _dense_bin_counter(histogram: BinnedHistogram, b: int) -> Counter:
    """One dense histogram row as a Counter (for baseline carry).

    A streamed bin 0 is scored and ranked against the previous
    window's last row in this form (:func:`_symmetric_kl`,
    :func:`_grown_values_vs_baseline`); both read counts by key, never
    the insertion order.  Keys are in ascending value order.
    """
    row = histogram.counts[b]
    present = np.flatnonzero(row)
    return Counter(
        dict(zip(histogram.values[present].tolist(), row[present].tolist()))
    )


def _grown_values_vs_baseline(
    histogram: BinnedHistogram,
    members: np.ndarray,
    baseline: Counter,
    top: int,
) -> np.ndarray:
    """Value codes of bin 0 whose probability grew over the baseline.

    :func:`_grown_values_dense` across windows: the "previous bin" is
    the carried baseline Counter instead of a dense row.  Same deltas,
    same (delta descending, first-appearance) ranking.
    """
    counts = histogram.counts
    n_prev = max(sum(baseline.values()), 1)
    n_curr = max(int(counts[0].sum()), 1)
    uniq_codes, first_pos = first_appearance_order(histogram.codes[members])
    prev_counts = np.array(
        [baseline.get(int(histogram.values[c]), 0) for c in uniq_codes],
        dtype=np.int64,
    )
    delta = counts[0, uniq_codes] / n_curr - prev_counts / n_prev
    order = np.lexsort((first_pos, -delta))[:top]
    return uniq_codes[order][delta[order] > 0]


def _symmetric_kl(prev: Counter, curr: Counter, smoothing: float) -> float:
    """Symmetrized, smoothed KL divergence between two histograms.

    Scores a streamed bin 0 against the carried baseline.
    Bit-identical to a scalar loop over the key union that accumulates
    ``p log(p/q)`` and ``q log(q/p)`` term by term
    (``tests/kl_oracle.py``): the terms are the same IEEE operations
    taken elementwise, in the order the key union iterates, and each
    sum is ``cumsum``'s strictly left-to-right accumulation (``sum``
    would add pairwise).
    """
    if not prev or not curr:
        return 0.0
    keys = set(prev) | set(curr)
    n_prev = sum(prev.values())
    n_curr = sum(curr.values())
    k = len(keys)
    p = np.fromiter(map(prev.get, keys, repeat(0)), dtype=np.float64, count=k)
    q = np.fromiter(map(curr.get, keys, repeat(0)), dtype=np.float64, count=k)
    p = (p + smoothing) / (n_prev + smoothing * k)
    q = (q + smoothing) / (n_curr + smoothing * k)
    d_pq = np.cumsum(p * np.log(p / q))[-1]
    d_qp = np.cumsum(q * np.log(q / p))[-1]
    return float(d_pq + d_qp) / 2.0


def _robust_cut(series: np.ndarray, threshold: float) -> float:
    """median + threshold * (1.4826 * MAD), with std fallback."""
    median = float(np.median(series))
    mad = float(np.median(np.abs(series - median)))
    scale = 1.4826 * mad if mad > 0 else float(series.std()) or 1.0
    return median + threshold * scale


def _dedupe(alarms: list[Alarm]) -> list[Alarm]:
    """Drop alarms with identical filters and windows."""
    seen = set()
    unique = []
    for alarm in alarms:
        key = (alarm.filters, alarm.t0, alarm.t1)
        if key in seen:
            continue
        seen.add(key)
        unique.append(alarm)
    return unique


#: Tunings for the experiments.
KL_TUNINGS = {
    "optimal": {},
    "sensitive": {"threshold": 1.8, "top_values": 8, "rule_support_pct": 10.0},
    "conservative": {"threshold": 4.5, "top_values": 3, "rule_support_pct": 25.0},
}
