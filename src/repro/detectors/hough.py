"""Hough-transform anomaly detector.

Reimplements the detector of Section 3.2(3) (Fontugne & Fukuda, ACM
SAC'11): traffic is rendered as a 2-D picture and anomalies are found
as *lines* via the Hough transform, a classic pattern-recognition
technique.  Alarms are **aggregated sets of flows** — the flows whose
packets produced the detected line's pixels.

Picture model
-------------
Two pictures are built per trace: one with the y-axis a hash of the
source address, one with a hash of the destination address; the x-axis
is time.  A host that is persistently active (a scanner sweeping
victims, a flood source, a flooded victim, an elephant flow endpoint)
draws a *horizontal* line in one of the pictures; a synchronized burst
across many hosts (DDoS) draws a *vertical* line.  The Hough transform
finds both without being told which.

Implementation
--------------
1. Quantize packets into an ``(y_bins, x_bins)`` picture per
   direction, indexed once as the packets of each pixel (the
   ``hough_rows`` plane); binarize at ``pixel_threshold`` packets per
   pixel.
2. Accumulate the standard (rho, theta) Hough space over lit pixels.
3. Accept accumulator peaks with at least ``min_votes`` pixels; collect
   the lit pixels within 1 pixel of each accepted line.
4. Map the pixels of each line back to packets through the index, keep
   the hosts that drew the line, and emit one alarm per such host
   carrying its unidirectional flows.
"""

from __future__ import annotations

import numpy as np

from repro.detectors.base import Alarm, Detector
from repro.net.flow import Granularity, uniflow_key
from repro.net.trace import Trace


class HoughDetector(Detector):
    """Line detection on 2-D traffic pictures; reports flow sets."""

    name = "hough"

    @classmethod
    def default_params(cls) -> dict:
        return {
            "x_bins": 48,
            "y_bins": 64,
            "pixel_threshold": 4,
            "min_votes": 14,
            "n_thetas": 8,
            "max_lines": 12,
            "max_keys_per_line": 2,
            "line_contrast": 2.0,
            "whole_trace_min_packets": 400,
            "hash_seed": 37,
        }

    def plane_specs(self) -> tuple:
        p = self.params
        specs = [("column", "time", None)]
        for direction in ("src", "dst"):
            seed = p["hash_seed"] + (0 if direction == "src" else 1)
            specs.extend(
                (
                    ("value_codes", direction),
                    ("hough_rows", direction, p["x_bins"], p["y_bins"], seed),
                    (
                        "hough_pixels",
                        direction,
                        p["x_bins"],
                        p["y_bins"],
                        p["pixel_threshold"],
                        seed,
                    ),
                )
            )
        return tuple(specs)

    def analyze(self, trace: Trace, planes=None) -> list[Alarm]:
        if len(trace) == 0:
            return []
        planes = self._plane_cache(trace, planes)
        alarms: list[Alarm] = []
        for direction in ("src", "dst"):
            alarms.extend(self._analyze_picture(trace, direction, planes))
        return alarms

    def _analyze_picture(
        self, trace: Trace, direction: str, planes
    ) -> list[Alarm]:
        p = self.params
        x_bins = p["x_bins"]
        seed = p["hash_seed"] + (0 if direction == "src" else 1)
        # The quantized picture and its lit pixels are fixed across
        # tunings (only vote thresholds move) — one plane per direction.
        ys, xs = planes.get(
            trace,
            (
                "hough_pixels",
                direction,
                x_bins,
                p["y_bins"],
                p["pixel_threshold"],
                seed,
            ),
        )
        if ys.size == 0:
            return []
        vectorized = self.engine.vectorized
        if vectorized:
            # A line's packets are its pixels' row ranges in the
            # picture's pixel index; hosts are split on value codes.
            rows, offsets = planes.get(
                trace, ("hough_rows", direction, x_bins, p["y_bins"], seed)
            )
            values, codes = planes.get(trace, ("value_codes", direction))
            times = planes.get(trace, ("column", "time", None))
        else:
            x = planes.get(trace, ("hough_x", x_bins))
            y = planes.get(
                trace, ("sketch_buckets", direction, p["y_bins"], seed)
            )
        t_start = trace.start_time
        bin_width = max(trace.end_time - t_start, 1e-9) / x_bins
        alarms: list[Alarm] = []
        for members in hough_line_members(
            xs, ys, n_thetas=p["n_thetas"], min_votes=p["min_votes"],
            max_lines=p["max_lines"],
        ):
            if vectorized:
                ranked = self._line_hosts(
                    _pixel_rows(rows, offsets, ys[members] * x_bins + xs[members]),
                    values,
                    codes,
                )
            else:
                ranked = self._line_hosts_reference(
                    trace, direction, x, y, ys[members], xs[members]
                )
            for key, key_indices in ranked:
                if vectorized:
                    x_values = time_pixels(
                        times[key_indices], t_start, trace.end_time, x_bins
                    )
                else:
                    x_values = x[key_indices]
                t0 = t_start + int(x_values.min()) * bin_width
                t1 = t_start + (int(x_values.max()) + 1) * bin_width
                if not self._is_transient(trace, key, direction, t0, t1):
                    continue
                if vectorized:
                    flow_table = planes.get(
                        trace, ("flow_codes", Granularity.UNIFLOW.name)
                    )
                    flows = frozenset(
                        flow_table.keys_of(
                            np.unique(flow_table.codes[key_indices])
                        )
                    )
                else:
                    flows = frozenset(
                        uniflow_key(trace[i]) for i in key_indices
                    )
                alarms.append(
                    self._alarm(
                        t0,
                        t1,
                        flow_keys=flows,
                        score=float(len(key_indices)),
                    )
                )
        return alarms

    def _line_hosts(
        self, line_rows: np.ndarray, values: np.ndarray, codes: np.ndarray
    ) -> list[tuple[int, np.ndarray]]:
        """The hosts that drew one line, with their rows on it.

        A line pixel aggregates every host hashing to its y bin;
        retrieving "the original data" (the cited method's final step)
        means keeping only hosts with at least a quarter of the line's
        packets (and ``min_votes``), at most ``max_keys_per_line`` of
        them, count-descending with ties by first packet.
        """
        p = self.params
        cutoff = max(int(p["min_votes"]), int(0.25 * line_rows.size))
        line_codes = codes[line_rows]
        counts = np.bincount(line_codes)
        heavy = np.flatnonzero(counts >= cutoff)
        if heavy.size == 0:
            return []
        host_rows = [line_rows[line_codes == code] for code in heavy]
        first = [int(r.min()) for r in host_rows]
        order = np.lexsort((first, -counts[heavy]))
        return [
            (int(values[heavy[i]]), host_rows[i])
            for i in order[: p["max_keys_per_line"]]
        ]

    def _line_hosts_reference(
        self,
        trace: Trace,
        direction: str,
        x: np.ndarray,
        y: np.ndarray,
        line_ys: np.ndarray,
        line_xs: np.ndarray,
    ) -> list[tuple[int, list[int]]]:
        """:meth:`_line_hosts` by a per-packet pixel probe (the oracle)."""
        p = self.params
        pixel_set = set(zip(line_ys.tolist(), line_xs.tolist()))
        indices = [
            i for i, (yy, xx) in enumerate(zip(y, x))
            if (int(yy), int(xx)) in pixel_set
        ]
        cutoff = max(int(p["min_votes"]), int(0.25 * len(indices)))
        per_key: dict[int, list[int]] = {}
        for i in indices:
            key = int(getattr(trace[i], direction))
            per_key.setdefault(key, []).append(i)
        ranked = sorted(
            per_key.items(), key=lambda kv: len(kv[1]), reverse=True
        )
        return [
            (key, key_indices)
            for key, key_indices in ranked[: p["max_keys_per_line"]]
            if len(key_indices) >= cutoff
        ]

    def _is_transient(
        self, trace: Trace, key: int, direction: str, t0: float, t1: float
    ) -> bool:
        """True when the host's activity is concentrated in [t0, t1).

        The cited detector adapts its time interval and does not report
        hosts whose picture line merely reflects a steady baseline
        (every busy server is a permanent line).  We keep a line only
        when the host's packet rate inside the line's window exceeds
        ``line_contrast`` times its rate outside — i.e. the activity is
        transient or bursty, not an always-on baseline.

        Lines covering (nearly) the whole trace are kept when the host
        is intense enough to dominate its picture row; steady
        moderate-rate hosts are dropped.
        """
        contrast = self.params["line_contrast"]
        span = max(trace.end_time - trace.start_time, 1e-9)
        window = max(t1 - t0, 1e-9)
        outside = span - window
        if self.engine.vectorized:
            host = trace.table.column(direction) == key
            if outside <= span * 0.1:
                return (
                    int(host.sum()) >= self.params["whole_trace_min_packets"]
                )
            time = trace.table.time
            total = int(host.sum())
            inside = int((host & (time >= t0) & (time < t1)).sum())
        else:
            if outside <= span * 0.1:
                # Whole-trace line: no outside baseline to compare
                # against; treat as transient only if clearly heavy.
                count = sum(
                    1 for pkt in trace if getattr(pkt, direction) == key
                )
                return count >= self.params["whole_trace_min_packets"]
            inside = 0
            total = 0
            for pkt in trace:
                if getattr(pkt, direction) != key:
                    continue
                total += 1
                if t0 <= pkt.time < t1:
                    inside += 1
        if total == 0:
            return False
        rate_in = inside / window
        rate_out = (total - inside) / outside
        return rate_in >= contrast * max(rate_out, 1e-9)


def time_pixels(
    times: np.ndarray, t_start: float, t_end: float, x_bins: int
) -> np.ndarray:
    """x (time) pixel of each timestamp in a picture ``x_bins`` wide."""
    span = max(t_end - t_start, 1e-9)
    return np.clip(
        ((times - t_start) / span * x_bins).astype(int), 0, x_bins - 1
    )


def _pixel_rows(
    rows: np.ndarray, offsets: np.ndarray, pixels: np.ndarray
) -> np.ndarray:
    """Concatenated row ranges of ``pixels`` in a ``hough_rows`` index."""
    starts = offsets[pixels]
    lengths = offsets[pixels + 1] - starts
    ends = np.cumsum(lengths)
    return rows[
        np.arange(lengths.sum()) + np.repeat(starts - (ends - lengths), lengths)
    ]


def hough_line_members(
    xs: np.ndarray,
    ys: np.ndarray,
    n_thetas: int = 8,
    min_votes: int = 12,
    max_lines: int = 12,
) -> list[np.ndarray]:
    """Standard (rho, theta) Hough transform over lit pixels.

    Parameters
    ----------
    xs, ys:
        Coordinates of lit pixels (non-negative integers).
    n_thetas:
        Number of angle steps over [0, pi).
    min_votes:
        Minimum number of pixels on a line for it to be reported.
    max_lines:
        Report at most this many lines (strongest first); pixels
        already claimed by a stronger line do not vote again.

    Returns
    -------
    list of int arrays
        Each array holds the indexes into ``xs``/``ys`` of the pixels
        of one detected line, ascending.
    """
    if xs.size == 0:
        return []
    thetas = np.linspace(0.0, np.pi, n_thetas, endpoint=False)
    max_rho = int(np.ceil(np.hypot(xs.max() + 1, ys.max() + 1)))
    # rho = x cos(theta) + y sin(theta), rounded once per pixel; it can
    # be negative for theta > pi/2, so offset it into a non-negative
    # index.  ``cells`` flattens (rho, theta) row-major, so argmax over
    # one round's bincount breaks ties like argmax over the 2-D
    # accumulator.
    rho_idx = (
        np.round(np.outer(xs, np.cos(thetas)) + np.outer(ys, np.sin(thetas)))
        .astype(int)
        + max_rho
    )
    cells = rho_idx * n_thetas + np.arange(n_thetas)
    n_cells = (2 * max_rho + 1) * n_thetas

    remaining = np.ones(xs.size, dtype=bool)
    lines: list[np.ndarray] = []
    for _ in range(max_lines):
        active = np.flatnonzero(remaining)
        if active.size < min_votes:
            break
        votes = np.bincount(cells[active].ravel(), minlength=n_cells)
        peak = int(np.argmax(votes))
        if votes[peak] < min_votes:
            break
        rho_i, theta_i = divmod(peak, n_thetas)
        members = active[np.abs(rho_idx[active, theta_i] - rho_i) <= 1]
        if members.size < min_votes:
            break
        lines.append(members)
        remaining[members] = False
    return lines


def hough_lines(
    xs: np.ndarray,
    ys: np.ndarray,
    n_thetas: int = 8,
    min_votes: int = 12,
    max_lines: int = 12,
) -> list[list[tuple[int, int]]]:
    """:func:`hough_line_members` as the ``(y, x)`` pixels of each line."""
    return [
        [(int(ys[i]), int(xs[i])) for i in members]
        for members in hough_line_members(
            xs, ys, n_thetas=n_thetas, min_votes=min_votes, max_lines=max_lines
        )
    ]


#: Tunings for the experiments.
HOUGH_TUNINGS = {
    # The picture quantization stays fixed across tunings so the
    # detected lines (and hence the reported flow sets) are comparable;
    # only the vote threshold and the line budget move.
    "optimal": {},
    "sensitive": {"min_votes": 8, "max_lines": 20},
    "conservative": {"min_votes": 20, "max_lines": 6},
}
