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
1. Quantize packets into an ``(y_bins, x_bins)`` count image per
   direction; binarize at ``pixel_threshold`` packets per pixel.
2. Accumulate the standard (rho, theta) Hough space over lit pixels.
3. Accept accumulator peaks with at least ``min_votes`` pixels; collect
   the lit pixels within 1 pixel of each accepted line.
4. Map the pixels of each line back to packets, group them into
   unidirectional flows and emit one alarm per line carrying that flow
   set.
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
        specs = [("column", "time", None), ("hough_x", p["x_bins"])]
        for direction in ("src", "dst"):
            seed = p["hash_seed"] + (0 if direction == "src" else 1)
            specs.extend(
                (
                    ("column", direction, "uint64"),
                    ("sketch_buckets", direction, p["y_bins"], seed),
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
        p = self.params
        planes = self._plane_cache(trace, planes)
        t_start, t_end = trace.start_time, trace.end_time
        span = max(t_end - t_start, 1e-9)
        x = planes.get(trace, ("hough_x", p["x_bins"]))
        alarms: list[Alarm] = []
        for direction in ("src", "dst"):
            seed = p["hash_seed"] + (0 if direction == "src" else 1)
            y = planes.get(
                trace, ("sketch_buckets", direction, p["y_bins"], seed)
            )
            alarms.extend(
                self._analyze_picture(
                    trace, x, y, t_start, span, direction, planes, seed
                )
            )
        return alarms

    def _analyze_picture(
        self,
        trace: Trace,
        x: np.ndarray,
        y: np.ndarray,
        t_start: float,
        span: float,
        direction: str,
        planes,
        seed: int,
    ) -> list[Alarm]:
        p = self.params
        # The quantized picture and its lit pixels are fixed across
        # tunings (only vote thresholds move) — one plane per direction.
        ys, xs = planes.get(
            trace,
            (
                "hough_pixels",
                direction,
                p["x_bins"],
                p["y_bins"],
                p["pixel_threshold"],
                seed,
            ),
        )
        if ys.size == 0:
            return []
        lines = hough_lines(
            xs, ys, n_thetas=p["n_thetas"], min_votes=p["min_votes"],
            max_lines=p["max_lines"],
        )
        alarms: list[Alarm] = []
        bin_width = span / p["x_bins"]
        vectorized = self.engine.vectorized
        for line_pixels in lines:
            if vectorized:
                # Packets whose (y, x) pixel is on the line, via a 2-D
                # lookup image instead of a per-packet set probe.
                line_image = np.zeros((p["y_bins"], p["x_bins"]), dtype=bool)
                line_ys, line_xs = zip(*line_pixels)
                line_image[list(line_ys), list(line_xs)] = True
                indices = np.nonzero(line_image[y, x])[0]
            else:
                pixel_set = set(line_pixels)
                member = np.array(
                    [(int(yy), int(xx)) in pixel_set for yy, xx in zip(y, x)]
                )
                indices = np.nonzero(member)[0]
            if indices.size == 0:
                continue
            # A line pixel aggregates every host hashing to its y bin;
            # retrieving "the original data" (the cited method's final
            # step) means keeping only hosts that actually drew the
            # line.  One alarm per dominant host on the line.
            cutoff = max(
                int(p["min_votes"]), int(0.25 * indices.size)
            )
            if vectorized:
                line_keys = trace.table.column(direction)[indices]
                uniq, first_index, counts = np.unique(
                    line_keys, return_index=True, return_counts=True
                )
                # Count-descending, ties by first appearance — the
                # stable-sort order of the reference branch below.
                order = np.lexsort((first_index, -counts))
                ranked = [
                    (int(uniq[i]), indices[line_keys == uniq[i]])
                    for i in order[: p["max_keys_per_line"]]
                ]
            else:
                per_key: dict[int, list[int]] = {}
                for i in indices:
                    key = int(getattr(trace[int(i)], direction))
                    per_key.setdefault(key, []).append(int(i))
                ranked = sorted(
                    per_key.items(), key=lambda kv: len(kv[1]), reverse=True
                )
            for key, key_indices in ranked[: p["max_keys_per_line"]]:
                if len(key_indices) < cutoff:
                    continue
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


def hough_lines(
    xs: np.ndarray,
    ys: np.ndarray,
    n_thetas: int = 8,
    min_votes: int = 12,
    max_lines: int = 12,
) -> list[list[tuple[int, int]]]:
    """Standard (rho, theta) Hough transform over lit pixels.

    Parameters
    ----------
    xs, ys:
        Coordinates of lit pixels.
    n_thetas:
        Number of angle steps over [0, pi).
    min_votes:
        Minimum number of pixels on a line for it to be reported.
    max_lines:
        Report at most this many lines (strongest first); pixels
        already claimed by a stronger line do not vote again.

    Returns
    -------
    list of pixel lists
        Each inner list holds the ``(y, x)`` pixels of one detected
        line.
    """
    if xs.size == 0:
        return []
    thetas = np.linspace(0.0, np.pi, n_thetas, endpoint=False)
    cos_t = np.cos(thetas)
    sin_t = np.sin(thetas)
    max_rho = int(np.ceil(np.hypot(xs.max() + 1, ys.max() + 1)))
    # rho can be negative for theta > pi/2; offset into a non-negative index.
    rho_offset = max_rho
    n_rhos = 2 * max_rho + 1

    remaining = np.ones(xs.size, dtype=bool)
    lines: list[list[tuple[int, int]]] = []
    for _ in range(max_lines):
        active = np.nonzero(remaining)[0]
        if active.size < min_votes:
            break
        accumulator = np.zeros((n_rhos, n_thetas), dtype=int)
        # Vote: rho = x cos(theta) + y sin(theta), rounded.
        rho_all = (
            np.outer(xs[active], cos_t) + np.outer(ys[active], sin_t)
        )
        rho_idx = np.round(rho_all).astype(int) + rho_offset
        for t_i in range(n_thetas):
            np.add.at(accumulator[:, t_i], rho_idx[:, t_i], 1)
        peak = np.unravel_index(np.argmax(accumulator), accumulator.shape)
        votes = accumulator[peak]
        if votes < min_votes:
            break
        rho_i, theta_i = int(peak[0]), int(peak[1])
        on_line = np.abs(rho_idx[:, theta_i] - rho_i) <= 1
        members = active[on_line]
        if members.size < min_votes:
            break
        lines.append([(int(ys[i]), int(xs[i])) for i in members])
        remaining[members] = False
    return lines


#: Tunings for the experiments.
HOUGH_TUNINGS = {
    # The picture quantization stays fixed across tunings so the
    # detected lines (and hence the reported flow sets) are comparable;
    # only the vote threshold and the line budget move.
    "optimal": {},
    "sensitive": {"min_votes": 8, "max_lines": 20},
    "conservative": {"min_votes": 20, "max_lines": 6},
}
