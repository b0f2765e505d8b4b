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

The tunings differ only in ``min_votes`` and ``max_lines``, which
decide where steps 2-3 stop, and in the host cutoff of step 4.  So a
picture's lines are found once, as one :class:`LineSequence` (the
``hough_lines`` plane) whose prefixes are the tunings' lines, and each
line's ranked hosts, with their windows, packet counts and flows, are
worked out once for all tunings.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.detectors.base import Alarm, Detector
from repro.net.flow import Granularity
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
        seed = p["hash_seed"] + (0 if direction == "src" else 1)
        # The picture and its line sequence are fixed across tunings
        # (only the vote thresholds move): one plane per direction.
        lines = planes.get(
            trace,
            (
                "hough_lines",
                direction,
                p["x_bins"],
                p["y_bins"],
                p["pixel_threshold"],
                seed,
                p["n_thetas"],
            ),
        )
        alarms: list[Alarm] = []
        for r, members in enumerate(
            lines.lines(p["min_votes"], p["max_lines"])
        ):
            line = lines.hosts.get(r)
            if line is None:
                line = lines.hosts[r] = self._line_hosts(
                    trace, direction, planes, lines.ys[members], lines.xs[members]
                )
            n_rows, ranked = line
            for host in tuning_hosts(
                ranked, n_rows, p["min_votes"], p["max_keys_per_line"]
            ):
                if host.extent is None:
                    host.extent = self._host_extent(
                        trace, direction, planes, host
                    )
                t0, t1, total, inside = host.extent
                if not self._is_transient(trace, t0, t1, total, inside):
                    continue
                if host.flows is None:
                    host.flows = self._host_flows(trace, planes, host)
                alarms.append(
                    self._alarm(
                        t0, t1, flow_keys=host.flows, score=float(len(host.rows))
                    )
                )
        return alarms

    def _line_hosts(
        self,
        trace: Trace,
        direction: str,
        planes,
        line_ys: np.ndarray,
        line_xs: np.ndarray,
    ) -> tuple[int, list[LineHost]]:
        """The packet count of one line and its ranked hosts.

        Reads the line's packets off the picture's pixel index and
        splits hosts on value codes (:func:`rank_line_hosts`).
        ``tests/hough_oracle.py`` keeps the per-packet pixel probe this
        is tested against.
        """
        p = self.params
        x_bins = p["x_bins"]
        seed = p["hash_seed"] + (0 if direction == "src" else 1)
        rows, offsets = planes.get(
            trace, ("hough_rows", direction, x_bins, p["y_bins"], seed)
        )
        values, codes = planes.get(trace, ("value_codes", direction))
        line_rows = _pixel_rows(rows, offsets, line_ys * x_bins + line_xs)
        return line_rows.size, rank_line_hosts(line_rows, values, codes)

    def _host_extent(
        self, trace: Trace, direction: str, planes, host: LineHost
    ) -> tuple[float, float, int, int]:
        """``(t0, t1, total, inside)`` of one host on one line.

        ``[t0, t1)`` spans the x pixels of the host's packets on the
        line; ``total`` counts the host's packets in the trace and
        ``inside`` those in ``[t0, t1)``.
        """
        x_bins = self.params["x_bins"]
        t_start = trace.start_time
        bin_width = max(trace.end_time - t_start, 1e-9) / x_bins
        times = planes.get(trace, ("column", "time", None))
        x_values = time_pixels(times[host.rows], t_start, trace.end_time, x_bins)
        t0 = t_start + int(x_values.min()) * bin_width
        t1 = t_start + (int(x_values.max()) + 1) * bin_width
        on_host = trace.table.column(direction) == host.key
        time = trace.table.time
        total = int(on_host.sum())
        inside = int((on_host & (time >= t0) & (time < t1)).sum())
        return t0, t1, total, inside

    def _host_flows(self, trace: Trace, planes, host: LineHost) -> frozenset:
        """The unidirectional flows of a host's packets on a line."""
        flow_table = planes.get(trace, ("flow_codes", Granularity.UNIFLOW.name))
        return frozenset(
            flow_table.keys_of(np.unique(flow_table.codes[host.rows]))
        )

    def _is_transient(
        self, trace: Trace, t0: float, t1: float, total: int, inside: int
    ) -> bool:
        """True when a host's activity is concentrated in [t0, t1).

        ``total`` counts the host's packets in the trace and ``inside``
        those in ``[t0, t1)``.  The cited detector adapts its time
        interval and does not report hosts whose picture line merely
        reflects a steady baseline (every busy server is a permanent
        line).  We keep a line only when the host's packet rate inside
        the line's window exceeds ``line_contrast`` times its rate
        outside — i.e. the activity is transient or bursty, not an
        always-on baseline.

        Lines covering (nearly) the whole trace are kept when the host
        is intense enough to dominate its picture row; steady
        moderate-rate hosts are dropped.
        """
        contrast = self.params["line_contrast"]
        span = max(trace.end_time - trace.start_time, 1e-9)
        window = max(t1 - t0, 1e-9)
        outside = span - window
        if outside <= span * 0.1:
            # Whole-trace line: no outside baseline to compare
            # against; treat as transient only if clearly heavy.
            return total >= self.params["whole_trace_min_packets"]
        if total == 0:
            return False
        rate_in = inside / window
        rate_out = (total - inside) / outside
        return rate_in >= contrast * max(rate_out, 1e-9)


@dataclass(eq=False)
class LineHost:
    """One host that drew a line, shared by the picture's tunings.

    ``rows`` are the host's packets on the line.  ``extent`` (see
    :meth:`HoughDetector._host_extent`) and ``flows`` are filled the
    first time a tuning keeps the host.
    """

    key: int
    rows: np.ndarray
    extent: tuple[float, float, int, int] | None = None
    flows: frozenset | None = None


def rank_line_hosts(
    line_rows: np.ndarray, values: np.ndarray, codes: np.ndarray
) -> list[LineHost]:
    """The hosts that drew one line, with their rows on it.

    A line pixel aggregates every host hashing to its y bin;
    retrieving "the original data" (the cited method's final step)
    means keeping hosts with at least a quarter of the line's packets,
    count-descending with ties by first packet.  Every tuning's cutoff
    (:func:`tuning_hosts`) is at least this one, and the hosts that
    pass a higher cutoff are a prefix of the ranking.
    """
    floor = max(1, int(0.25 * line_rows.size))
    line_codes = codes[line_rows]
    counts = np.bincount(line_codes)
    heavy = np.flatnonzero(counts >= floor)
    host_rows = [line_rows[line_codes == code] for code in heavy]
    first = [int(r.min()) for r in host_rows]
    order = np.lexsort((first, -counts[heavy]))
    return [LineHost(int(values[heavy[i]]), host_rows[i]) for i in order]


def tuning_hosts(
    ranked: list[LineHost], n_rows: int, min_votes: int, max_keys: int
) -> list[LineHost]:
    """The ranked hosts one tuning keeps on a line of ``n_rows`` packets:
    at most ``max_keys``, each with at least ``min_votes`` and a
    quarter of the line's packets."""
    cutoff = max(int(min_votes), int(0.25 * n_rows))
    return [host for host in ranked[:max_keys] if len(host.rows) >= cutoff]


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


class LineSequence:
    """The lines of one traffic picture, in the order the vote loop
    finds them.

    Each round of the standard (rho, theta) Hough transform votes with
    the lit pixels no earlier line claimed, takes the strongest
    accumulator cell, and claims the pixels within 1 of its rho as the
    round's line.  Nothing in a round depends on ``min_votes`` or
    ``max_lines``: they only decide where a tuning stops, at the first
    round whose peak votes fall below ``min_votes`` (a round's active
    pixels and line pixels are never fewer than its votes), or after
    ``max_lines`` rounds.  The stop test is monotone in ``min_votes``,
    so every tuning's lines are a prefix of one sequence, which
    :meth:`lines` extends on demand.  ``hosts`` holds what the detector
    derives from each line, by round, for the tunings that read the
    line after it.
    """

    def __init__(self, xs: np.ndarray, ys: np.ndarray, n_thetas: int = 8) -> None:
        self.xs = xs
        self.ys = ys
        self.hosts: dict[int, tuple] = {}
        #: ``(peak votes, line pixels)`` of each round.
        self._rounds: list[tuple[int, np.ndarray]] = []
        if xs.size == 0:
            return
        thetas = np.linspace(0.0, np.pi, n_thetas, endpoint=False)
        max_rho = int(np.ceil(np.hypot(xs.max() + 1, ys.max() + 1)))
        # rho = x cos(theta) + y sin(theta), rounded once per pixel; it
        # can be negative for theta > pi/2, so offset it into a
        # non-negative index.  ``cells`` flattens (rho, theta)
        # row-major, so argmax over one round's bincount breaks ties
        # like argmax over the 2-D accumulator.  The sequence lives as
        # long as its trace's planes, so cells are int32 when they fit.
        rho_idx = (
            np.round(np.outer(xs, np.cos(thetas)) + np.outer(ys, np.sin(thetas)))
            .astype(int)
            + max_rho
        )
        self._n_thetas = n_thetas
        self._n_cells = (2 * max_rho + 1) * n_thetas
        self._cells = rho_idx * n_thetas + np.arange(n_thetas)
        if self._n_cells <= np.iinfo(np.int32).max:
            self._cells = self._cells.astype(np.int32)
        self._remaining = np.ones(xs.size, dtype=bool)

    @property
    def nbytes(self) -> int:
        """Bytes of the vote arrays, which the plane cache counts."""
        if self.xs.size == 0:
            return 0
        return int(self._cells.nbytes + self._remaining.nbytes)

    def lines(self, min_votes: int, max_lines: int) -> list[np.ndarray]:
        """The lines one tuning reports, strongest first.

        Each array holds the indexes into ``xs``/``ys`` of one line's
        pixels, ascending; a pixel claimed by a stronger line does not
        vote again.
        """
        if self.xs.size == 0:
            return []
        lines: list[np.ndarray] = []
        for r in range(max_lines):
            if r == len(self._rounds):
                self._vote()
            votes, members = self._rounds[r]
            if votes < min_votes:
                break
            lines.append(members)
        return lines

    def _vote(self) -> None:
        """Run the next round over the pixels no line claimed yet."""
        active = np.flatnonzero(self._remaining)
        votes = np.bincount(self._cells[active].ravel(), minlength=self._n_cells)
        peak = int(np.argmax(votes))
        # At one theta, cells one rho apart are n_thetas apart: the
        # line is the pixels within 1 of the peak's rho.
        at_theta = self._cells[active, peak % self._n_thetas]
        members = active[np.abs(at_theta - peak) <= self._n_thetas]
        self._remaining[members] = False
        self._rounds.append((int(votes[peak]), members))


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
        of one detected line, ascending (:meth:`LineSequence.lines`).
    """
    return LineSequence(xs, ys, n_thetas).lines(min_votes, max_lines)


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
