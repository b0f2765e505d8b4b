"""Hough references for the detector: one tuning at a time.

:func:`hough_lines` is :func:`repro.detectors.hough.hough_lines` as it
was before the detector rounded every lit pixel's rho once and
accumulated each round with one ``bincount``: each round recomputes the
rho of the remaining pixels and adds their votes into a ``(rho, theta)``
accumulator with ``np.add.at``, one theta at a time.
:func:`line_hosts` is the detector's host split as it was before the
tunings shared one ranking per line: it applies one tuning's cutoff
and host budget directly.  ``tests/test_hough_detector.py`` checks
that the detector finds the same lines, in the same order, and keeps
the same hosts, under every tuning.

:func:`probe_line_hosts`, :func:`host_extent` and :func:`host_flows`
are the detector's line, host and flow reads as the python engine ran
them before both engines shared the pixel index: each packet's pixel
is probed against the line's pixel set, each host's packets are
counted packet by packet, and each row gets its own flow key.  The
same tests check every line's hosts, windows, packet counts and flows
against them, on both engines.
"""

from __future__ import annotations

import numpy as np

from repro.net.flow import uniflow_key


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


def line_hosts(
    line_rows: np.ndarray,
    values: np.ndarray,
    codes: np.ndarray,
    min_votes: int,
    max_keys_per_line: int,
) -> list[tuple[int, np.ndarray]]:
    """The hosts that drew one line, with their rows on it.

    A line pixel aggregates every host hashing to its y bin;
    retrieving "the original data" (the cited method's final step)
    means keeping only hosts with at least a quarter of the line's
    packets (and ``min_votes``), at most ``max_keys_per_line`` of
    them, count-descending with ties by first packet.
    """
    cutoff = max(int(min_votes), int(0.25 * line_rows.size))
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
        for i in order[:max_keys_per_line]
    ]


def packet_pixels(
    trace, direction: str, x_bins: int, y_bins: int, seed: int
) -> list[tuple[int, int]]:
    """Each packet's ``(y, x)`` pixel in one traffic picture."""
    from repro.detectors.sketch import shared_hasher

    t_start = trace.start_time
    span = max(trace.end_time - t_start, 1e-9)
    keys = np.array([getattr(pkt, direction) for pkt in trace], dtype=np.uint64)
    ys = shared_hasher(y_bins, seed).buckets(keys)
    return [
        (int(y), min(max(int((pkt.time - t_start) / span * x_bins), 0), x_bins - 1))
        for y, pkt in zip(ys, trace)
    ]


def probe_line_hosts(
    trace, direction: str, pixels: list[tuple[int, int]], line_pixels
) -> tuple[int, list[tuple[int, list[int]]]]:
    """The packet count of one line and its ranked ``(host, rows)``.

    ``pixels`` are :func:`packet_pixels`; a host is kept when it holds
    at least a quarter of the line's packets, count-descending with
    ties by first packet.
    """
    pixel_set = set(line_pixels)
    indices = [i for i, pixel in enumerate(pixels) if pixel in pixel_set]
    floor = max(1, int(0.25 * len(indices)))
    per_key: dict[int, list[int]] = {}
    for i in indices:
        per_key.setdefault(int(getattr(trace[i], direction)), []).append(i)
    ranked = sorted(per_key.items(), key=lambda kv: len(kv[1]), reverse=True)
    return len(indices), [(key, rows) for key, rows in ranked if len(rows) >= floor]


def host_extent(
    trace, direction: str, pixels: list[tuple[int, int]], key: int, rows,
    x_bins: int,
) -> tuple[float, float, int, int]:
    """``(t0, t1, total, inside)`` of one host on one line, counted
    packet by packet."""
    t_start = trace.start_time
    bin_width = max(trace.end_time - t_start, 1e-9) / x_bins
    xs = [pixels[i][1] for i in rows]
    t0 = t_start + min(xs) * bin_width
    t1 = t_start + (max(xs) + 1) * bin_width
    total = inside = 0
    for pkt in trace:
        if getattr(pkt, direction) != key:
            continue
        total += 1
        if t0 <= pkt.time < t1:
            inside += 1
    return t0, t1, total, inside


def host_flows(trace, rows) -> frozenset:
    """The unidirectional flow of each of ``rows``."""
    return frozenset(uniflow_key(trace[int(i)]) for i in rows)
