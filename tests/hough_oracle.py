"""Hough vote loop with a 2-D accumulator: the reference for the detector.

This is :func:`repro.detectors.hough.hough_lines` as it was before the
detector rounded every lit pixel's rho once and accumulated each round
with one ``bincount``: each round recomputes the rho of the remaining
pixels and adds their votes into a ``(rho, theta)`` accumulator with
``np.add.at``, one theta at a time.  ``tests/test_hough_detector.py``
checks that the detector finds the same lines, in the same order.
"""

from __future__ import annotations

import numpy as np


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
