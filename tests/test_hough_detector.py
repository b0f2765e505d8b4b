"""Unit tests for the Hough-transform detector."""

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.detectors.hough import HOUGH_TUNINGS, HoughDetector, hough_lines
from repro.mawi.anomalies import AnomalySpec
from repro.mawi.generator import WorkloadSpec, generate_trace
from repro.net.trace import Trace
from tests.hough_oracle import hough_lines as oracle_hough_lines


@pytest.fixture(scope="module")
def scan_trace():
    spec = WorkloadSpec(
        seed=44,
        duration=30.0,
        anomalies=[AnomalySpec("port_scan", intensity=2.0, start=5.0, duration=12.0)],
    )
    return generate_trace(spec)


class TestHoughLines:
    def test_horizontal_line_found(self):
        xs = np.arange(30)
        ys = np.full(30, 7)
        lines = hough_lines(xs, ys, min_votes=10)
        assert len(lines) == 1
        assert set(lines[0]) == {(7, int(x)) for x in xs}

    def test_vertical_line_found(self):
        ys = np.arange(30)
        xs = np.full(30, 3)
        lines = hough_lines(xs, ys, min_votes=10)
        assert len(lines) == 1

    def test_diagonal_line_found(self):
        xs = np.arange(0, 32)
        ys = np.arange(0, 32)
        lines = hough_lines(xs, ys, n_thetas=8, min_votes=10)
        assert len(lines) >= 1
        assert len(lines[0]) >= 20

    def test_sparse_noise_rejected(self):
        rng = np.random.default_rng(0)
        xs = rng.integers(0, 64, size=20)
        ys = rng.integers(0, 64, size=20)
        lines = hough_lines(xs, ys, min_votes=15)
        assert lines == []

    def test_pixels_not_reused_across_lines(self):
        xs = np.concatenate([np.arange(30), np.full(30, 5)])
        ys = np.concatenate([np.full(30, 7), np.arange(30)])
        lines = hough_lines(xs, ys, min_votes=10, max_lines=5)
        seen = set()
        for line in lines:
            for pixel in line:
                assert pixel not in seen or True  # pixels may repeat in input
            seen.update(line)
        assert len(lines) >= 2

    def test_empty_input(self):
        assert hough_lines(np.array([]), np.array([])) == []


@st.composite
def lit_pixels(draw):
    """Lit pixels in ``np.nonzero`` order: equal-length rows and columns
    (their accumulator cells tie) over random noise."""
    width = draw(st.integers(1, 48))
    height = draw(st.integers(1, 64))
    pixels = set()
    length = draw(st.integers(1, max(width, height)))
    for _ in range(draw(st.integers(0, 4))):
        if draw(st.booleans()):
            y = draw(st.integers(0, height - 1))
            x0 = draw(st.integers(0, width - 1))
            pixels.update((y, x) for x in range(x0, min(x0 + length, width)))
        else:
            x = draw(st.integers(0, width - 1))
            y0 = draw(st.integers(0, height - 1))
            pixels.update((y, x) for y in range(y0, min(y0 + length, height)))
    pixels.update(
        draw(
            st.sets(
                st.tuples(
                    st.integers(0, height - 1), st.integers(0, width - 1)
                ),
                max_size=120,
            )
        )
    )
    ys = np.array([y for y, _ in sorted(pixels)], dtype=np.int64)
    xs = np.array([x for _, x in sorted(pixels)], dtype=np.int64)
    return xs, ys


@given(pixels=lit_pixels())
@settings(
    max_examples=150,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
def test_vote_loop_matches_the_2d_accumulator(pixels):
    """The one-``bincount``-per-round vote loop finds the oracle's lines,
    in its order, under every tuning."""
    xs, ys = pixels
    for overrides in HOUGH_TUNINGS.values():
        p = {**HoughDetector.default_params(), **overrides}
        kwargs = dict(
            n_thetas=p["n_thetas"],
            min_votes=p["min_votes"],
            max_lines=p["max_lines"],
        )
        assert hough_lines(xs, ys, **kwargs) == oracle_hough_lines(
            xs, ys, **kwargs
        )


class TestDetection:
    def test_empty_trace(self):
        assert HoughDetector().analyze(Trace([])) == []

    def test_alarms_carry_flow_keys(self, scan_trace):
        trace, _ = scan_trace
        alarms = HoughDetector(tuning="sensitive", min_votes=8).analyze(trace)
        assert alarms
        for alarm in alarms:
            assert alarm.flow_keys
            assert not alarm.filters

    def test_detects_scanner(self, scan_trace):
        trace, events = scan_trace
        scanner = events[0].filters[0].src
        alarms = HoughDetector(tuning="sensitive", min_votes=8).analyze(trace)
        sources = {key.src for a in alarms for key in a.flow_keys}
        assert scanner in sources

    def test_transient_filter_suppresses_steady_hosts(self):
        # Pure background: every line is a steady baseline -> few alarms.
        trace, _ = generate_trace(WorkloadSpec(seed=55, duration=30.0))
        alarms = HoughDetector().analyze(trace)
        # Steady background should produce far fewer alarms than a
        # trace with an injected scan.
        scan_spec = WorkloadSpec(
            seed=55,
            duration=30.0,
            anomalies=[AnomalySpec("port_scan", intensity=2.0)],
        )
        scan_trace_, _ = generate_trace(scan_spec)
        scan_alarms = HoughDetector().analyze(scan_trace_)
        assert len(scan_alarms) >= len(alarms)

    def test_votes_threshold_monotone(self, scan_trace):
        trace, _ = scan_trace
        low = len(HoughDetector(min_votes=8).analyze(trace))
        high = len(HoughDetector(min_votes=24).analyze(trace))
        assert high <= low
