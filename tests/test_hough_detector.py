"""Unit tests for the Hough-transform detector."""

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.detectors import hough as hough_module
from repro.detectors.hough import (
    HOUGH_TUNINGS,
    HoughDetector,
    LineSequence,
    hough_lines,
    rank_line_hosts,
    tuning_hosts,
)
from repro.detectors.planes import PlaneCache
from repro.mawi.anomalies import AnomalySpec
from repro.mawi.generator import WorkloadSpec, generate_trace
from repro.net.trace import Trace
from tests import hough_oracle as oracle


@pytest.fixture(scope="module")
def short_day():
    from repro.mawi.archive import SyntheticArchive

    return SyntheticArchive(seed=7, trace_duration=12.0).day("2004-06-01").trace


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


def _tunings(data, budget_key: str, budget: st.SearchStrategy) -> list:
    """Every ``HOUGH_TUNINGS`` entry's ``(min_votes, budget)`` plus
    random ones, in a drawn order."""
    default = HoughDetector.default_params()
    params = [{**default, **overrides} for overrides in HOUGH_TUNINGS.values()]
    tunings = [(p["min_votes"], p[budget_key]) for p in params]
    tunings += data.draw(
        st.lists(
            st.tuples(st.integers(1, 3) | st.integers(1, 40), budget),
            max_size=4,
        )
    )
    return data.draw(st.permutations(tunings))


@given(pixels=lit_pixels(), data=st.data())
@settings(
    max_examples=150,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
def test_vote_loop_matches_the_2d_accumulator(pixels, data):
    """The one-``bincount``-per-round vote loop finds the oracle's lines,
    in its order, under every tuning: run alone (``hough_lines``) or
    read, in any order, as a prefix of one sequence the tunings share."""
    xs, ys = pixels
    n_thetas = data.draw(
        st.sampled_from([HoughDetector.default_params()["n_thetas"], 1, 5, 12])
    )
    sequence = LineSequence(xs, ys, n_thetas)
    for min_votes, max_lines in _tunings(data, "max_lines", st.integers(0, 25)):
        kwargs = dict(n_thetas=n_thetas, min_votes=min_votes, max_lines=max_lines)
        expected = oracle.hough_lines(xs, ys, **kwargs)
        assert hough_lines(xs, ys, **kwargs) == expected
        assert [
            [(int(ys[i]), int(xs[i])) for i in members]
            for members in sequence.lines(min_votes, max_lines)
        ] == expected


@st.composite
def line_packets(draw):
    """``(line_rows, values, codes)``: a line's packet rows, in no
    particular order, over a column of ``codes``.  Hosts draw their
    line counts from a few sizes, so equal counts (ranked by first
    packet) are common."""
    n_hosts = draw(st.integers(1, 8))
    per_host = draw(
        st.lists(
            st.sampled_from([0, 1, 3, 8, 20, 40]),
            min_size=n_hosts,
            max_size=n_hosts,
        )
    )
    line_codes = np.repeat(np.arange(n_hosts), per_host)
    n_packets = line_codes.size + draw(st.integers(0, 40))
    codes = np.array(
        draw(
            st.lists(
                st.integers(0, n_hosts - 1),
                min_size=n_packets,
                max_size=n_packets,
            )
        ),
        dtype=np.int64,
    )
    rows = np.array(draw(st.permutations(range(n_packets))), dtype=np.int64)
    line_rows = rows[: line_codes.size]
    codes[line_rows] = draw(st.permutations(line_codes.tolist()))
    values = np.array(
        sorted(
            draw(
                st.sets(
                    st.integers(0, 2**32 - 1),
                    min_size=n_hosts,
                    max_size=n_hosts,
                )
            )
        ),
        dtype=np.uint32,
    )
    return line_rows, values, codes


@given(packets=line_packets(), data=st.data())
@settings(
    max_examples=200,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
def test_tunings_keep_prefixes_of_one_host_ranking(packets, data):
    """One ranking per line, cut by each tuning in any order, keeps the
    hosts the per-tuning host split keeps, with the same rows."""
    line_rows, values, codes = packets
    ranked = rank_line_hosts(line_rows, values, codes)
    for min_votes, max_keys in _tunings(
        data, "max_keys_per_line", st.integers(0, 5)
    ):
        kept = tuning_hosts(ranked, line_rows.size, min_votes, max_keys)
        expected = oracle.line_hosts(
            line_rows, values, codes, min_votes, max_keys
        )
        assert [(h.key, h.rows.tolist()) for h in kept] == [
            (key, rows.tolist()) for key, rows in expected
        ]


def test_small_lines_keep_single_packet_hosts():
    """Lines of 1-7 packets, where a quarter of the packets rounds down
    to at most one: a one-vote tuning keeps hosts with one packet."""
    values = np.array([5, 6, 7], dtype=np.uint32)
    for line_codes in ([0], [0, 1], [1, 0, 2], [0, 0, 1, 2], [2, 1, 1, 0, 0, 0, 2]):
        codes = np.array(line_codes, dtype=np.int64)
        line_rows = np.arange(codes.size)[::-1].copy()
        ranked = rank_line_hosts(line_rows, values, codes)
        for min_votes, max_keys in ((1, 1), (1, 3), (2, 2)):
            kept = tuning_hosts(ranked, line_rows.size, min_votes, max_keys)
            expected = oracle.line_hosts(
                line_rows, values, codes, min_votes, max_keys
            )
            assert [(h.key, h.rows.tolist()) for h in kept] == [
                (key, rows.tolist()) for key, rows in expected
            ]


def _check_lines_against_probe(trace, engine: str) -> int:
    """Compare every line's hosts, extents and flows with the oracle's
    per-packet probes; the number of hosts compared."""
    detector = HoughDetector(tuning="sensitive", engine=engine)
    planes = PlaneCache(engine)
    p = detector.params
    compared = 0
    for direction in ("src", "dst"):
        seed = p["hash_seed"] + (0 if direction == "src" else 1)
        pixels = oracle.packet_pixels(
            trace, direction, p["x_bins"], p["y_bins"], seed
        )
        lines = planes.get(
            trace,
            (
                "hough_lines", direction, p["x_bins"], p["y_bins"],
                p["pixel_threshold"], seed, p["n_thetas"],
            ),
        )
        for members in lines.lines(p["min_votes"], p["max_lines"]):
            line_ys, line_xs = lines.ys[members], lines.xs[members]
            n_rows, ranked = detector._line_hosts(
                trace, direction, planes, line_ys, line_xs
            )
            expected_rows, expected = oracle.probe_line_hosts(
                trace, direction, pixels, zip(line_ys.tolist(), line_xs.tolist())
            )
            assert n_rows == expected_rows
            assert [
                (host.key, sorted(host.rows.tolist())) for host in ranked
            ] == expected
            for host in ranked:
                assert detector._host_extent(
                    trace, direction, planes, host
                ) == oracle.host_extent(
                    trace, direction, pixels, host.key, host.rows, p["x_bins"]
                )
                assert detector._host_flows(
                    trace, planes, host
                ) == oracle.host_flows(trace, host.rows)
            compared += len(ranked)
    return compared


class TestSharedTunings:
    """The three tunings of one trace find lines and hosts once."""

    @pytest.mark.parametrize("engine", ["numpy", "python"])
    def test_shared_planes_match_a_fresh_run_per_tuning(self, scan_trace, engine):
        trace, _ = scan_trace
        fresh = {
            tuning: HoughDetector(tuning=tuning, engine=engine).analyze(
                trace, planes=PlaneCache(engine, enabled=False)
            )
            for tuning in HOUGH_TUNINGS
        }
        assert any(fresh.values())
        shared = PlaneCache(engine)
        # The most conservative tuning first: the sequence must grow
        # for the tunings after it.
        for tuning in reversed(list(HOUGH_TUNINGS)):
            alarms = HoughDetector(tuning=tuning, engine=engine).analyze(
                trace, planes=shared
            )
            assert alarms == fresh[tuning]

    def test_engines_agree_on_every_tuning(self, scan_trace):
        trace, _ = scan_trace
        for tuning in HOUGH_TUNINGS:
            assert HoughDetector(tuning=tuning, engine="numpy").analyze(
                trace
            ) == HoughDetector(tuning=tuning, engine="python").analyze(trace)

    def test_engines_rank_and_measure_hosts_alike(self, scan_trace, short_day):
        """Every line's ranked hosts, their windows, packet counts and
        flows, read through the pixel index and value codes on both
        engines, against the per-packet probes of
        ``tests/hough_oracle.py``.  On the short day some hosts send a
        packet at exactly the end of their line's window, which
        ``[t0, t1)`` leaves out."""
        for engine in ("numpy", "python"):
            for trace in (scan_trace[0], short_day):
                assert _check_lines_against_probe(trace, engine) > 0

    @pytest.mark.parametrize("engine", ["numpy", "python"])
    def test_host_window_is_half_open(self, engine):
        """A host packet at exactly ``t1`` counts towards ``total`` but
        not ``inside``."""
        from repro.detectors.hough import LineHost
        from tests.conftest import make_packet

        # 30 s over 48 pixels: 0.625 s a pixel, so the line's pixel 16
        # is [10.0, 10.625) exactly.
        host = 0x0A0000AA
        trace = Trace(
            [make_packet(time=0.0)]
            + [make_packet(time=t, src=host) for t in (10.0, 10.3, 10.625, 20.0)]
            + [make_packet(time=30.0)]
        )
        detector = HoughDetector(engine=engine)
        rows = np.array([1, 2])
        assert [trace[i].time for i in rows] == [10.0, 10.3]
        extent = detector._host_extent(
            trace, "src", PlaneCache(engine), LineHost(host, rows)
        )
        assert extent == (10.0, 10.625, 4, 2)

    def test_alarm_flows_hold_the_hosts_line_packets(self, scan_trace):
        """Each alarm's flows share its host and carry at least its
        ``score`` packets (the host's packets on the line) inside
        ``[t0, t1)``."""
        trace, _ = scan_trace
        table = trace.table
        for tuning in HOUGH_TUNINGS:
            alarms = HoughDetector(tuning=tuning).analyze(trace)
            assert alarms
            for alarm in alarms:
                hosts = [
                    {getattr(key, field) for key in alarm.flow_keys}
                    for field in ("src", "dst")
                ]
                assert min(len(h) for h in hosts) == 1
                assert len(alarm.flow_keys) <= alarm.score
                inside = (table.time >= alarm.t0) & (table.time < alarm.t1)
                on_flows = np.zeros(len(table), dtype=bool)
                for key in alarm.flow_keys:
                    on_flows |= (
                        (table.src == key.src)
                        & (table.dst == key.dst)
                        & (table.sport == key.sport)
                        & (table.dport == key.dport)
                        & (table.proto == key.proto)
                    )
                assert int((inside & on_flows).sum()) >= alarm.score

    def test_each_round_and_ranking_runs_once(self, scan_trace, monkeypatch):
        trace, _ = scan_trace
        counts = {"rounds": 0, "rankings": 0}
        vote = LineSequence._vote
        rank = hough_module.rank_line_hosts

        def counting_vote(self):
            counts["rounds"] += 1
            vote(self)

        def counting_rank(*args):
            counts["rankings"] += 1
            return rank(*args)

        monkeypatch.setattr(LineSequence, "_vote", counting_vote)
        monkeypatch.setattr(hough_module, "rank_line_hosts", counting_rank)
        HoughDetector(tuning="sensitive").analyze(
            trace, planes=PlaneCache("numpy")
        )
        alone = dict(counts)
        counts.update(rounds=0, rankings=0)
        shared = PlaneCache("numpy")
        for tuning in HOUGH_TUNINGS:
            HoughDetector(tuning=tuning).analyze(trace, planes=shared)
        # The sensitive tuning reads furthest; its siblings add nothing.
        assert alone["rankings"] > 0
        assert counts == alone


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
