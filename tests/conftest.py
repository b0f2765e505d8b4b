"""Shared fixtures.

Expensive artifacts (archive day, ensemble alarms, a full pipeline run)
are session-scoped: many test modules inspect the same run from
different angles, which keeps the suite fast without sacrificing
integration coverage.
"""

from __future__ import annotations

import dataclasses

import numpy as np
import pytest

from repro.detectors.registry import default_ensemble, run_ensemble
from repro.labeling.mawilab import MAWILabPipeline
from repro.mawi.archive import SyntheticArchive
from repro.net.packet import (
    ACK,
    PROTO_ICMP,
    PROTO_TCP,
    PROTO_UDP,
    Packet,
)
from repro.net.trace import Trace


def make_packet(
    time=0.0,
    src=0x0A000001,
    dst=0x0A000002,
    sport=1234,
    dport=80,
    proto=PROTO_TCP,
    size=100,
    tcp_flags=ACK,
    icmp_type=0,
) -> Packet:
    """Packet with sensible defaults for unit tests."""
    return Packet(
        time=time,
        src=src,
        dst=dst,
        sport=sport,
        dport=dport,
        proto=proto,
        size=size,
        tcp_flags=tcp_flags if proto == PROTO_TCP else 0,
        icmp_type=icmp_type,
    )


def assert_alarms_match_oracle(got, expected, rel: float = 1e-12) -> None:
    """Alarms equal under ``==`` but for ``score``, and each score
    within a relative ``rel`` of its reference's: an oracle that sums
    in another order than the detector agrees to the last few ulps."""
    assert [dataclasses.replace(a, score=0.0) for a in got] == [
        dataclasses.replace(a, score=0.0) for a in expected
    ]
    for a, e in zip(got, expected):
        assert a.score == pytest.approx(e.score, rel=rel, abs=0.0)


def dense_histogram(bins: list[list[int]]):
    """A dense histogram of per-bin value lists (each in packet order),
    and each bin's member rows: the planes the KL and entropy rankings
    read, for values drawn as plain lists."""
    from repro.detectors.features import BinnedHistogram

    column = [value for values in bins for value in values]
    values = np.array(sorted(set(column)), dtype=np.uint16)
    codes = np.searchsorted(values, column).astype(np.int64)
    counts = np.zeros((len(bins), len(values)), dtype=np.int64)
    members, start = [], 0
    for b, bin_values in enumerate(bins):
        rows = np.arange(start, start + len(bin_values))
        start += len(bin_values)
        np.add.at(counts[b], codes[rows], 1)
        members.append(rows)
    return BinnedHistogram("dport", values, codes, counts), members


@pytest.fixture
def tiny_trace() -> Trace:
    """Ten packets over two flows plus one ICMP packet."""
    packets = []
    for i in range(5):
        packets.append(
            make_packet(time=float(i), sport=1111, dport=80)
        )
    for i in range(4):
        packets.append(
            make_packet(
                time=float(i) + 0.5,
                src=0x0A000003,
                dst=0x0A000004,
                sport=2222,
                dport=53,
                proto=PROTO_UDP,
            )
        )
    packets.append(
        make_packet(
            time=2.25, src=0x0A000005, dst=0x0A000006, sport=0, dport=0,
            proto=PROTO_ICMP, icmp_type=8,
        )
    )
    return Trace(packets)


@pytest.fixture(scope="session")
def archive():
    return SyntheticArchive(seed=42, trace_duration=30.0)


@pytest.fixture(scope="session")
def archive_day(archive):
    """One deterministic archive day with injected anomalies."""
    return archive.day("2004-06-01")


@pytest.fixture(scope="session")
def benchmark_day():
    """The benchmark's archive day 2005-02-28 (``benchmarks/perf``'s
    corpus seed), on which the KL and entropy tunings raise alarms in
    several bins."""
    return SyntheticArchive(seed=2010, trace_duration=30.0).day("2005-02-28")


@pytest.fixture(scope="session")
def ensemble():
    return default_ensemble()


@pytest.fixture(scope="session")
def day_alarms(archive_day, ensemble):
    return run_ensemble(archive_day.trace, ensemble)


@pytest.fixture(scope="session")
def pipeline_result(archive_day):
    pipeline = MAWILabPipeline()
    return pipeline.run(archive_day.trace)
