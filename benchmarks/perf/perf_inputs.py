"""Seeded benchmark inputs: the repo's synthetic traffic written as pcaps.

The traffic comes from ``repro.mawi``, the generator the CLI and the
tests use: the busy day is one ``generate_trace`` call, the archive
days are ``SyntheticArchive`` days, each written with ``write_pcap``.
It is drawn once from the fixed :data:`CORPUS` seed and cached as the
*base* inputs, whichever commit later reads them.

The benchmark's ``--seed`` moves every trace's capture start within its
day: :func:`ensure_inputs` copies the base pcaps with their timestamps
shifted (well under a second, so every run can make its own).  Step 1
cost varies by about 30% between independently drawn traces of these
sizes (KL and Hough work follows the alarms the traffic happens to
raise), which would swamp the benchmark's bounds; so runs with
different seeds label the same packets at different times and ask the
serving daemon the same queries in a different order.  Every file's
sha256 goes into the results, so a parent/change comparison can show
that both sides labeled the same bytes.
"""

from __future__ import annotations

import datetime
import hashlib
import json
import os
import struct
from dataclasses import asdict, dataclass
from pathlib import Path

import numpy as np

#: Seed of the traffic itself (see the module docstring).
CORPUS = 2010

#: The busy day every single-trace workload labels: the Sasser era at a
#: background rate of 200 flows/s (about 7x the era's), as on the real
#: 150 Mbps link, with anomaly intensities scaled to match.
DAY_DATE = "2005-06-01"
DAY_FLOW_RATE = 200.0

#: Archive days (serving preloads 8 of them and keeps a 9th live).
ARCHIVE_DAYS = 12

_PCAP_HEADER = 24
_RECORD_HEADER = 16


def archive_dates() -> list[str]:
    """Dates 31 weeks apart from 2001-01-01: every era appears."""
    start = datetime.date(2001, 1, 1)
    return [
        (start + datetime.timedelta(weeks=31 * i)).isoformat()
        for i in range(ARCHIVE_DAYS)
    ]


@dataclass(frozen=True)
class Sizes:
    """Input durations and stream geometry of one benchmark scale.

    Scale 1 labels a 120 s busy day (~1.75e5 packets) and 12 archive
    days of 30 s; scale 7.5 is the 15-minute, ~1.2e6-packet MAWI day
    with 60 s / 30 s stream windows.
    """

    day_seconds: float
    archive_seconds: float
    window: float
    hop: float

    @classmethod
    def at(cls, scale: float) -> "Sizes":
        return cls(
            day_seconds=round(120.0 * scale, 3),
            archive_seconds=round(30.0 * scale, 3),
            window=round(8.0 * scale, 3),
            hop=round(4.0 * scale, 3),
        )


def capture_start_us(date: str, seed: int) -> int:
    """Capture start of ``date``'s trace under ``seed`` in microseconds
    since the epoch: 10:00 UTC plus a seed-drawn offset below one hour."""
    midnight = datetime.datetime.fromisoformat(date).replace(
        tzinfo=datetime.timezone.utc
    )
    offset_us = (seed * 2654435761) % (3600 * 1_000_000)
    return (int(midnight.timestamp()) + 36000) * 1_000_000 + offset_us


# -- the base traffic -----------------------------------------------------


def busy_day(duration: float):
    """``(trace, events)`` of the busy day, times from 0."""
    from repro.mawi.anomalies import AnomalySpec
    from repro.mawi.events import era_for_date
    from repro.mawi.generator import BackgroundProfile, WorkloadSpec, generate_trace

    era = era_for_date(DAY_DATE)
    digest = hashlib.sha256(f"perf:{CORPUS}:{DAY_DATE}".encode()).digest()
    seed = int.from_bytes(digest[:8], "big") >> 1
    rng = np.random.default_rng(seed)
    kinds = list(era.anomaly_weights)
    weights = np.array([era.anomaly_weights[k] for k in kinds], dtype=float)
    lo, hi = era.anomalies_per_trace
    anomalies = [
        AnomalySpec(
            kind=str(rng.choice(kinds, p=weights / weights.sum())),
            intensity=float(rng.uniform(0.5, 1.5)) * DAY_FLOW_RATE / era.flow_rate,
        )
        for _ in range(int(rng.integers(lo, hi + 1)))
    ]
    spec = WorkloadSpec(
        seed=seed,
        duration=duration,
        background=BackgroundProfile(flow_rate=DAY_FLOW_RATE, p2p_weight=era.p2p_weight),
        anomalies=anomalies,
        name="day",
        date=DAY_DATE,
        link_mbps=150.0,
    )
    return generate_trace(spec)


def archive_day(date: str, duration: float):
    """``(trace, events)`` of one :class:`SyntheticArchive` day."""
    from repro.mawi.archive import SyntheticArchive

    day = SyntheticArchive(seed=CORPUS, trace_duration=duration).day(date)
    return day.trace, day.events


def _write_atomic(path: Path, write) -> None:
    tmp = path.with_name(f".{path.name}.{os.getpid()}.tmp")
    write(str(tmp))
    os.replace(tmp, path)


def ensure_base(root: Path, sizes: Sizes) -> dict:
    """Generate (once) the base pcaps and ground truth, times from 0.

    Returns ``{name: (date, pcap path, truth path)}`` for the day and
    every archive day.
    """
    from repro.net.pcap import write_pcap

    directory = Path(root) / (
        f"base{CORPUS}-d{sizes.day_seconds:g}-a{sizes.archive_seconds:g}"
    )
    directory.mkdir(parents=True, exist_ok=True)
    makers = {"day": (DAY_DATE, lambda: busy_day(sizes.day_seconds))}
    for date in archive_dates():
        makers[f"archive-{date}"] = (
            date, lambda date=date: archive_day(date, sizes.archive_seconds)
        )
    base = {}
    for name, (date, make) in makers.items():
        pcap = directory / f"{name}.pcap"
        truth = directory / f"{name}.truth.json"
        if not (pcap.exists() and truth.exists()):
            trace, events = make()
            _write_atomic(pcap, lambda tmp: write_pcap(trace, tmp))
            payload = {
                "date": date,
                "packets": len(trace),
                "events": [asdict(event) for event in events],
            }
            _write_atomic(truth, lambda tmp: Path(tmp).write_text(json.dumps(payload, indent=1)))
        base[name] = (date, pcap, truth)
    return base


# -- per-seed copies ------------------------------------------------------


def shift_pcap(src: Path, dst: Path, shift_us: int) -> int:
    """Copy pcap ``src`` to ``dst`` with every timestamp ``shift_us``
    later; returns the record count.

    Records written by ``write_pcap`` are 4-byte aligned (raw IPv4
    headers of 28 or 40 bytes), so the two timestamp words of every
    record are rewritten in one vectorized step.
    """
    data = bytearray(Path(src).read_bytes())
    offsets = []
    pos, end = _PCAP_HEADER, len(data)
    while pos < end:
        offsets.append(pos)
        pos += _RECORD_HEADER + struct.unpack_from("<I", data, pos + 8)[0]
    index = np.array(offsets, dtype=np.int64)
    if pos != end or len(data) % 4 or (index % 4).any():
        raise ValueError(f"{src}: not a 4-byte aligned pcap written by write_pcap")
    words = np.frombuffer(data, dtype="<u4")
    index //= 4
    micros = words[index].astype(np.int64) * 1_000_000 + words[index + 1] + shift_us
    words[index] = micros // 1_000_000
    words[index + 1] = micros % 1_000_000
    _write_atomic(Path(dst), lambda tmp: Path(tmp).write_bytes(data))
    return len(offsets)


def shift_truth(src: Path, dst: Path, shift_us: int) -> dict:
    """Copy ground-truth JSON ``src`` to ``dst`` with every time moved."""
    payload = json.loads(Path(src).read_text())
    shift = shift_us / 1e6
    for event in payload["events"]:
        for item in (event, *event["filters"]):
            for key in ("t0", "t1"):
                if item[key] is not None:
                    item[key] += shift
    _write_atomic(Path(dst), lambda tmp: Path(tmp).write_text(json.dumps(payload, indent=1)))
    return payload


def ensure_inputs(root: Path, seed: int, sizes: Sizes, dest: Path) -> dict:
    """One seed's input files in ``dest``, made from the cached base.

    Returns ``{"day": {...}, "archive": [{...}, ...]}`` where each entry
    names a pcap, its ground-truth JSON, its date and packet count.
    """
    dest = Path(dest)
    dest.mkdir(parents=True, exist_ok=True)
    inputs: dict = {"day": None, "archive": []}
    for name, (date, pcap, truth) in ensure_base(root, sizes).items():
        shift_us = capture_start_us(date, seed)
        entry = {
            "name": name,
            "date": date,
            "pcap": str(dest / pcap.name),
            "truth": str(dest / truth.name),
            "packets": shift_pcap(pcap, dest / pcap.name, shift_us),
        }
        shift_truth(truth, dest / truth.name, shift_us)
        if name == "day":
            inputs["day"] = entry
        else:
            inputs["archive"].append(entry)
    return inputs


def sha256_file(path: Path) -> str:
    digest = hashlib.sha256()
    with open(path, "rb") as handle:
        for block in iter(lambda: handle.read(1 << 20), b""):
            digest.update(block)
    return digest.hexdigest()


def input_hashes(inputs: dict) -> dict:
    """sha256 of every input file, keyed by file name."""
    hashes = {}
    for entry in [inputs["day"], *inputs["archive"]]:
        for key in ("pcap", "truth"):
            path = Path(entry[key])
            hashes[path.name] = sha256_file(path)
    return hashes


def load_events(truth_path: str) -> list:
    """Ground-truth events as ``repro`` ``GroundTruthEvent`` objects."""
    from repro.mawi.anomalies import GroundTruthEvent
    from repro.net.filters import FeatureFilter

    payload = json.loads(Path(truth_path).read_text())
    return [
        GroundTruthEvent(**{**e, "filters": [FeatureFilter(**f) for f in e["filters"]]})
        for e in payload["events"]
    ]
