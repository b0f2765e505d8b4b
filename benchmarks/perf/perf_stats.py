"""Measurement helpers: percentiles, open-loop load, host speed, memory.

Standard library plus NumPy (for the host-speed reference), so
``run.py`` and ``compare.py`` can use it without importing the system
under test.
"""

from __future__ import annotations

import os
import platform
import select
import statistics
import struct
import sys
import time
from pathlib import Path
from typing import Callable, Optional, Sequence

#: Percentiles tried, highest first, when reporting a timing's tail.
TAIL_LADDER = (99.9, 99.0, 95.0, 90.0, 75.0, 50.0)

#: The open-loop generator spins (instead of sleeping) this close to a
#: request's due time.
SPIN_S = 0.001


def tail_percentile(samples: Sequence[float]) -> Optional[tuple[float, float]]:
    """``(pct, value)`` for the highest percentile with >= 10 samples above.

    ``None`` when fewer than 20 samples exist (not even the median has
    ten samples beyond it).
    """
    ordered = sorted(samples)
    n = len(ordered)
    for pct in TAIL_LADDER:
        rank = max(int(-(-pct * n // 100)), 1)
        if n - rank >= 10:
            return pct, ordered[rank - 1]
    return None


def summarize(samples: Sequence[float]) -> dict:
    """Median, tail (see :func:`tail_percentile`) and count of a timing."""
    if not samples:
        return {"n": 0}
    tail = tail_percentile(samples)
    out = {"n": len(samples), "median": statistics.median(samples)}
    if tail is not None:
        out["tail_pct"], out["tail"] = tail
    return out


def quartiles(values: Sequence[float]) -> tuple[float, float, float]:
    """(q1, median, q3) as ``statistics.quantiles(values, n=4)`` gives them."""
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def wait_until(due: float) -> None:
    """Sleep until just before ``due`` (``perf_counter`` time), then spin:
    an oversleeping load generator would add its wake-up delay to latency."""
    ahead = due - time.perf_counter()
    if ahead > SPIN_S:
        time.sleep(ahead - SPIN_S)
    while time.perf_counter() < due:
        pass


def open_loop(
    rate: float,
    duration: float,
    send: Callable[[int], None],
    clock: Callable[[], float] = time.perf_counter,
    wait: Callable[[float], None] = wait_until,
) -> dict:
    """Issue ``send(i)`` at ``rate`` per second for ``duration`` seconds.

    Request ``i`` is due at ``start + i / rate`` whatever happened to
    earlier requests, so a stall delays every later request and the
    delay counts: latency runs from the *due* time to completion, and
    ``late`` records how far behind schedule each send started.
    """
    start = clock()
    n = max(int(rate * duration), 1)
    latencies: list[float] = []
    late: list[float] = []
    for i in range(n):
        due = start + i / rate
        wait(due)
        sent = clock()
        send(i)
        latencies.append(clock() - due)
        late.append(sent - due)
    return {"latency": latencies, "late": late, "wall": clock() - start}


#: Seconds :meth:`HostProbe.probe` takes on a quiet host of the kind the
#: baseline was measured on; every reported time is scaled to it.
REFERENCE_S = 0.030


class HostProbe:
    """Times a fixed reference computation on each of ``cpus`` in turn
    (default: every CPU the process may run on).

    The measuring host is a shared VM whose speed drifts by up to 1.6x
    within seconds to minutes, in CPU time as well as wall time
    (neighbours on the same cores slow the work itself).  The benchmark
    probes between the stages of every operation (:class:`ScaledTimer`)
    and scales each stage by the probes around it, to its time on a
    host where the probe takes :data:`REFERENCE_S`.

    The reference is half interpreter work (``struct`` records counted
    into a dict) and half random reads from a 64 MB array, timed about
    equally long.  Of the parts tried, these two together tracked the
    workloads' own slowdowns best; in-cache NumPy sorts did worst
    (README, "Host speed").  It never changes, so it measures the host
    and not the code under test.
    """

    def __init__(self, cpus: Optional[Sequence[int]] = None) -> None:
        import numpy as np

        rng = np.random.default_rng(20100601)
        self._records = rng.integers(0, 1 << 32, 4 * 40_000, dtype=np.uint32).tobytes()
        self._table = rng.integers(0, 1 << 40, 8_000_000)
        self._index = rng.integers(0, len(self._table), 1_400_000)
        self.cpus = sorted(cpus if cpus is not None else os.sched_getaffinity(0))
        #: Every probe of this process, in seconds.
        self.samples: list[float] = []

    def _reference(self) -> float:
        started = time.perf_counter()
        counts: dict[int, int] = {}
        for a, b, _c, _d in struct.iter_unpack("<IIII", self._records):
            key = (a ^ b) & 1023
            counts[key] = counts.get(key, 0) + 1
        self._table[self._index].sum()
        return time.perf_counter() - started

    def probe(self) -> float:
        """Mean seconds of the reference over the CPUs (each pinned)."""
        affinity = os.sched_getaffinity(0)
        times = []
        try:
            for cpu in self.cpus:
                os.sched_setaffinity(0, {cpu})
                times.append(self._reference())
        finally:
            os.sched_setaffinity(0, affinity)
        value = statistics.fmean(times)
        self.samples.append(value)
        return value

    def serve(self, requests: int, replies: int, alive: Callable[[], bool],
              deadline: float) -> None:
        """Answer :class:`ProbeClient` requests arriving on file
        descriptor ``requests`` until the client closes it or ``alive()``
        turns false; raises ``TimeoutError`` at ``deadline``
        (``time.monotonic``)."""
        while True:
            left = deadline - time.monotonic()
            if left <= 0:
                raise TimeoutError("probe client did not finish in time")
            ready, _, _ = select.select([requests], [], [], min(left, 0.5))
            if not ready:
                if not alive():
                    return
                continue
            if not os.read(requests, 1):
                return
            os.write(replies, f"{self.probe()!r}\n".encode())


class ProbeClient:
    """:class:`HostProbe`'s interface in a workload process: the probe
    runs in the process that started it (``run.py``), so the reference's
    memory and caches stay out of the workload's."""

    def __init__(self, replies: int, requests: int) -> None:
        self._replies = os.fdopen(replies, "rb")
        self._requests = requests
        self.samples: list[float] = []

    def probe(self) -> float:
        os.write(self._requests, b"p")
        value = float(self._replies.readline())
        self.samples.append(value)
        return value


class ScaledTimer:
    """Stage times at the reference host speed (``host`` is a
    :class:`HostProbe` or a :class:`ProbeClient`).

    :meth:`lap` ends a stage: it probes the host and returns the stage's
    wall seconds and those seconds scaled by ``REFERENCE_S`` over the
    mean of the probes before and after the stage.  Probing is not
    counted in any stage; :meth:`restart` starts a stage without probing
    (the last probe still stands).
    """

    def __init__(self, host) -> None:
        self.host = host
        self._probe = host.probe()
        self._start = time.perf_counter()

    def restart(self) -> None:
        self._start = time.perf_counter()

    def lap(self) -> tuple[float, float]:
        wall = time.perf_counter() - self._start
        probe = self.host.probe()
        scaled = wall * REFERENCE_S / ((self._probe + probe) / 2)
        self._probe = probe
        self._start = time.perf_counter()
        return wall, scaled


def host_record() -> dict:
    """CPU count, interpreter and library versions, load average."""
    record = {
        "nproc": os.cpu_count(),
        "python": sys.version.split()[0],
        "platform": platform.platform(),
        "loadavg": list(os.getloadavg()),
    }
    try:
        import numpy

        record["numpy"] = numpy.__version__
    except ImportError:  # pragma: no cover - numpy ships with the repo
        record["numpy"] = None
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                record["cpu"] = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass
    return record


def _status_kb(pid: int, field: str) -> int:
    try:
        for line in Path(f"/proc/{pid}/status").read_text().splitlines():
            if line.startswith(field + ":"):
                return int(line.split()[1])
    except (OSError, ValueError):
        pass
    return 0


def descendants(pid: int) -> list[int]:
    """Live descendant process ids of ``pid`` (Linux ``/proc`` walk)."""
    children: dict[int, list[int]] = {}
    for entry in Path("/proc").iterdir():
        if not entry.name.isdigit():
            continue
        try:
            fields = (entry / "stat").read_text().rsplit(")", 1)[1].split()
        except OSError:
            continue
        children.setdefault(int(fields[1]), []).append(int(entry.name))
    found, frontier = [], [pid]
    while frontier:
        kids = children.get(frontier.pop(), [])
        found.extend(kids)
        frontier.extend(kids)
    return found


def peak_rss_mb(pid: int) -> float:
    """Peak resident set (``VmHWM``) of ``pid`` plus its live descendants."""
    pids = [pid, *descendants(pid)]
    return sum(_status_kb(p, "VmHWM") for p in pids) / 1024.0
