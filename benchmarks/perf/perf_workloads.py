"""The benchmark's four workloads, each run in a fresh child process.

    python perf_workloads.py run CONFIG.json     # measure; result to config["result"]
    python perf_workloads.py setup CONFIG.json   # build the workload's session, print "ready"

``run.py`` writes the config, spawns these children and reports.  A
workload calls only the system's public entry points and times them
from outside; with ``config["trace"]`` it runs twice, untraced then
with :mod:`perf_spans` wrappers installed, and also reports per-layer
metrics, the tracing overhead and whether both halves labeled alike.

Every workload repeats one operation (a pass, a round, a feed), timed
in stages with the host's speed probed between them
(:class:`perf_stats.ScaledTimer`); the reported times are scaled to the
reference host speed, and the unscaled throughput is kept under
``raw``.
"""

from __future__ import annotations

import datetime
import hashlib
import http.client
import itertools
import json
import os
import random
import re
import shutil
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path
from types import SimpleNamespace

import numpy as np

import perf_inputs
import perf_spans
import perf_stats

clock = time.perf_counter
BENCH_DIR = Path(__file__).resolve().parent

CHUNK_PACKETS = 8192  # iter_pcap batch size of the stream workload
STREAM_SHARE = 0.5  # the stream workload labels the first half of the day
CHUNK_ROWS = 2000  # packets per HTTP push
PRELOAD_DAYS = 8  # archive days the serve workload persists before querying
QUERY_RATE = 500.0  # serve query phase, requests per second (open loop)
QUERY_SHARE = 0.2  # share of the serve workload's time spent querying
INGEST_PARTS = 4  # serve ingest: each feed carries the day's first quarter
#: The serve daemon's memory grows with every feed it has labeled (each
#: stays in the live index), so its peak is read after this many feeds.
RSS_FEEDS = 4
LATE_MS = 1.0  # a query sent later than this after its due time is "late"

#: gt_recall of the day workload's labels, per scale.  Time shifts (the
#: seed) do not change it; a change that does has changed which injected
#: anomalies the published labels cover.  At a scale without an entry
#: the check is reported as skipped.
EXPECTED_GT_RECALL = {1.0: 0.5}


class Outcome:
    """Operations attempted and failed; output checks count as operations."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failures: list[str] = []
        #: Checks that had nothing to compare against (reported, not run).
        self.skipped: list[str] = []

    def op(self, ok: bool, what: str) -> None:
        self.attempted += 1
        if not ok:
            self.failures.append(what)


class Context:
    """What one child knows: config, sizes, inputs, work dir, recorder."""

    def __init__(self, config: dict) -> None:
        self.config = config
        self.sizes = perf_inputs.Sizes(**config["sizes"])
        self.inputs = config["inputs"]
        self.work = Path(config["work"])
        self.nproc = config["nproc"]
        self.recorder = None
        self.baseline = False
        self._timer = None
        self._stage = 0
        #: Measured (timed) intervals in perf_counter ns.
        self.intervals: list[tuple[int, int]] = []

    @property
    def spans_dir(self) -> Path:
        return self.work / "spans"

    def fresh(self, name: str) -> Path:
        path = self.work / name
        shutil.rmtree(path, ignore_errors=True)
        path.mkdir(parents=True)
        return path

    def begin(self) -> None:
        """Start a measured stage (the first call probes the host)."""
        if self._timer is None:
            # run.py probes the CPUs this process runs on (it pins the
            # single-process workloads to one); run in-process, the
            # child probes them itself.
            fds = self.config.get("probe_fds")
            host = perf_stats.ProbeClient(*fds) if fds else perf_stats.HostProbe()
            self._timer = perf_stats.ScaledTimer(host)
        self._timer.restart()
        self._stage = time.perf_counter_ns()

    def lap(self) -> tuple[float, float]:
        """End the measured stage and start the next one: ``(wall,
        scaled)`` seconds of the stage (:meth:`perf_stats.ScaledTimer.lap`).
        The probe in between is not measured."""
        self.intervals.append((self._stage, time.perf_counter_ns()))
        stage = self._timer.lap()
        self._stage = time.perf_counter_ns()
        return stage

    @property
    def probes(self) -> list[float]:
        """Every host probe of this workload, in seconds."""
        return self._timer.host.samples if self._timer else []

    def archive_fingerprint(self) -> str:
        return f"perf-{perf_inputs.CORPUS}-{self.config['seed']}"


def repeat(seconds: float, op) -> list[dict]:
    """Run ``op`` back to back for about ``seconds``: no run starts that
    would, at the pace of the last one, end after the deadline; at
    least one runs."""
    deadline = clock() + seconds
    runs = []
    while True:
        started = clock()
        runs.append(op())
        if clock() + (clock() - started) > deadline:
            return runs


def totals(*laps: tuple[float, float]) -> dict:
    """``wall`` and ``scaled`` seconds of an operation made of ``laps``."""
    return {"wall": sum(w for w, _ in laps), "scaled": sum(s for _, s in laps)}


def sha256_text(*texts: str) -> str:
    digest = hashlib.sha256()
    for text in texts:
        digest.update(hashlib.sha256(text.encode()).digest())
    return digest.hexdigest()


def _head(trace, fraction: float, name: str):
    """A trace of the first ``fraction`` of ``trace``'s packets (warm-up)."""
    from repro.net.trace import Trace, TraceMetadata

    n = max(int(len(trace) * fraction), 64)
    return Trace.from_table(trace.table.take(np.arange(n)), TraceMetadata(name=name))


def _report(ctx: Context, runs: list[dict], peak: float, sha: str, **extra) -> dict:
    """The result every workload returns.

    Each of ``runs`` has its ``packets``, ``wall`` and ``scaled``
    seconds and its (scaled) ``latency`` samples.  Throughput is the
    median run's packets per scaled second, latency the median of the
    runs' median latencies; the unscaled throughput is kept under
    ``raw``.
    """
    report = {
        "throughput_pps": statistics.median(r["packets"] / r["scaled"] for r in runs),
        "rounds": len(runs),
        "latency_s": [x for r in runs for x in r["latency"]],
        "latency_p50_s": statistics.median(statistics.median(r["latency"]) for r in runs),
        "peak_rss_mb": peak,
        "labels_sha256": sha,
        "raw": {
            "throughput_pps": statistics.median(r["packets"] / r["wall"] for r in runs),
            "walls": [r["wall"] for r in runs],
            "scaled": [r["scaled"] for r in runs],
        },
        "probes_s": ctx.probes,
    }
    report.update(extra)
    return report


# -- day: one busy trace, pcap to CSV -------------------------------------


def run_day(ctx: Context, seconds: float, out: Outcome) -> dict:
    import repro.net.pcap as pcap
    from repro.eval.groundtruth import score_pipeline_result
    from repro.session import LabelingSession

    entry = ctx.inputs["day"]
    last = {}
    with LabelingSession(workers=1) as session:
        session.label_trace(_head(pcap.read_pcap(entry["pcap"]), 0.05, "warm"))

        def op():
            ctx.begin()
            trace = pcap.read_pcap(entry["pcap"], name="day")
            read = ctx.lap()
            result = session.label_trace(trace)
            csv = session.export(result.labels)
            label = ctx.lap()
            last["result"] = result
            run = totals(read, label)
            return {**run, "packets": entry["packets"], "latency": [run["scaled"]],
                    "read": read[1], "label": label[1], "csv": csv}

        passes = repeat(seconds, op)
        peak = perf_stats.peak_rss_mb(os.getpid())
    csvs = [p["csv"] for p in passes]
    for csv in csvs:
        out.op(csv.count("\n") > 1, "day.csv_nonempty")
    out.op(len(set(csvs)) == 1, "day.csv_deterministic")
    recall = score_pipeline_result(
        last["result"], perf_inputs.load_events(entry["truth"])
    ).recall
    expected = EXPECTED_GT_RECALL.get(ctx.config["scale"])
    if expected is None:
        out.skipped.append(f"day.gt_recall: none recorded at scale {ctx.config['scale']:g}")
    else:
        out.op(abs(recall - expected) < 1e-9, f"day.gt_recall {recall} != {expected}")
    return _report(
        ctx, passes, peak, sha256_text(csvs[-1]),
        timings={stage: [p[stage] for p in passes] for stage in ("read", "label")},
        info={"gt_recall": recall, "packets": entry["packets"]},
    )


# -- stream: the same pcap through the sliding-window pipeline -----------


def run_stream(ctx: Context, seconds: float, out: Outcome) -> dict:
    import repro.net.pcap as pcap
    from repro.session import LabelingSession

    entry, sizes = ctx.inputs["day"], ctx.sizes
    n_chunks = -(-int(STREAM_SHARE * entry["packets"]) // CHUNK_PACKETS)
    with LabelingSession(workers=1) as session:
        warm = session.streaming_pipeline(sizes.window, sizes.hop)
        chunks = pcap.iter_pcap(entry["pcap"], chunk_packets=CHUNK_PACKETS)
        for _ in warm.process(itertools.islice(chunks, 2)):
            pass
        chunks.close()
        warm.close()

        def op():
            pipeline = session.streaming_pipeline(sizes.window, sizes.hop)
            laps, handed, packets = [], [0.0], [0]

            def timed_chunks():
                # One stage per chunk: the probe between chunks runs
                # while the pipeline waits for its next input.
                chunks = pcap.iter_pcap(entry["pcap"], chunk_packets=CHUNK_PACKETS)
                try:
                    for chunk in itertools.islice(chunks, n_chunks):
                        if packets[0]:
                            laps.append(ctx.lap())
                        packets[0] += len(chunk)
                        handed[0] = clock()
                        yield chunk
                finally:
                    chunks.close()

            windows = []
            ctx.begin()
            try:
                # A window's latency runs from handing in the chunk that
                # closed it to its result being yielded.
                for _result in pipeline.process(timed_chunks()):
                    windows.append((len(laps), clock() - handed[0]))
                labels = pipeline.merged_labels()
            finally:
                pipeline.close()
            laps.append(ctx.lap())
            out.op(len(windows) > 0, "stream.windows")
            factors = [scaled / wall for wall, scaled in laps]
            return {**totals(*laps), "packets": packets[0],
                    "latency": [x * factors[i] for i, x in windows],
                    "peak": pipeline.ring.peak_packets, "csv": session.export(labels)}

        passes = repeat(seconds, op)
        peak = perf_stats.peak_rss_mb(os.getpid())
    csvs = [p["csv"] for p in passes]
    for csv in csvs:
        out.op(csv.count("\n") > 1, "stream.csv_nonempty")
    out.op(len(set(csvs)) == 1, "stream.csv_deterministic")
    return _report(
        ctx, passes, peak, sha256_text(csvs[-1]),
        timings={"pass": [p["scaled"] for p in passes]},
        layer={"stream.peak_ring_packets": max(p["peak"] for p in passes)},
    )


# -- archive: pooled labeling (A), scheduler re-ingest (B), recompute (C) --


class TableArchive:
    """Archive adapter over pre-read tables: every ``day`` is a fresh view."""

    def __init__(self, fingerprint: str, tables: dict) -> None:
        self._fingerprint = fingerprint
        self.tables = tables

    def fingerprint(self) -> str:
        return self._fingerprint

    def day(self, date: str):
        from repro.net.trace import Trace, TraceMetadata

        trace = Trace.from_table(self.tables[date], TraceMetadata(name=date, date=date))
        return SimpleNamespace(date=date, trace=trace, events=[])


def _archive_session(ctx: Context, workers: int):
    """A pooled session (shared-memory transport when ``workers > 1``)."""
    from repro.session import LabelingSession

    return LabelingSession(
        workers=workers,
        cache_dir=str(ctx.work / "archive-cache"),
        out_dir=str(ctx.work / "archive-out"),
    )


def _archive_round(ctx: Context, session, entries: list, out: Outcome,
                   relabel: bool = True) -> dict:
    """One round into an empty alarm cache, output directory, label
    database and warehouse: A reads the pcaps and labels every day
    through the pool (filling the cache); B has an ``ArchiveScheduler``
    re-ingest every day from the cache into the database and the
    warehouse; C recomputes the warehouse under another strategy.
    A, B and C each label every packet once."""
    import repro.net.pcap as pcap
    from repro.labeling.database import LabelDatabase
    from repro.labeling.warehouse import Warehouse
    from repro.runner.config import PipelineConfig
    from repro.serve.scheduler import ArchiveScheduler

    cache = ctx.fresh("archive-cache")
    ctx.fresh("archive-out")
    db_root, wh_root = ctx.fresh("archive-db"), ctx.fresh("archive-wh")
    dates = [e["date"] for e in entries]
    packets = sum(e["packets"] for e in entries)
    profile: dict = {}
    ctx.begin()
    traces = [pcap.read_pcap(e["pcap"], name=e["date"]) for e in entries]
    read = ctx.lap()
    batch = session.label_traces(
        traces,
        fingerprints=[ctx.archive_fingerprint()] * len(traces),
        profile=profile,
    )
    label = ctx.lap()
    for report in batch.reports:
        out.op(report.status == "ok", f"archive.day {report.date}")
    labeled = {r.date: Path(r.csv_path).read_text() for r in batch.reports}
    result = {
        "packets": packets,
        "label": read[1] + label[1],
        "profile": profile,
        # A day's latency is its labeling time in a pool worker.
        "latency": [r.elapsed * label[1] / label[0] for r in batch.reports],
        "csv": {r.date: r.csv_path for r in batch.reports},
        "sha": sha256_text(*(labeled[d] for d in dates)),
    }
    if not relabel:
        return {**result, **totals(read, label)}
    ctx.begin()
    archive = TableArchive(
        ctx.archive_fingerprint(), {t.metadata.name: t.table for t in traces}
    )
    scheduler = ArchiveScheduler(
        archive, dates, LabelDatabase(str(db_root)), session=session,
        cache_dir=str(cache), warehouse=Warehouse(str(wh_root)),
    )
    outcomes = scheduler.run_once()
    reingest = ctx.lap()
    recomputed = Warehouse(str(wh_root)).recompute(
        PipelineConfig(strategy="average"), archive=archive
    )
    recompute = ctx.lap()
    for o in outcomes:
        out.op(o.status == "done" and o.cache_hit, f"archive.reingest {o.date}")
    out.op(
        recomputed.step1_reruns == 0 and len(recomputed.days) == len(dates),
        f"archive.recompute {recomputed.step1_reruns} Step 1 reruns, "
        f"{len(recomputed.days)} days",
    )
    warehouse = Warehouse(str(wh_root))
    for o in outcomes:
        stored = Path(o.csv_path).read_text() if o.csv_path else ""
        exported = warehouse.export_csv(o.date, version=scheduler.warehouse_version)
        out.op(labeled.get(o.date) == stored == exported, f"archive.csv {o.date}")
    warehouse.close()
    return {**result, **totals(read, label, reingest, recompute), "packets": 3 * packets,
            "reingest": reingest[1], "recompute": recompute[1]}


def run_archive(ctx: Context, seconds: float, out: Outcome) -> dict:
    import repro.net.pcap as pcap
    from repro.labeling.mawilab import labels_to_csv

    entries = ctx.inputs["archive"]
    ctx.fresh("archive-cache")
    ctx.fresh("archive-out")
    session = _archive_session(ctx, ctx.nproc)
    try:
        first = pcap.read_pcap(entries[0]["pcap"], name=entries[0]["date"])
        session.label_traces([_head(first, 0.1, "warm-0"), _head(first, 0.1, "warm-1")])
        rounds = repeat(seconds, lambda: _archive_round(ctx, session, entries, out))
        peak = perf_stats.peak_rss_mb(os.getpid())
        serial = labels_to_csv(session.pipeline.run(first).labels)
        pooled = Path(rounds[-1]["csv"][entries[0]["date"]]).read_text()
        out.op(serial == pooled, "archive.pool_matches_serial")
    finally:
        session.close()
    out.op(len({r["sha"] for r in rounds}) == 1, "archive.rounds_identical")
    profile = rounds[-1]["profile"]
    busy = profile.get("attach", 0.0) + profile.get("compute", 0.0)
    layer = {
        "runner.pool.busy_pct": 100.0 * busy / max(profile["workers"] * profile["wall"], 1e-9)
    }
    if ctx.baseline:
        with _archive_session(ctx, 1) as single:
            serial_round = _archive_round(ctx, single, entries, out, relabel=False)
        layer["runner.pool.parallel_speedup"] = serial_round["label"] / statistics.median(
            r["label"] for r in rounds
        )
    return _report(
        ctx, rounds, peak, rounds[-1]["sha"],
        timings={name: [r[name] for r in rounds] for name in ("label", "reingest", "recompute")},
        info={"profile": profile, "packets": sum(e["packets"] for e in entries),
              "days": len(entries)},
        layer=layer,
    )


# -- serve: the daemon over HTTP ------------------------------------------


class Daemon:
    """``repro serve`` as a subprocess (through the span bootstrap if traced)."""

    def __init__(self, proc: subprocess.Popen, port: int, log: Path) -> None:
        self.proc = proc
        self.port = port
        self.log = log

    @classmethod
    def start(cls, work: Path, warehouse_root: Path, spans_dir=None, env=None, timeout=60.0):
        log = work / f"serve-{time.perf_counter_ns()}.log"
        argv = ["serve", "--port", "0", "--warehouse-root", str(warehouse_root)]
        if spans_dir is None:
            cmd = [sys.executable, "-m", "repro.cli", *argv]
        else:
            cmd = [sys.executable, str(BENCH_DIR / "perf_serve_boot.py"), str(spans_dir), *argv]
        with open(log, "w") as handle:
            proc = subprocess.Popen(cmd, stderr=handle, stdout=subprocess.DEVNULL, env=env)
        deadline = clock() + timeout
        while clock() < deadline:
            found = re.search(r"serving on http://[\d.]+:(\d+) ", log.read_text())
            if found:
                daemon = cls(proc, int(found.group(1)), log)
                daemon.wait_healthy(deadline)
                return daemon
            if proc.poll() is not None:
                break
            time.sleep(0.005)
        proc.kill()
        proc.wait()
        raise RuntimeError(f"serve did not start: {log.read_text()[-2000:]}")

    def wait_healthy(self, deadline: float) -> None:
        while clock() < deadline:
            try:
                client = Client(self.port)
                status, _ = client.request("GET", "/health")
                client.close()
                if status == 200:
                    return
            except OSError:
                pass
            time.sleep(0.005)
        raise RuntimeError("serve never reported healthy")

    def stop(self, timeout: float = 60.0) -> int:
        """SIGINT drains the daemon; it exits through ``main``'s cleanup."""
        if self.proc.poll() is None:
            # The daemon answers /health a moment before its main thread
            # enters the interruptible wait; a SIGINT in between kills it
            # with a traceback instead of draining it.
            time.sleep(0.05)
            self.proc.send_signal(signal.SIGINT)
            try:
                self.proc.wait(timeout)
            except subprocess.TimeoutExpired:
                self.proc.kill()
                self.proc.wait()
        return self.proc.returncode


class Client:
    """One keep-alive HTTP/1.1 connection."""

    def __init__(self, port: int) -> None:
        self.conn = http.client.HTTPConnection("127.0.0.1", port, timeout=60)

    def request(self, method: str, path: str, body=None) -> tuple[int, bytes]:
        if body is not None and not isinstance(body, bytes):
            body = json.dumps(body).encode()
        headers = {"Content-Type": "application/json"} if body is not None else {}
        self.conn.request(method, path, body=body, headers=headers)
        response = self.conn.getresponse()
        return response.status, response.read()

    def json(self, method: str, path: str, body=None) -> dict:
        status, data = self.request(method, path, body)
        if status != 200:
            raise RuntimeError(f"{method} {path}: HTTP {status}: {data[:300]!r}")
        return json.loads(data)

    def close(self) -> None:
        self.conn.close()


def _bodies(pcap_path: str) -> list[tuple[int, bytes]]:
    """JSON push bodies of ``CHUNK_ROWS`` packets each: (rows, body)."""
    from repro.net.pcap import read_pcap
    from repro.serve.http import table_to_rows

    rows = table_to_rows(read_pcap(pcap_path).table)
    return [
        (len(rows[i:i + CHUNK_ROWS]), json.dumps({"packets": rows[i:i + CHUNK_ROWS]}).encode())
        for i in range(0, len(rows), CHUNK_ROWS)
    ]


def _feed(client: Client, out: Outcome, name: str, entry: dict, window: float, close: bool):
    client.json("POST", f"/feeds/{name}", {"date": entry["date"], "window": window, "hop": window})
    for _rows, body in _bodies(entry["pcap"]):
        status, _ = client.request("POST", f"/feeds/{name}/packets", body)
        out.op(status == 200, f"serve.preload push {name}")
    if close:
        client.json("POST", f"/feeds/{name}/close", {})


def _plus_days(date: str, days: int) -> str:
    return (datetime.date.fromisoformat(date) + datetime.timedelta(days=days)).isoformat()


def _wait_idle(client: Client, name: str, timeout: float = 60.0) -> None:
    """Until feed ``name`` has drained its ring and stopped emitting windows."""
    deadline, seen, stable = clock() + timeout, None, 0
    while clock() < deadline and stable < 3:
        feeds = {f["name"]: f for f in client.json("GET", "/feeds")["feeds"]}
        state = feeds[name]
        marker = (state["windows"], state["queue"]["depth_packets"])
        stable = stable + 1 if marker == seen and marker[1] == 0 else 0
        seen = marker
        time.sleep(0.05)


def _query_paths(rng: random.Random, client: Client, days: list[str], live: str, n: int):
    """The query mix: 60% warehouse-day predicates, 30% live-index
    queries, 10% whole-day CSV exports.

    The mix is a fixed multiset (per preloaded day: three taxonomy and
    three rule predicates, three live queries and one export), repeated
    to length ``n`` and shuffled by the seed, so every seed asks the
    same queries in a different order.
    """
    taxonomies = ("anomalous", "suspicious", "notice")
    base = []
    for day in days:
        rules = [
            f"{key}={rule[key]}"
            for row in client.json("GET", f"/labels?date={day}")["labels"]
            for rule in row["rules"]
            for key in ("dport", "src")
            if rule[key] is not None
        ]
        predicates = [f"taxonomy={t}" for t in taxonomies]
        predicates += (sorted(set(rules)) + predicates)[:3]
        base += [f"/labels?date={day}&{p}" for p in predicates]
        base += [f"/labels?date={live}&taxonomy={t}" for t in taxonomies]
        base.append(f"/labels?date={day}&format=csv")
    paths = (base * (n // len(base) + 1))[:n]
    rng.shuffle(paths)
    return paths


def run_serve(ctx: Context, seconds: float, out: Outcome) -> dict:
    import repro.net.pcap as pcap
    from repro.session import LabelingSession

    sizes = ctx.sizes
    preload = ctx.inputs["archive"][:PRELOAD_DAYS]
    live = ctx.inputs["archive"][PRELOAD_DAYS]
    day = ctx.inputs["day"]
    spans_dir = ctx.spans_dir if ctx.recorder is not None else None
    daemon = Daemon.start(ctx.work, ctx.fresh("serve-warehouse"), spans_dir)
    try:
        client = Client(daemon.port)
        # Not timed: 8 days persisted to the warehouse through feeds whose
        # window spans the day, one more left open in the live index.
        for entry in preload:
            _feed(client, out, entry["date"], entry, 2 * sizes.archive_seconds, True)
        _feed(client, out, "live", live, sizes.archive_seconds / 4, False)
        _wait_idle(client, "live")
        rng = random.Random(ctx.config["seed"])
        query_seconds = QUERY_SHARE * seconds
        paths = _query_paths(
            rng, client, [e["date"] for e in preload], live["date"],
            int(QUERY_RATE * (query_seconds + 0.5)) + 1,
        )
        bodies = _bodies(day["pcap"])

        def send(i: int) -> None:
            status, _ = client.request("GET", paths[i])
            out.op(status == 200, f"serve.query {paths[i]}")

        perf_stats.open_loop(QUERY_RATE, 0.5, send)  # warm-up, not timed
        ctx.begin()
        loop = perf_stats.open_loop(QUERY_RATE, query_seconds, send)
        ctx.lap()

        # Closed loop: a capture box pushes its next chunk as soon as the
        # daemon accepts the last (a full feed ring blocks the push).
        # Every feed carries the day's first quarter, each under its own
        # date, and is closed (drained) at its end, which returns once
        # every window is labeled.
        bodies = bodies[:-(-len(bodies) // INGEST_PARTS)]
        feeds, peak = itertools.count(), []

        def op():
            k = next(feeds)
            name, rows_in, pushes = f"ingest-{k}", 0, []
            ctx.begin()
            client.json("POST", f"/feeds/{name}", {
                "date": _plus_days(day["date"], k), "window": sizes.window, "hop": sizes.hop,
            })
            for rows, body in bodies:
                pushed_at = clock()
                status, _ = client.request("POST", f"/feeds/{name}/packets", body)
                pushes.append(clock() - pushed_at)
                out.op(status == 200, "serve.push")
                rows_in += rows
            closed = client.json("POST", f"/feeds/{name}/close", {})
            wall, scaled = ctx.lap()
            out.op(closed.get("state") == "closed", f"serve.{name}_closed {closed.get('error')}")
            if k + 1 == RSS_FEEDS:
                peak.append(perf_stats.peak_rss_mb(daemon.proc.pid))
            return {"packets": rows_in, "wall": wall, "scaled": scaled, "latency": [scaled],
                    "pushes": pushes, "closed": closed}

        ingests = repeat(seconds - query_seconds, op)
        if not peak:
            peak.append(perf_stats.peak_rss_mb(daemon.proc.pid))
        metrics = client.json("GET", "/metrics")
        status, served = client.request("GET", f"/labels?date={preload[0]['date']}&format=csv")
        client.close()
    finally:
        code = daemon.stop()
    out.op(code == 0, f"serve.daemon_exit {code}: {daemon.log.read_text()[-500:]}")
    with LabelingSession(workers=1) as session:
        offline = session.export(session.label_trace(pcap.read_pcap(preload[0]["pcap"])).labels)
    csv = served.decode()
    out.op(status == 200 and csv == offline, "serve.csv_matches_label")
    late = loop["late"]
    closes = [i["closed"] for i in ingests]
    ingest_wall = sum(i["wall"] for i in ingests)
    # The latency is a feed's turnaround, from opening it to its close
    # returning with every window labeled.  Query latency is measured
    # too but not gated: sub-millisecond round trips follow the host's
    # wake-up delays, not the code (README, "End-to-end metrics").
    return _report(
        ctx, ingests, peak[0], sha256_text(csv),
        timings={
            "query": loop["latency"],
            "query_late": late,
            "push": [x for i in ingests for x in i["pushes"]],
        },
        info={
            "packets_pushed": sum(i["packets"] for i in ingests),
            "ingest_wall": ingest_wall,
            "commit_p95_s": metrics["latency"]["p95_commit_seconds"],
            "gen_late_max_ms": 1e3 * max(late),
        },
        layer={
            "serve.ring.pushes_blocked": sum(c["queue"]["pushes_blocked"] for c in closes),
            "serve.ring.blocked_pct": 100.0 * sum(
                c["queue"]["blocked_seconds"] for c in closes
            ) / ingest_wall,
            "serve.ring.peak_packets": max(c["queue"]["peak_packets"] for c in closes),
            "serve.query.late_pct": 100.0 * sum(x > LATE_MS / 1e3 for x in late) / len(late),
        },
    )


WORKLOADS = {
    "day": run_day,
    "stream": run_stream,
    "archive": run_archive,
    "serve": run_serve,
}


# -- per-layer metrics ----------------------------------------------------


def span_names() -> list[str]:
    names = []
    for _module, _attr, name in perf_spans.TARGETS:
        if name not in names:
            names.append(name)
    return names + [f"engine.{op}" for op in perf_spans.KERNEL_OPS]


def layer_metrics(records: list[dict], intervals, extra: dict) -> tuple[dict, dict]:
    """Per-layer metrics of the traced half (measured intervals only)."""
    wall = sum(hi - lo for lo, hi in intervals) / 1e9
    measured = perf_spans.within(records, intervals)
    per_name = perf_spans.reduce_spans(measured)
    counts = perf_spans.total_counts(measured)
    metrics = {}
    for layer in perf_spans.LAYERS:
        self_s = sum(v["self_s"] for k, v in per_name.items() if k.split(".")[0] == layer)
        metrics[f"{layer}.self_pct"] = 100.0 * self_s / wall
    for name in span_names():
        metrics[f"{name}.self_pct"] = 100.0 * per_name.get(name, {}).get("self_s", 0.0) / wall
    hits = counts["detectors.planes.hits"]
    lookups = hits + counts["detectors.planes.misses"]
    metrics.update(
        {
            "detectors.alarms": counts["detectors.alarms"],
            "detectors.planes.hit_ratio": hits / lookups if lookups else 0.0,
            "core.communities": counts["core.communities"],
            "core.graph.edges": counts["core.graph.edges"],
            "runner.cache.hits": counts["runner.cache.hits"],
            "runner.cache.bytes": counts["runner.cache.bytes"],
            "warehouse.bytes": counts["warehouse.bytes"],
            "warehouse.recompute.segment_hits": counts["warehouse.recompute.segment_hits"],
            "stream.windows": counts["stream.windows"],
            "engine.calls": sum(
                v["calls"] for k, v in per_name.items() if k.startswith("engine.")
            ),
        }
    )
    for name in (
        "runner.pool.busy_pct", "runner.pool.parallel_speedup",
        "stream.peak_ring_packets", "serve.ring.pushes_blocked",
        "serve.ring.blocked_pct", "serve.ring.peak_packets", "serve.query.late_pct",
    ):
        metrics[name] = extra.get(name, 0.0)
    return metrics, per_name


# -- child entry points ---------------------------------------------------


def child_run(config: dict) -> dict:
    ctx = Context(config)
    out = Outcome()
    workload = WORKLOADS[config["workload"]]
    result: dict = {"workload": config["workload"]}
    if not config["trace"]:
        run = workload(ctx, config["seconds"], out)
        result["run"] = run
    else:
        half = config["seconds"] / 2
        ctx.baseline = True
        untraced = workload(ctx, half, out)
        ctx.baseline, ctx.intervals = False, []
        shutil.rmtree(ctx.spans_dir, ignore_errors=True)
        ctx.spans_dir.mkdir(parents=True)
        recorder = perf_spans.Recorder(spans_dir=str(ctx.spans_dir))
        installation = perf_spans.install(recorder)
        ctx.recorder = recorder
        try:
            traced = workload(ctx, half, out)
        finally:
            installation.uninstall()
        out.op(
            traced["labels_sha256"] == untraced["labels_sha256"],
            "trace.labels_match_untraced",
        )
        records = perf_spans.load_dumps(recorder, str(ctx.spans_dir))
        extra = {**untraced.get("layer", {}), **traced.get("layer", {})}
        extra["trace_overhead"] = untraced["throughput_pps"] / traced["throughput_pps"]
        layer, per_name = layer_metrics(records, ctx.intervals, extra)
        layer["trace_overhead"] = extra["trace_overhead"]
        trace = perf_spans.chrome_trace(records, ctx.intervals)
        Path(config["spans"]).write_text(json.dumps(trace))
        result.update(
            run=untraced,
            traced=traced,
            layer=layer,
            spans_summary=per_name,
            missing_targets=installation.missing,
        )
    result.update(
        attempted=out.attempted,
        failed=len(out.failures),
        failures=out.failures[:20],
        skipped=out.skipped,
    )
    return result


def child_setup(config: dict) -> None:
    """Build what the workload needs before its first operation."""
    from repro.session import LabelingSession

    ctx = Context(config)
    workload, sizes = config["workload"], ctx.sizes
    if workload in ("day", "stream"):
        with LabelingSession(workers=1) as session:
            session.pipeline  # the ensemble is built on first use
            if workload == "stream":
                session.streaming_pipeline(sizes.window, sizes.hop).close()
            print("ready", flush=True)
    elif workload == "archive":
        with _archive_session(ctx, ctx.nproc) as session:
            session.pipeline  # the ensemble is built on first use
            session.pool.map(abs, list(range(ctx.nproc)))
            print("ready", flush=True)
    else:
        raise SystemExit(f"no setup probe for {workload!r}")


def main(argv: list[str]) -> int:
    mode, config_path = argv
    config = json.loads(Path(config_path).read_text())
    if mode == "setup":
        child_setup(config)
        return 0
    result = child_run(config)
    Path(config["result"]).write_text(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
