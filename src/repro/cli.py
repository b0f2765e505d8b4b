"""Command-line interface.

Twelve subcommands expose the library to non-Python users::

    mawilab generate      --seed 7 --duration 30 --anomaly sasser \
                          --anomaly ping_flood --out day.pcap --truth truth.json
    mawilab inspect       day.pcap
    mawilab detect        day.pcap --config kl/sensitive
    mawilab label         day.pcap --format csv --out labels.csv
    mawilab stream        day.pcap --window 60 --hop 30 --out labels.csv
    mawilab engines
    mawilab bench         --engine auto --out bench.json
    mawilab archive       --start 2004-01-01 --months 6
    mawilab label-archive --start 2004-01-01 --months 6 --workers 4 \
                          --out-dir labels/ --cache-dir .mawilab-cache --resume
    mawilab cache prune   --cache-dir .mawilab-cache --max-bytes 500M \
                          --older-than 30d
    mawilab serve         --port 8738 --db-root labels-db \
                          --schedule 86400 --cache-dir .mawilab-cache
    mawilab warehouse ingest    --root wh --start 2004-01-01 --months 6
    mawilab warehouse query     --root wh --taxonomy anomalous --dport 445
    mawilab warehouse recompute --root wh --strategy average

`label` runs the full 4-step pipeline on one closed trace; `stream`
runs the same method *online* over a sliding window — the pcap is read
in bounded batches, each window is labeled as its end passes, and
per-window progress (packets, alarms, latency) goes to stderr while
the final cross-window-deduplicated CSV goes to stdout; `engines`
lists the registered execution engines and their kernels; `bench` runs
the offline pipeline once on a synthetic archive day plus a streaming
leg and a worker fan-out leg, and prints per-stage wall times,
streaming throughput and per-transport fan-out throughput as JSON —
the perf artifact CI archives on every PR; `archive` sweeps synthetic
archive days and prints the SCANN attack-ratio series (the Fig. 7
workflow); `label-archive` shards archive days across a process pool,
writes one label CSV per day plus a JSON batch report, and can resume
an interrupted run; `serve` runs the labeling daemon — concurrent
HTTP packet feeds with bounded-ring backpressure, live ``/labels``
queries, and an optional resumable archive-ingest schedule (see
``docs/serving.md``); `warehouse` manages the memory-mapped columnar
label store — ingest, zero-copy cross-day queries, CSV export,
checksum verification, and configuration-delta recompute (see
``docs/warehouse.md``).  All commands are deterministic given their
seeds.

The pipeline commands accept ``--engine {auto,numpy,python}``: the
columnar NumPy engine (default) or the pure-Python reference
implementations; all engines label identically.  Every pipeline
command is a run mode of one :class:`repro.session.LabelingSession`.
"""

from __future__ import annotations

import argparse
import json
import sys
from typing import Optional, Sequence

from repro._version import __version__


def _cmd_generate(args: argparse.Namespace) -> int:
    from repro.mawi.anomalies import AnomalySpec
    from repro.mawi.generator import WorkloadSpec, generate_trace
    from repro.net.pcap import write_pcap

    spec = WorkloadSpec(
        seed=args.seed,
        duration=args.duration,
        anomalies=[AnomalySpec(kind) for kind in args.anomaly],
    )
    trace, events = generate_trace(spec)
    write_pcap(trace, args.out)
    print(f"wrote {len(trace)} packets to {args.out}")
    if args.truth:
        payload = [
            {
                "kind": e.kind,
                "category": e.category,
                "t0": e.t0,
                "t1": e.t1,
                "n_packets": e.n_packets,
                "description": e.description,
                "filters": [f.describe() for f in e.filters],
            }
            for e in events
        ]
        with open(args.truth, "w") as handle:
            json.dump(payload, handle, indent=2)
        print(f"wrote {len(events)} ground-truth events to {args.truth}")
    return 0


def _cmd_inspect(args: argparse.Namespace) -> int:
    from repro.net.pcap import read_pcap
    from repro.net.stats import compute_stats

    trace = read_pcap(args.pcap)
    print(f"{args.pcap}:")
    print(compute_stats(trace).describe())
    return 0


def _cmd_detect(args: argparse.Namespace) -> int:
    from repro.detectors.registry import detector_for_config
    from repro.net.pcap import read_pcap

    trace = read_pcap(args.pcap)
    detector = detector_for_config(args.config)
    alarms = detector.analyze(trace)
    print(f"{len(alarms)} alarms from {args.config}:")
    for alarm in alarms[: args.limit]:
        print("  " + alarm.describe())
    if len(alarms) > args.limit:
        print(f"  ... and {len(alarms) - args.limit} more")
    return 0


def _cmd_engines(args: argparse.Namespace) -> int:
    """List registered engines, their kernels and the "auto" choice."""
    from repro.engine import auto_engine, available_engines

    auto = auto_engine()
    for engine in available_engines():
        selected = "  <- auto selects this engine on this host" if engine is auto else ""
        flags = "vectorized" if engine.vectorized else "reference"
        print(f"{engine.name} ({flags}): {engine.description}{selected}")
        for op in engine.kernels():
            print(f"    {op}")
    return 0


def _pipeline_config(args: argparse.Namespace):
    from repro.runner.config import PipelineConfig

    return PipelineConfig(
        strategy=args.strategy,
        granularity=args.granularity,
        measure=args.measure,
        engine=args.engine,
    )


def _session(args: argparse.Namespace, **kwargs):
    from repro.session import LabelingSession

    return LabelingSession(config=_pipeline_config(args), **kwargs)


def _cmd_label(args: argparse.Namespace) -> int:
    from repro.net.pcap import read_pcap

    trace = read_pcap(args.pcap)
    with _session(
        args, workers=args.workers, fanout=args.fanout
    ) as session:
        result = session.label_trace(trace)
    print(
        f"{len(result.alarms)} alarms -> "
        f"{len(result.community_set.communities)} communities -> "
        f"{len(result.anomalous())} anomalous / "
        f"{len(result.suspicious())} suspicious / "
        f"{len(result.notice())} notice",
        file=sys.stderr,
    )
    rendered = session.export(
        result.labels, fmt=args.format, trace_name=args.pcap
    )
    if args.out:
        with open(args.out, "w") as handle:
            handle.write(rendered)
        print(f"wrote labels to {args.out}", file=sys.stderr)
    else:
        print(rendered, end="")
    return 0


def _cmd_stream(args: argparse.Namespace) -> int:
    """Label a pcap online, window by window, in bounded memory."""
    from repro.errors import StreamError
    from repro.net.pcap import iter_pcap

    if args.granularity == "packet":
        print(
            "error: packet granularity is not streamable (packet indices "
            "are window-local); use uniflow or biflow",
            file=sys.stderr,
        )
        return 2
    session = _session(args, workers=args.workers)
    try:
        pipeline = session.streaming_pipeline(args.window, args.hop)
    except StreamError as exc:
        session.close()
        print(f"error: {exc}", file=sys.stderr)
        return 2
    try:
        for result in pipeline.process(
            iter_pcap(args.pcap, chunk_packets=args.chunk)
        ):
            print(result.describe(), file=sys.stderr)
        labels = pipeline.merged_labels()
        stats = pipeline.stats()
    finally:
        pipeline.close()
        session.close()
    print(
        f"{stats.n_windows} windows, {stats.total_packets} packets, "
        f"{stats.packets_per_sec:.0f} pkt/s, "
        f"p95 window latency {stats.p95_latency * 1e3:.1f}ms, "
        f"peak ring {stats.peak_ring_packets} packets -> "
        f"{len(labels)} labels",
        file=sys.stderr,
    )
    rendered = session.export(labels, fmt=args.format, trace_name=args.pcap)
    if args.out:
        with open(args.out, "w") as handle:
            handle.write(rendered)
        print(f"wrote labels to {args.out}", file=sys.stderr)
    else:
        print(rendered, end="")
    return 0


def _cmd_bench(args: argparse.Namespace) -> int:
    """One synthetic-trace pipeline run with per-stage wall times.

    Prints a JSON document so CI can archive comparable perf artifacts
    across PRs: generation parameters, per-stage seconds
    (detect / extract / graph / combine / label), totals and output
    shape (alarm/community/label counts), a streaming leg, and a
    worker fan-out leg comparing the shared-memory and pickle
    transports.
    """
    import time

    from repro.labeling.mawilab import MAWILabPipeline
    from repro.mawi.archive import SyntheticArchive

    archive = SyntheticArchive(seed=args.seed, trace_duration=args.duration)
    trace = archive.day(args.date).trace
    pipeline = MAWILabPipeline(engine=args.engine)

    timings: dict = {}
    started = time.perf_counter()
    alarms = pipeline.detect(trace)
    timings["detect"] = time.perf_counter() - started
    result = pipeline.run_with_alarms(trace, alarms, timings=timings)
    total = time.perf_counter() - started

    # Streaming leg: the same trace consumed as a chunked stream with
    # overlapping windows, so the artifact tracks online throughput
    # (packets/sec) and window latency alongside the offline stages.
    from repro.errors import StreamError
    from repro.stream import StreamingPipeline, chunk_table

    stream_window = args.stream_window or args.duration / 3.0
    stream_hop = args.stream_hop or stream_window / 2.0
    try:
        streamer = StreamingPipeline(
            window=stream_window, hop=stream_hop, engine=args.engine
        )
    except StreamError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    stream_result = streamer.run(
        chunk_table(trace.table, args.stream_chunk)
    )

    payload = {
        "engine": args.engine,
        "seed": args.seed,
        "date": args.date,
        "duration": args.duration,
        "n_packets": len(trace),
        "n_alarms": len(result.alarms),
        "n_communities": len(result.community_set.communities),
        "n_anomalous": len(result.anomalous()),
        "stages": {
            stage: round(timings.get(stage, 0.0), 6)
            for stage in ("detect", "extract", "graph", "combine", "label")
        },
        "total": round(total, 6),
        "streaming": {
            "window": stream_window,
            "hop": stream_hop,
            "chunk_packets": args.stream_chunk,
            "n_labels": len(stream_result.labels),
            **stream_result.stats.to_dict(),
        },
    }
    payload["detect_leg"] = _bench_detect(
        trace, engine=args.engine, profile=args.profile
    )
    if args.alarm_path_reps > 0:
        payload["alarm_path"] = _bench_alarm_path(
            trace, reps=args.alarm_path_reps
        )
    if args.fanout_workers > 0:
        payload["fanout"] = _bench_fanout(args, archive)
    if args.serve_queries > 0:
        payload["serve"] = _bench_serve(args, archive)
    if args.warehouse_days > 0:
        payload["warehouse"] = _bench_warehouse(args, archive)
    rendered = json.dumps(payload, indent=2) + "\n"
    if args.out:
        with open(args.out, "w") as handle:
            handle.write(rendered)
        print(f"wrote bench report to {args.out}", file=sys.stderr)
    else:
        print(rendered, end="")
    return 0


def _bench_detect(trace, engine: str, profile: bool, reps: int = 3) -> dict:
    """Detect leg: Step 1 throughput with and without the plane cache.

    The ensemble analyzes the bench trace twice per rep — *uncached*
    (one fresh :class:`~repro.detectors.planes.PlaneCache` per
    configuration, preserving only the pre-cache intra-configuration
    reuse) and *cached* (one cache shared across all configurations,
    the production sharing path).  Both legs must produce
    byte-identical labels (asserted here), so ``detect_speedup`` —
    best-of-``reps`` uncached seconds over cached seconds, the ratio
    the CI regression gate enforces on multi-core hosts — is a pure
    plane-sharing effect.

    With ``profile``, the leg carries per-configuration wall times for
    both variants plus the shared cache's hit/miss/bytes counters.
    """
    import os
    import time

    from repro.core.alarm_table import AlarmTable
    from repro.detectors.planes import PlaneCache
    from repro.labeling.mawilab import MAWILabPipeline, labels_to_csv

    pipeline = MAWILabPipeline(engine=engine)
    names = pipeline.config_names

    def run_leg(shared: bool) -> tuple[dict, str]:
        best = None
        for _ in range(reps):
            cache = PlaneCache(pipeline.engine) if shared else None
            per_config = {}
            tables = []
            leg_started = time.perf_counter()
            for name, detector in zip(names, pipeline.ensemble):
                planes = (
                    cache if shared else PlaneCache(pipeline.engine)
                )
                started = time.perf_counter()
                tables.append(detector.analyze_table(trace, planes=planes))
                per_config[name] = round(
                    time.perf_counter() - started, 6
                )
            elapsed = time.perf_counter() - leg_started
            if best is None or elapsed < best["seconds"]:
                best = {"seconds": round(elapsed, 6)}
                if profile:
                    best["per_config"] = per_config
                    if shared:
                        best["plane_cache"] = cache.counters()
                best_tables = tables
        result = pipeline.run_with_alarms(
            trace, AlarmTable.concatenate(best_tables)
        )
        return best, labels_to_csv(result.labels)

    uncached, uncached_csv = run_leg(shared=False)
    cached, cached_csv = run_leg(shared=True)
    if uncached_csv != cached_csv:
        raise RuntimeError(
            "detect leg: cached and uncached runs disagree on labels"
        )
    return {
        "engine": engine,
        "reps": reps,
        "n_configs": len(names),
        "cpu_count": os.cpu_count() or 1,
        "uncached": uncached,
        "cached": cached,
        "detect_speedup": round(
            uncached["seconds"] / cached["seconds"], 3
        ),
    }


def _bench_alarm_path(trace, reps: int = 3) -> dict:
    """Alarm-path leg: Steps 2-4 throughput, python vs numpy kernels.

    One Step 1 alarm table is pushed through similarity estimation,
    community detection, acceptance and labeling ``reps`` times on both
    engines — the same table path, differing only in the kernels
    (``object`` = the pure-Python reference kernels, ``columnar`` =
    the NumPy kernels) — reporting alarms/sec per engine.  Both must
    render byte-identical CSV (asserted here), so the speedup is a pure
    kernel effect.
    """
    import time

    from repro.labeling.mawilab import MAWILabPipeline, labels_to_csv

    columnar_pipeline = MAWILabPipeline(engine="numpy")
    object_pipeline = MAWILabPipeline(engine="python")
    table = columnar_pipeline.detect(trace)
    n_alarms = len(table)
    leg: dict = {"n_alarms": n_alarms, "reps": reps}
    outputs = {}

    for name, pipeline in (
        ("object", object_pipeline),
        ("columnar", columnar_pipeline),
    ):
        started = time.perf_counter()
        for _ in range(reps):
            result = pipeline.run_with_alarms(trace, table)
        elapsed = time.perf_counter() - started
        outputs[name] = labels_to_csv(result.labels)
        leg[name] = {
            "seconds": round(elapsed, 6),
            "alarms_per_sec": round(n_alarms * reps / elapsed, 1),
        }
    if outputs["object"] != outputs["columnar"]:
        raise RuntimeError("alarm-path leg: engines disagree on labels")
    leg["columnar_speedup"] = round(
        leg["object"]["seconds"] / leg["columnar"]["seconds"], 3
    )
    return leg


def _bench_fanout(args: argparse.Namespace, archive) -> dict:
    """Fan-out leg: pool execution compared end to end, plus a raw
    transport microbench.

    *Labeling*: ``--fanout-traces`` archive days labeled four ways —
    ``single`` (one process, the 2x-win reference), ``pickle`` (pool,
    tables serialized through the task pipe), ``shm`` (pool, tables
    exported once into recycled arena segments workers pin), and
    ``shm_detector`` (intra-trace detector fan-out over the shm
    transport).  Every sub-leg records its worker count, fan-out mode
    and transport alongside packets/sec; all four must render
    byte-identical label CSVs (asserted here).  ``shm_vs_single`` and
    ``shm_vs_pickle`` are the ratios the CI regression gate enforces
    (on multi-core hosts), and ``cpu_count`` records what parallelism
    the host could actually offer.

    *Transport microbench*: the bench trace tiled to
    ``--fanout-packets`` rows and shipped to every worker with a
    trivial touch on the far side, isolating raw transport throughput
    (this is where zero-copy shows up undiluted by labeling compute).

    With ``--profile``, each labeling sub-leg carries a per-phase
    wall-time breakdown (export / attach / compute / merge / idle).
    """
    import os
    import time

    from repro.runner.config import PipelineConfig
    from repro.session import LabelingSession

    dates = _month_dates("2005-01-01", args.fanout_traces)
    traces = [archive.day(date).trace for date in dates]
    total_packets = sum(len(t) for t in traces)
    leg = {
        "workers": args.fanout_workers,
        "n_traces": len(traces),
        "total_packets": total_packets,
        "cpu_count": os.cpu_count() or 1,
        "labeling": {},
    }
    sub_legs = (
        ("single", dict(workers=1, transport="pickle", fanout="shard")),
        (
            "pickle",
            dict(
                workers=args.fanout_workers,
                transport="pickle",
                fanout="shard",
            ),
        ),
        (
            "shm",
            dict(
                workers=args.fanout_workers,
                transport="shm",
                fanout="shard",
            ),
        ),
        (
            "shm_detector",
            dict(
                workers=args.fanout_workers,
                transport="shm",
                fanout="detector",
            ),
        ),
    )
    shas = {}
    for name, spec in sub_legs:
        profile: dict = {}
        with LabelingSession(
            config=PipelineConfig(engine=args.engine), **spec
        ) as session:
            started = time.perf_counter()
            report = session.label_traces(
                traces, profile=profile if args.profile else None
            )
            elapsed = time.perf_counter() - started
        if report.failures():
            raise RuntimeError(
                f"fanout leg {name!r} failed: "
                f"{[r.error for r in report.failures()]}"
            )
        shas[name] = tuple(r.csv_sha256 for r in report.reports)
        entry = {
            **spec,
            "seconds": round(elapsed, 6),
            "packets_per_sec": round(total_packets / elapsed, 1),
        }
        if args.profile:
            entry["profile"] = profile
        leg["labeling"][name] = entry
    if len(set(shas.values())) != 1:
        raise RuntimeError(
            "fanout legs disagree on labels: "
            + ", ".join(sorted(shas))
        )
    leg["shm_vs_single"] = round(
        leg["labeling"]["single"]["seconds"]
        / leg["labeling"]["shm"]["seconds"],
        3,
    )
    leg["shm_vs_pickle"] = round(
        leg["labeling"]["pickle"]["seconds"]
        / leg["labeling"]["shm"]["seconds"],
        3,
    )
    leg["transport"] = _bench_transport(args, traces[0])
    leg["shm_speedup"] = round(
        leg["transport"]["pickle"]["seconds"]
        / leg["transport"]["shm"]["seconds"],
        3,
    )
    return leg


def _bench_transport(args: argparse.Namespace, trace) -> dict:
    """Raw transport throughput: one big table to every worker."""
    import time

    import numpy as np

    from repro.net.table import COLUMNS, PacketTable
    from repro.runner.pool import parallel_map
    from repro.runner.shm import (
        export_table,
        transport_probe_pickle,
        transport_probe_shm,
    )

    reps = max(args.fanout_packets // max(len(trace), 1), 1)
    big = PacketTable(
        **{
            name: np.tile(getattr(trace.table, name), reps)
            for name in COLUMNS
        }
    )
    workers = args.fanout_workers
    result = {"n_packets": len(big), "shipments": workers}
    expected = int(big.size.sum())

    # Zero-copy means the table exists ONCE: every worker attaches the
    # same segment, while the pickle transport below must serialize
    # one full copy per shipment.
    started = time.perf_counter()
    handle = export_table(big)
    try:
        sums = parallel_map(
            transport_probe_shm, [handle] * workers, workers=workers
        )
    finally:
        handle.unlink()
    elapsed = time.perf_counter() - started
    assert sums == [expected] * workers
    result["shm"] = {
        "seconds": round(elapsed, 6),
        "packets_per_sec": round(len(big) * workers / elapsed, 1),
    }

    started = time.perf_counter()
    sums = parallel_map(
        transport_probe_pickle, [big] * workers, workers=workers
    )
    elapsed = time.perf_counter() - started
    assert sums == [expected] * workers
    result["pickle"] = {
        "seconds": round(elapsed, 6),
        "packets_per_sec": round(len(big) * workers / elapsed, 1),
    }
    return result


def _bench_serve(args: argparse.Namespace, archive) -> dict:
    """Serve leg: ingest + query throughput through the live daemon.

    Boots a :class:`~repro.serve.daemon.LabelingService` behind its
    HTTP surface, pushes one archive day through a feed *over HTTP*
    (the full wire path, backpressure included), then hammers
    ``/labels`` to measure query throughput.  The artifact records
    queries/sec, the ingest-to-queryable p95 latency (window labeling
    + index publish), and — under ``--profile`` — per-feed queue-depth
    high-water marks against their configured bounds, which the
    regression gate checks for bounded-memory behavior.
    """
    import time
    import urllib.request

    from repro.serve import LabelServer, LabelingService, table_to_rows
    from repro.stream.window import chunk_table

    day = archive.day(args.date)

    with LabelingService(
        engine=args.engine,
        window=args.duration,
        max_ring_packets=args.serve_ring,
    ) as service:
        server = LabelServer(service).start_background()
        base = f"http://127.0.0.1:{server.port}"

        def post(path: str, payload: dict) -> dict:
            request = urllib.request.Request(
                base + path,
                data=json.dumps(payload).encode(),
                headers={"Content-Type": "application/json"},
                method="POST",
            )
            with urllib.request.urlopen(request) as response:
                return json.load(response)

        post("/feeds/bench", {"date": day.date})
        ingest_started = time.perf_counter()
        for chunk in chunk_table(day.trace.table, args.stream_chunk):
            post("/feeds/bench/packets", {"packets": table_to_rows(chunk)})
        close_status = post("/feeds/bench/close", {})
        ingest_seconds = time.perf_counter() - ingest_started

        query_url = base + f"/labels?date={day.date}&taxonomy=anomalous"
        query_started = time.perf_counter()
        for _ in range(args.serve_queries):
            with urllib.request.urlopen(query_url) as response:
                json.load(response)
        query_seconds = time.perf_counter() - query_started

        with urllib.request.urlopen(base + "/metrics") as response:
            metrics = json.load(response)

        leg = {
            "n_packets": len(day.trace),
            "n_labels": close_status["labels"],
            "windows": close_status["windows"],
            "ingest_seconds": round(ingest_seconds, 6),
            "ingest_packets_per_sec": round(
                len(day.trace) / ingest_seconds, 1
            ),
            "p95_commit_seconds": metrics["latency"]["p95_commit_seconds"],
            "queries": args.serve_queries,
            "queries_per_sec": round(
                args.serve_queries / query_seconds, 1
            ),
        }
        if args.profile:
            # Bounded-memory evidence: every queue's high-water mark
            # next to its configured bound (gated by
            # check_bench_regression.py).
            leg["queues"] = metrics["queues"]
        server.stop_background()
    return leg


def _bench_warehouse(args: argparse.Namespace, archive) -> dict:
    """Warehouse leg: columnar cross-day queries vs CSV re-parsing,
    plus the delta-recompute path.

    ``--warehouse-days`` archive days are labeled once and dual-written
    into a :class:`~repro.labeling.database.LabelDatabase` (the CSV
    baseline) and a :class:`~repro.labeling.warehouse.Warehouse`
    (mmap'd columnar segments).  The leg then measures:

    * cross-day query throughput — the same taxonomy filter answered
      from mapped columns (``Warehouse.query``) and by re-parsing every
      day's CSV (``LabelDatabase.load_day``); ``query_speedup`` is the
      ratio the CI regression gate enforces,
    * cold-open latency — a fresh :class:`Warehouse` handle mapping
      every day's label segment,
    * delta recompute — a heuristics-only configuration change
      (combiner strategy) relabeled via ``Warehouse.recompute``, which
      must reuse every day's Step 1 alarms from the previous version's
      segments (``step1_reruns`` is gated at exactly zero) and beat the
      full relabeling wall time (``recompute_speedup``).

    The warehouse CSV export is asserted byte-identical to the stored
    database CSV for every day, so the speedups are pure data-path
    effects.
    """
    import dataclasses
    import os
    import tempfile
    import time

    from repro.labeling.database import LabelDatabase, _day_relpath
    from repro.labeling.warehouse import (
        Warehouse,
        archive_meta,
        warehouse_fingerprint,
    )
    from repro.runner.config import PipelineConfig

    dates = _month_dates("2005-01-01", args.warehouse_days)
    config = PipelineConfig(engine=args.engine)
    pipeline = config.build_pipeline()
    query_reps = 20
    with tempfile.TemporaryDirectory(prefix="bench-warehouse-") as root:
        database = LabelDatabase(os.path.join(root, "csv"))
        warehouse = Warehouse(os.path.join(root, "warehouse"))
        version = warehouse.ensure_version(
            warehouse_fingerprint(
                archive.fingerprint(),
                pipeline.ensemble_fingerprint(),
                repr(config),
            ),
            ensemble_fingerprint=pipeline.ensemble_fingerprint(),
            config=repr(config),
            archive=archive_meta(archive),
        )

        started = time.perf_counter()
        for date in dates:
            result = pipeline.run(archive.day(date).trace)
            database.store_day(date, result)
            warehouse.store_result(date, result, version=version)
        full_label_seconds = time.perf_counter() - started

        for date in dates:
            path = os.path.join(database.root, _day_relpath(date))
            with open(path) as handle:
                if warehouse.export_csv(date) != handle.read():
                    raise RuntimeError(
                        f"warehouse leg: export for {date} is not "
                        "byte-identical to the stored CSV"
                    )

        warehouse.close()
        started = time.perf_counter()
        cold = Warehouse(os.path.join(root, "warehouse"))
        for date in dates:
            cold.open_labels(date)
        cold_open_seconds = time.perf_counter() - started
        cold.close()

        started = time.perf_counter()
        for _ in range(query_reps):
            rows = warehouse.query(
                taxonomy="anomalous", engine=args.engine
            )
        warehouse_seconds = time.perf_counter() - started

        started = time.perf_counter()
        for _ in range(query_reps):
            csv_rows = [
                (date, record)
                for date in dates
                for record in database.load_day(date)
                if record.taxonomy == "anomalous"
            ]
        csv_seconds = time.perf_counter() - started
        # The CSV path yields one row per (community, rule); the
        # warehouse one per community — compare matched communities.
        csv_hits = {(date, record.community_id) for date, record in csv_rows}
        if len(csv_hits) != len(rows):
            raise RuntimeError(
                "warehouse leg: mmap query and CSV scan disagree "
                f"({len(rows)} vs {len(csv_hits)} communities)"
            )

        # Heuristics-only change: the detection ensemble is untouched,
        # so every day's Step 1 alarms must come back from the previous
        # version's alarm segments — zero ensemble reruns.
        started = time.perf_counter()
        report = warehouse.recompute(
            dataclasses.replace(config, strategy="average"),
            archive=archive,
        )
        recompute_seconds = time.perf_counter() - started
        if report.step1_reruns:
            raise RuntimeError(
                "warehouse leg: heuristics-only recompute reran "
                f"Step 1 on {report.step1_reruns} day(s)"
            )
        warehouse.close()

    return {
        "days": len(dates),
        "query_reps": query_reps,
        "n_query_rows": len(rows),
        "full_label_seconds": round(full_label_seconds, 6),
        "cold_open_seconds": round(cold_open_seconds, 6),
        "warehouse_queries_per_sec": round(
            query_reps / warehouse_seconds, 1
        ),
        "csv_queries_per_sec": round(query_reps / csv_seconds, 1),
        "query_speedup": round(csv_seconds / warehouse_seconds, 3),
        "recompute": {
            "seconds": round(recompute_seconds, 6),
            "step1_reruns": report.step1_reruns,
            "cache_hits": report.cache_hits,
            "segment_hits": report.segment_hits,
            "days_changed": sum(
                1
                for day in report.days
                if day.added or day.removed or day.taxonomy_changed
            ),
            "recompute_speedup": round(
                full_label_seconds / recompute_seconds, 3
            ),
        },
    }


def _cmd_serve(args: argparse.Namespace) -> int:
    """Run the labeling daemon until interrupted."""
    import threading

    from repro.serve import ArchiveScheduler, LabelServer, LabelingService

    if args.schedule is not None and not args.db_root:
        print("error: --schedule requires --db-root", file=sys.stderr)
        return 2

    service = LabelingService(
        config=_pipeline_config(args),
        workers=args.workers,
        window=args.window,
        hop=args.hop,
        max_ring_packets=args.max_ring_packets,
        db_root=args.db_root,
        warehouse_root=args.warehouse_root,
    )
    # SIGTERM/SIGINT drain the pool and unlink shm before dying.
    service.install_signals()
    for spec in args.feeds or []:
        name, _, date = spec.partition(":")
        service.open_feed(name, date=date or None)

    stop = threading.Event()
    scheduler = None
    scheduler_thread = None
    if args.schedule is not None:
        from repro.mawi.archive import SyntheticArchive

        archive = SyntheticArchive(
            seed=args.seed, trace_duration=args.duration
        )
        scheduler = ArchiveScheduler(
            archive,
            _month_dates(args.start, args.months),
            args.db_root,
            session=service.session,
            cache_dir=args.cache_dir,
            index=service.index,
            warehouse=service.warehouse,
        )

        def _progress(outcome) -> None:
            print(f"schedule: {outcome.describe()}", file=sys.stderr)

        scheduler_thread = threading.Thread(
            target=scheduler.run_forever,
            args=(args.schedule, stop, _progress),
            name="scheduler",
            daemon=True,
        )
        scheduler_thread.start()

    server = LabelServer(service, host=args.host, port=args.port)
    server.start_background()
    print(
        f"serving on http://{args.host}:{server.port} "
        f"(engine {service.session.engine.name}, "
        f"workers {service.session.workers})",
        file=sys.stderr,
    )
    try:
        stop.wait(args.exit_after)
    except KeyboardInterrupt:
        print("interrupt: draining", file=sys.stderr)
    finally:
        stop.set()
        if scheduler_thread is not None:
            scheduler_thread.join(timeout=30.0)
        server.stop_background()
        service.shutdown(drain=True)
    return 0


def _month_dates(start_iso: str, months: int) -> list[str]:
    """``months`` consecutive monthly dates starting at ``start_iso``."""
    import datetime

    start = datetime.date.fromisoformat(start_iso)
    dates = []
    for i in range(months):
        month = start.month - 1 + i
        dates.append(
            datetime.date(
                start.year + month // 12, month % 12 + 1, start.day
            ).isoformat()
        )
    return dates


def _parse_duration(text: str) -> float:
    """Seconds from a human duration: plain number, or Ns/Nm/Nh/Nd."""
    units = {"s": 1.0, "m": 60.0, "h": 3600.0, "d": 86400.0}
    suffix = text[-1:].lower()
    try:
        if suffix in units:
            return float(text[:-1]) * units[suffix]
        return float(text)
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"invalid duration {text!r} (want seconds or Ns/Nm/Nh/Nd)"
        ) from None


def _parse_bytes(text: str) -> int:
    """Bytes from a human size: plain number, or NK/NM/NG."""
    units = {"k": 1024, "m": 1024**2, "g": 1024**3}
    suffix = text[-1:].lower()
    try:
        if suffix in units:
            return int(float(text[:-1]) * units[suffix])
        return int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"invalid size {text!r} (want bytes or NK/NM/NG)"
        ) from None


def _cmd_cache_prune(args: argparse.Namespace) -> int:
    """Evict alarm-cache entries by LRU recency and/or age."""
    from repro.runner.cache import AlarmCache

    if args.max_bytes is None and args.older_than is None:
        print(
            "error: nothing to prune; pass --max-bytes and/or --older-than",
            file=sys.stderr,
        )
        return 2
    cache = AlarmCache(args.cache_dir)
    stats = cache.prune(
        max_bytes=args.max_bytes, older_than=args.older_than
    )
    print(stats.describe())
    return 0


def _cmd_archive(args: argparse.Namespace) -> int:
    from repro.eval.metrics import attack_ratio_by_class
    from repro.labeling.heuristics import label_community
    from repro.labeling.mawilab import MAWILabPipeline
    from repro.mawi.archive import SyntheticArchive

    archive = SyntheticArchive(seed=args.seed, trace_duration=args.duration)
    pipeline = MAWILabPipeline()
    dates = _month_dates(args.start, args.months)
    print(f"{'date':12s} {'era':14s} {'communities':>11s} "
          f"{'accepted':>8s} {'acc.ratio':>9s} {'rej.ratio':>9s}")
    for date in dates:
        day = archive.day(date)
        result = pipeline.run(day.trace)
        community_set = result.community_set
        heuristics = [
            label_community(c, community_set.extractor)
            for c in community_set.communities
        ]
        acc, rej = attack_ratio_by_class(
            heuristics, [d.accepted for d in result.decisions]
        )
        accepted = sum(1 for d in result.decisions if d.accepted)
        print(
            f"{date:12s} {day.era.name:14s} "
            f"{len(community_set.communities):11d} {accepted:8d} "
            f"{acc:9.2f} {rej:9.2f}"
        )
    return 0


def _cmd_label_archive(args: argparse.Namespace) -> int:
    import datetime
    import os

    from repro.mawi.archive import SyntheticArchive
    from repro.net.trace import Trace, TraceMetadata

    archive = SyntheticArchive(seed=args.seed, trace_duration=args.duration)
    dates = args.date or _month_dates(args.start, args.months)
    seen = set()
    for date in dates:
        try:
            datetime.date.fromisoformat(date)
        except ValueError:
            print(f"error: invalid --date {date!r} (want YYYY-MM-DD)",
                  file=sys.stderr)
            return 2
        if date in seen:
            print(f"error: duplicate --date {date!r}", file=sys.stderr)
            return 2
        seen.add(date)
    if args.fanout != "shard" and args.transport == "regenerate":
        print(
            "error: --fanout detector/trace needs pregenerated tables; "
            "pass --transport shm (or pickle)",
            file=sys.stderr,
        )
        return 2
    session = _session(
        args,
        workers=args.workers,
        cache_dir=args.cache_dir,
        out_dir=args.out_dir,
        resume=args.resume,
        transport=args.transport if args.transport != "regenerate" else "auto",
        fanout=args.fanout,
    )

    def progress(done: int, total: int, report) -> None:
        marker = "ok" if report.ok else f"FAILED ({report.error})"
        cache = " [cached alarms]" if report.cache_hit else ""
        print(
            f"[{done}/{total}] {report.date}: {marker}{cache}",
            file=sys.stderr,
        )

    if args.transport == "regenerate":
        with session:
            batch = session.label_archive(archive, dates, progress=progress)
    else:
        # Explicit transport: pregenerate the days in this process and
        # ship the packet tables to workers (shm or pickle), keeping
        # the per-date output naming of the regenerate path.
        traces = []
        for date in dates:
            day = archive.day(date)
            metadata = day.trace.metadata
            traces.append(
                Trace.from_table(
                    day.trace.table,
                    TraceMetadata(
                        name=date,
                        samplepoint=metadata.samplepoint,
                        link_mbps=metadata.link_mbps,
                        date=date,
                    ),
                )
            )
        with session:
            batch = session.label_traces(
                traces,
                progress=progress,
                # Same provenance as the regenerate transport, so alarm
                # caches warmed under either transport hit under the
                # other.
                fingerprints=[archive.fingerprint()] * len(traces),
            )
    print(batch.describe())
    report_path = os.path.join(args.out_dir, "report.json")
    with open(report_path, "w") as handle:
        handle.write(batch.to_json())
    print(f"wrote per-day CSVs and {report_path}", file=sys.stderr)
    return 1 if batch.failures() else 0


def _cmd_warehouse_ingest(args: argparse.Namespace) -> int:
    """Label archive days into columnar warehouse segments."""
    from repro.labeling.warehouse import (
        Warehouse,
        archive_meta,
        warehouse_fingerprint,
    )
    from repro.mawi.archive import SyntheticArchive
    from repro.runner.cache import AlarmCache

    archive = SyntheticArchive(seed=args.seed, trace_duration=args.duration)
    dates = args.date or _month_dates(args.start, args.months)
    config = _pipeline_config(args)
    pipeline = config.build_pipeline()
    ensemble_fp = pipeline.ensemble_fingerprint()
    cache = AlarmCache(args.cache_dir) if args.cache_dir else None
    with Warehouse(args.root) as warehouse:
        version = warehouse.ensure_version(
            warehouse_fingerprint(
                archive.fingerprint(), ensemble_fp, repr(config)
            ),
            ensemble_fingerprint=ensemble_fp,
            config=repr(config),
            archive=archive_meta(archive),
        )
        stored = skipped = cache_hits = 0
        for date in dates:
            if warehouse.has_day(date, version) and not args.force:
                print(f"{date}: already stored", file=sys.stderr)
                skipped += 1
                continue
            trace = archive.day(date).trace
            alarms = None
            key = None
            if cache is not None:
                key = AlarmCache.make_key(
                    archive.fingerprint(), date, ensemble_fp
                )
                alarms = cache.get(key)
            if alarms is None:
                result = pipeline.run(trace)
                if cache is not None and key is not None:
                    cache.put(key, result.alarms)
            else:
                cache_hits += 1
                result = pipeline.run_with_alarms(trace, alarms)
            warehouse.store_result(date, result, version=version)
            stored += 1
            print(
                f"{date}: {len(result.labels)} labels, "
                f"{len(result.alarms)} alarms"
                + (" [cached alarms]" if alarms is not None else ""),
                file=sys.stderr,
            )
    print(
        f"version {version}: {stored} stored, {skipped} skipped, "
        f"{cache_hits} alarm-cache hits -> {args.root}"
    )
    return 0


def _cmd_warehouse_query(args: argparse.Namespace) -> int:
    """Cross-day label rows from mapped columns, as JSON."""
    from repro.errors import WarehouseError
    from repro.labeling.warehouse import Warehouse

    try:
        with Warehouse(args.root) as warehouse:
            rows = warehouse.query(
                date=args.date,
                date_from=args.date_from,
                date_to=args.date_to,
                taxonomy=args.taxonomy,
                src=args.src,
                dst=args.dst,
                sport=args.sport,
                dport=args.dport,
                t0=args.t0,
                t1=args.t1,
                limit=args.limit,
                version=args.warehouse_version,
                engine=args.engine,
            )
    except WarehouseError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    print(json.dumps({"n": len(rows), "rows": rows}, indent=2))
    return 0


def _cmd_warehouse_stats(args: argparse.Namespace) -> int:
    """Per-day and total label counts, from the manifest alone."""
    from repro.errors import WarehouseError
    from repro.labeling.warehouse import Warehouse

    try:
        stats = Warehouse(args.root).stats(args.warehouse_version)
    except WarehouseError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    print(json.dumps(stats, indent=2))
    return 0


def _cmd_warehouse_export(args: argparse.Namespace) -> int:
    """One day's labels as CSV — byte-identical to ``label``."""
    from repro.errors import WarehouseError
    from repro.labeling.warehouse import Warehouse

    try:
        with Warehouse(args.root) as warehouse:
            rendered = warehouse.export_csv(
                args.date, args.warehouse_version
            )
    except WarehouseError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    if args.out:
        with open(args.out, "w") as handle:
            handle.write(rendered)
        print(f"wrote labels to {args.out}", file=sys.stderr)
    else:
        print(rendered, end="")
    return 0


def _cmd_warehouse_verify(args: argparse.Namespace) -> int:
    """Hash-check every segment against the manifest."""
    from repro.errors import WarehouseError
    from repro.labeling.warehouse import Warehouse

    try:
        with Warehouse(args.root) as warehouse:
            versions = (
                [args.warehouse_version]
                if args.warehouse_version
                else warehouse.versions()
            )
            for version in versions:
                checked = warehouse.verify(version)
                print(
                    f"{checked['version']}: {checked['segments']} segments "
                    f"across {checked['days']} days ok"
                )
    except WarehouseError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    return 0


def _cmd_warehouse_recompute(args: argparse.Namespace) -> int:
    """Relabel every ingested day under a new configuration, reusing
    cached/stored Step 1 alarms (delta recompute)."""
    from repro.errors import WarehouseError
    from repro.labeling.warehouse import Warehouse

    try:
        with Warehouse(args.root) as warehouse:
            report = warehouse.recompute(
                _pipeline_config(args),
                cache_dir=args.cache_dir,
                dates=args.date or None,
            )
    except WarehouseError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    if not report.changed:
        print(
            f"no-op: configuration fingerprint {report.fingerprint} "
            f"already current ({report.old_version})",
            file=sys.stderr,
        )
    else:
        print(
            f"{report.old_version} -> {report.new_version}: "
            f"{len(report.days)} days relabeled in "
            f"{report.elapsed:.2f}s ({report.cache_hits} cache hits, "
            f"{report.segment_hits} segment hits, "
            f"{report.step1_reruns} full reruns)",
            file=sys.stderr,
        )
    print(json.dumps(report.to_payload(), indent=2))
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="mawilab",
        description="MAWILab reproduction: combine anomaly detectors and label traces.",
    )
    parser.add_argument(
        "--version", action="version", version=f"%(prog)s {__version__}"
    )
    sub = parser.add_subparsers(dest="command", required=True)

    generate = sub.add_parser("generate", help="generate a synthetic trace")
    generate.add_argument("--seed", type=int, default=0)
    generate.add_argument("--duration", type=float, default=30.0)
    generate.add_argument(
        "--anomaly",
        action="append",
        default=[],
        help="anomaly kind to inject (repeatable)",
    )
    generate.add_argument("--out", required=True, help="output pcap path")
    generate.add_argument("--truth", help="optional ground-truth JSON path")
    generate.set_defaults(func=_cmd_generate)

    inspect = sub.add_parser("inspect", help="print trace statistics")
    inspect.add_argument("pcap")
    inspect.set_defaults(func=_cmd_inspect)

    detect = sub.add_parser("detect", help="run one detector configuration")
    detect.add_argument("pcap")
    detect.add_argument(
        "--config", default="kl/optimal", help="family/tuning, e.g. pca/sensitive"
    )
    detect.add_argument("--limit", type=int, default=20)
    detect.set_defaults(func=_cmd_detect)

    engines = sub.add_parser(
        "engines",
        help="list registered execution engines and their kernels",
    )
    engines.set_defaults(func=_cmd_engines)

    label = sub.add_parser("label", help="run the full labeling pipeline")
    label.add_argument("pcap")
    label.add_argument("--format", choices=("csv", "xml"), default="csv")
    label.add_argument("--out", help="output path (stdout if omitted)")
    label.add_argument(
        "--workers",
        type=int,
        default=1,
        help="process-pool size for --fanout detector/trace (1 = serial)",
    )
    _add_fanout_option(label)
    _add_pipeline_options(label)
    label.set_defaults(func=_cmd_label)

    bench = sub.add_parser(
        "bench",
        help="run the synthetic-trace pipeline once and print per-stage "
        "wall times as JSON",
    )
    bench.add_argument("--seed", type=int, default=2010)
    bench.add_argument("--duration", type=float, default=30.0)
    bench.add_argument("--date", default="2005-06-01")
    _add_engine_option(bench)
    bench.add_argument(
        "--stream-window",
        type=float,
        help="streaming-leg window seconds (default: duration / 3)",
    )
    bench.add_argument(
        "--stream-hop",
        type=float,
        help="streaming-leg hop seconds (default: window / 2)",
    )
    bench.add_argument(
        "--stream-chunk",
        type=int,
        default=2048,
        help="streaming-leg ingestion batch size in packets",
    )
    bench.add_argument(
        "--fanout-workers",
        type=int,
        default=4,
        help="fan-out-leg pool size (0 skips the fan-out leg)",
    )
    bench.add_argument(
        "--fanout-traces",
        type=int,
        default=4,
        help="fan-out-leg batch size in archive days",
    )
    bench.add_argument(
        "--fanout-packets",
        type=int,
        default=2_000_000,
        help="transport-microbench table size in packets",
    )
    bench.add_argument(
        "--alarm-path-reps",
        type=int,
        default=3,
        help="alarm-path-leg repetitions of Steps 2-4 per engine "
        "(0 skips the alarm-path leg)",
    )
    bench.add_argument(
        "--serve-queries",
        type=int,
        default=50,
        help="serve-leg /labels query count (0 skips the serve leg)",
    )
    bench.add_argument(
        "--serve-ring",
        type=int,
        default=65536,
        help="serve-leg feed ring capacity in packets (the bounded-"
        "memory limit the regression gate checks peaks against)",
    )
    bench.add_argument(
        "--warehouse-days",
        type=int,
        default=6,
        help="warehouse-leg archive-day count for the mmap-query vs "
        "CSV-scan and delta-recompute comparison (0 skips the leg)",
    )
    bench.add_argument(
        "--profile",
        action="store_true",
        help="record per-phase wall times (export / attach / compute / "
        "merge / idle) for each fan-out labeling sub-leg",
    )
    bench.add_argument("--out", help="output path (stdout if omitted)")
    bench.set_defaults(func=_cmd_bench)

    stream = sub.add_parser(
        "stream",
        help="label a pcap online over a sliding window (bounded memory)",
    )
    stream.add_argument("pcap")
    stream.add_argument(
        "--window",
        type=float,
        default=60.0,
        help="window span in seconds (window >= trace duration "
        "reproduces `label` byte-for-byte)",
    )
    stream.add_argument(
        "--hop",
        type=float,
        help="seconds between window emissions (default: window, i.e. "
        "tumbling; smaller values overlap windows)",
    )
    stream.add_argument(
        "--chunk",
        type=int,
        default=8192,
        help="ingestion batch size in packets",
    )
    stream.add_argument(
        "--workers",
        type=int,
        default=1,
        help="process-pool size; > 1 fans each window's detectors "
        "across a persistent pool (1 = serial)",
    )
    stream.add_argument("--format", choices=("csv", "xml"), default="csv")
    stream.add_argument("--out", help="output path (stdout if omitted)")
    _add_pipeline_options(stream)
    stream.set_defaults(func=_cmd_stream)

    serve = sub.add_parser(
        "serve",
        help="run the labeling daemon: HTTP feeds, live label queries, "
        "optional scheduled archive ingest",
    )
    serve.add_argument("--host", default="127.0.0.1")
    serve.add_argument(
        "--port",
        type=int,
        default=8738,
        help="listen port (0 binds an ephemeral port)",
    )
    serve.add_argument(
        "--feeds",
        action="append",
        metavar="NAME[:DATE]",
        help="pre-open a feed at boot (repeatable); DATE defaults to "
        "the feed name",
    )
    serve.add_argument(
        "--window",
        type=float,
        default=30.0,
        help="default feed window seconds (a window covering a feed's "
        "whole stream reproduces `label` byte-for-byte)",
    )
    serve.add_argument(
        "--hop",
        type=float,
        help="default feed hop seconds (default: window, i.e. tumbling)",
    )
    serve.add_argument(
        "--max-ring-packets",
        type=int,
        default=65536,
        help="default per-feed ingest-ring capacity; a full ring "
        "blocks the producer (backpressure) instead of growing memory",
    )
    serve.add_argument(
        "--workers",
        type=int,
        default=1,
        help="process-pool size shared by every feed (1 = in-process)",
    )
    serve.add_argument(
        "--db-root",
        help="LabelDatabase root; closed feeds and scheduled days "
        "persist their label CSVs here",
    )
    serve.add_argument(
        "--warehouse-root",
        help="columnar label warehouse root; closed feeds and "
        "scheduled days are dual-written there and /labels answers "
        "ingested days zero-copy from mmap",
    )
    serve.add_argument(
        "--schedule",
        type=float,
        metavar="SECONDS",
        help="ingest archive days every SECONDS (requires --db-root; "
        "resumable via the journal in the database root)",
    )
    serve.add_argument(
        "--seed", type=int, default=2010, help="scheduled-archive seed"
    )
    serve.add_argument(
        "--duration",
        type=float,
        default=30.0,
        help="scheduled-archive trace duration in seconds",
    )
    serve.add_argument(
        "--start",
        default="2004-01-01",
        help="first scheduled archive date",
    )
    serve.add_argument(
        "--months",
        type=int,
        default=6,
        help="scheduled archive span in months",
    )
    serve.add_argument(
        "--cache-dir",
        help="Step 1 alarm-cache directory for scheduled ingest",
    )
    serve.add_argument(
        "--exit-after",
        type=float,
        metavar="SECONDS",
        help="self-terminate after this long (CI smoke harness)",
    )
    _add_pipeline_options(serve)
    serve.set_defaults(func=_cmd_serve)

    cache = sub.add_parser(
        "cache", help="manage the on-disk Step 1 alarm cache"
    )
    cache_sub = cache.add_subparsers(dest="cache_command", required=True)
    prune = cache_sub.add_parser(
        "prune",
        help="evict least-recently-used / stale cache entries",
    )
    prune.add_argument(
        "--cache-dir",
        required=True,
        help="the alarm-cache directory (as passed to label-archive)",
    )
    prune.add_argument(
        "--max-bytes",
        type=_parse_bytes,
        help="keep the cache under this many bytes, evicting LRU "
        "entries first (suffixes K/M/G accepted)",
    )
    prune.add_argument(
        "--older-than",
        type=_parse_duration,
        help="drop entries not used within this long "
        "(seconds, or Ns/Nm/Nh/Nd)",
    )
    prune.set_defaults(func=_cmd_cache_prune)

    archive = sub.add_parser(
        "archive", help="label synthetic archive days and print the series"
    )
    archive.add_argument("--seed", type=int, default=2010)
    archive.add_argument("--duration", type=float, default=30.0)
    archive.add_argument("--start", default="2004-01-01")
    archive.add_argument("--months", type=int, default=6)
    archive.set_defaults(func=_cmd_archive)

    label_archive = sub.add_parser(
        "label-archive",
        help="label many archive days across a process pool",
    )
    label_archive.add_argument("--seed", type=int, default=2010)
    label_archive.add_argument("--duration", type=float, default=30.0)
    label_archive.add_argument("--start", default="2004-01-01")
    label_archive.add_argument("--months", type=int, default=6)
    label_archive.add_argument(
        "--date",
        action="append",
        help="explicit ISO date to label (repeatable; overrides "
        "--start/--months)",
    )
    label_archive.add_argument(
        "--workers",
        type=int,
        default=1,
        help="process-pool size (1 = serial)",
    )
    label_archive.add_argument(
        "--transport",
        choices=("regenerate", "shm", "pickle"),
        default="regenerate",
        help="how traces reach workers: regenerate each day in the "
        "worker (default), or pregenerate here and ship tables over "
        "zero-copy shared memory / the pickle pipe",
    )
    _add_fanout_option(label_archive)
    label_archive.add_argument(
        "--cache-dir",
        help="directory caching Step 1 alarms keyed by (trace, ensemble)",
    )
    label_archive.add_argument(
        "--out-dir",
        required=True,
        help="directory receiving labels-<date>.csv files and report.json",
    )
    label_archive.add_argument(
        "--resume",
        action="store_true",
        help="skip dates whose label CSV already exists in --out-dir",
    )
    _add_pipeline_options(label_archive)
    label_archive.set_defaults(func=_cmd_label_archive)

    warehouse = sub.add_parser(
        "warehouse",
        help="manage the memory-mapped columnar label warehouse",
    )
    warehouse_sub = warehouse.add_subparsers(
        dest="warehouse_command", required=True
    )

    def warehouse_root(p: argparse.ArgumentParser) -> None:
        p.add_argument(
            "--root", required=True, help="warehouse root directory"
        )

    def warehouse_version_option(p: argparse.ArgumentParser) -> None:
        p.add_argument(
            "--at-version",
            dest="warehouse_version",
            help="operate on a specific warehouse version "
            "(default: current)",
        )

    w_ingest = warehouse_sub.add_parser(
        "ingest",
        help="label synthetic archive days into columnar segments",
    )
    warehouse_root(w_ingest)
    w_ingest.add_argument("--seed", type=int, default=2010)
    w_ingest.add_argument("--duration", type=float, default=30.0)
    w_ingest.add_argument("--start", default="2004-01-01")
    w_ingest.add_argument("--months", type=int, default=6)
    w_ingest.add_argument(
        "--date",
        action="append",
        help="explicit ISO date to ingest (repeatable; overrides "
        "--start/--months)",
    )
    w_ingest.add_argument(
        "--cache-dir",
        help="Step 1 alarm-cache directory (hits skip the ensemble)",
    )
    w_ingest.add_argument(
        "--force",
        action="store_true",
        help="re-label days already stored under the current "
        "configuration",
    )
    _add_pipeline_options(w_ingest)
    w_ingest.set_defaults(func=_cmd_warehouse_ingest)

    w_query = warehouse_sub.add_parser(
        "query",
        help="cross-day label rows from mapped columns, as JSON",
    )
    warehouse_root(w_query)
    w_query.add_argument("--date", help="restrict to one ISO date")
    w_query.add_argument(
        "--from",
        dest="date_from",
        help="inclusive ISO date-range start",
    )
    w_query.add_argument(
        "--to", dest="date_to", help="inclusive ISO date-range end"
    )
    w_query.add_argument(
        "--taxonomy", choices=("anomalous", "suspicious", "notice")
    )
    w_query.add_argument("--src", help="source address (dotted quad)")
    w_query.add_argument("--dst", help="destination address")
    w_query.add_argument("--sport", type=int, help="source port")
    w_query.add_argument("--dport", type=int, help="destination port")
    w_query.add_argument(
        "--t0", type=float, help="only labels active at/after this time"
    )
    w_query.add_argument(
        "--t1", type=float, help="only labels active at/before this time"
    )
    w_query.add_argument("--limit", type=int, help="stop after N rows")
    warehouse_version_option(w_query)
    _add_engine_option(w_query)
    w_query.set_defaults(func=_cmd_warehouse_query)

    w_stats = warehouse_sub.add_parser(
        "stats",
        help="per-day and total label counts from the manifest",
    )
    warehouse_root(w_stats)
    warehouse_version_option(w_stats)
    w_stats.set_defaults(func=_cmd_warehouse_stats)

    w_export = warehouse_sub.add_parser(
        "export",
        help="render one day's labels as CSV (byte-identical to "
        "`label`)",
    )
    warehouse_root(w_export)
    w_export.add_argument("--date", required=True)
    w_export.add_argument("--out", help="output path (stdout if omitted)")
    warehouse_version_option(w_export)
    w_export.set_defaults(func=_cmd_warehouse_export)

    w_verify = warehouse_sub.add_parser(
        "verify",
        help="hash-check every segment against the manifest",
    )
    warehouse_root(w_verify)
    warehouse_version_option(w_verify)
    w_verify.set_defaults(func=_cmd_warehouse_verify)

    w_recompute = warehouse_sub.add_parser(
        "recompute",
        help="relabel ingested days under a new configuration, "
        "reusing stored Step 1 alarms (delta recompute)",
    )
    warehouse_root(w_recompute)
    w_recompute.add_argument(
        "--cache-dir",
        help="Step 1 alarm-cache directory consulted before the "
        "previous version's alarm segments",
    )
    w_recompute.add_argument(
        "--date",
        action="append",
        help="restrict the recompute to this ISO date (repeatable)",
    )
    _add_pipeline_options(w_recompute)
    w_recompute.set_defaults(func=_cmd_warehouse_recompute)

    return parser


def _add_fanout_option(parser: argparse.ArgumentParser) -> None:
    """The pooled parallelism axis (see ``repro.session.FANOUTS``)."""
    parser.add_argument(
        "--fanout",
        choices=("shard", "detector", "trace"),
        default="shard",
        help="unit of pooled parallelism: whole traces (shard, "
        "default), one task per detector configuration (detector), or "
        "the configuration list balanced across the pool (trace); all "
        "modes label byte-identically",
    )


def _add_engine_option(parser: argparse.ArgumentParser) -> None:
    """The execution-engine choice."""
    parser.add_argument(
        "--engine",
        choices=("auto", "numpy", "python"),
        default="auto",
        help="execution engine: numpy = columnar fast paths (default), "
        "python = pure-Python reference kernels",
    )


def _add_pipeline_options(parser: argparse.ArgumentParser) -> None:
    """Pipeline options shared by `label`, `stream` and `label-archive`."""
    parser.add_argument(
        "--strategy",
        choices=("scann", "average", "minimum", "maximum", "majority"),
        default="scann",
    )
    parser.add_argument(
        "--granularity",
        choices=("packet", "uniflow", "biflow"),
        default="uniflow",
    )
    parser.add_argument(
        "--measure",
        choices=("simpson", "jaccard", "constant"),
        default="simpson",
    )
    _add_engine_option(parser)


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    return args.func(args)


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
