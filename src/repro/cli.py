"""Command-line interface.

Eleven subcommands expose the library to non-Python users::

    mawilab generate      --seed 7 --duration 30 --anomaly sasser \
                          --anomaly ping_flood --out day.pcap --truth truth.json
    mawilab inspect       day.pcap
    mawilab detect        day.pcap --config kl/sensitive
    mawilab label         day.pcap --format csv --out labels.csv --workers 4
    mawilab stream        day.pcap --window 60 --hop 30 --out labels.csv
    mawilab engines
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

`label` runs the full 4-step pipeline on one closed trace (with
``--workers N``, each detector configuration of Step 1 is one pool
task); `stream` runs the same method *online* over a sliding window —
the pcap is read in bounded batches, each window is labeled as its
end passes, and per-window progress (packets, alarms, latency) goes to
stderr while the final cross-window-deduplicated CSV goes to stdout;
`engines` lists the registered execution engines and their kernels;
`archive` sweeps synthetic archive days and prints the SCANN
attack-ratio series (the Fig. 7 workflow); `label-archive` shards
archive days across a process pool, one task per day, writes one label
CSV per day plus a JSON batch report, and can resume an interrupted
run; `serve` runs the labeling daemon — concurrent HTTP packet feeds
with bounded-ring backpressure, live ``/labels`` queries, and an
optional resumable archive-ingest schedule (see ``docs/serving.md``);
`warehouse` manages the memory-mapped columnar label store — ingest,
zero-copy cross-day queries, CSV export, checksum verification, and
configuration-delta recompute (see ``docs/warehouse.md``).  All
commands are deterministic given their seeds.

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
    with _session(args, workers=args.workers) as session:
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
    session = _session(
        args,
        workers=args.workers,
        cache_dir=args.cache_dir,
        out_dir=args.out_dir,
        resume=args.resume,
    )

    def progress(done: int, total: int, report) -> None:
        marker = "ok" if report.ok else f"FAILED ({report.error})"
        cache = " [cached alarms]" if report.cache_hit else ""
        print(
            f"[{done}/{total}] {report.date}: {marker}{cache}",
            file=sys.stderr,
        )

    # Workers regenerate each day from its date; nothing but a string
    # crosses the process boundary.
    with session:
        batch = session.label_archive(archive, dates, progress=progress)
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
    from repro.runner.cache import AlarmCache, cached_alarms

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
            alarms, hit = cached_alarms(
                cache, pipeline, trace, archive.fingerprint(), date
            )
            result = pipeline.run_with_alarms(trace, alarms)
            warehouse.store_result(date, result, version=version)
            stored += 1
            cache_hits += hit
            print(
                f"{date}: {len(result.labels)} labels, "
                f"{len(result.alarms)} alarms"
                + (" [cached alarms]" if hit else ""),
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
        help="process-pool size; > 1 runs each detector configuration "
        "as its own pool task (1 = serial)",
    )
    _add_pipeline_options(label)
    label.set_defaults(func=_cmd_label)

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
        help="ingestion batch size in packets; also bounds the pcap "
        "reader's memory (one batch of decoded rows plus a 256 KiB block)",
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
        help="process-pool size; each day is one pool task (1 = serial)",
    )
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
