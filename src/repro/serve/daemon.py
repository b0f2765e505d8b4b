"""The labeling daemon: many concurrent feeds, one labeling session.

:class:`LabelingService` is the serving layer's core.  It owns one
:class:`~repro.session.LabelingSession` (one configuration, one
persistent :class:`~repro.runner.pool.WorkerPool`) and exposes *feeds*:
named packet streams, each labeled online by its own
:class:`~repro.stream.pipeline.StreamingPipeline` on a dedicated
consumer thread.  With ``workers > 1`` every feed's per-window Step 1
fans across the shared pool — shard-per-feed over one set of processes.

Backpressure
------------
Each feed ingests through a bounded packet ring
(:class:`~repro.stream.window.TraceWindow` with ``max_packets`` set):
a producer pushing into a full ring *blocks* until the feed's consumer
drains it, so a slow consumer slows its producer instead of growing
memory.  ``peak_packets`` on the ring is the proof, surfaced through
``/metrics`` and the bench serve leg.

Commit path
-----------
As each window is labeled, the feed publishes its merged label store
into the service's :class:`~repro.labeling.database.LiveLabelIndex`,
so queries observe fresh labels without ever touching the pipeline;
when a feed closes (end of stream), the final store is optionally
persisted into the on-disk
:class:`~repro.labeling.database.LabelDatabase`.

Shutdown
--------
:meth:`LabelingService.shutdown` drains every feed (or abandons them
with ``drain=False``), stops the pool and unlinks the arenas;
:meth:`install_signals` additionally hooks SIGTERM/SIGINT (via
:func:`repro.runner.pool.install_signal_handlers`) so a killed daemon
leaves no orphan workers or ``/dev/shm`` segments.
"""

from __future__ import annotations

import math
import threading
import time
from typing import Optional, Sequence

from repro.engine import EngineSpec
from repro.errors import ServeError
from repro.labeling.database import LabelDatabase, LiveLabelIndex, is_iso_day
from repro.net.table import PacketTable
from repro.net.trace import TraceMetadata
from repro.runner.config import PipelineConfig
from repro.runner.pool import install_signal_handlers
from repro.session import LabelingSession


class _FeedRing:
    """Bounded chunk hand-off between a feed's producer and consumer.

    The blocking half of the backpressure contract: ``push`` waits
    while the buffered packet count is at ``max_packets`` (one
    oversized chunk is admitted into an empty ring so a giant batch
    cannot deadlock its producer — the same rule as
    :meth:`~repro.stream.window.TraceWindow.has_room`), and ``pop``
    waits for data or end-of-stream.
    """

    def __init__(self, max_packets: int) -> None:
        if max_packets <= 0:
            raise ServeError(
                f"max_packets must be positive, got {max_packets}"
            )
        self.max_packets = max_packets
        self._cond = threading.Condition()
        self._chunks: list[PacketTable] = []
        self._packets = 0
        self._closed = False
        #: High-water mark of buffered packets (bounded-memory proof).
        self.peak_packets = 0
        #: Producer-side blocking evidence.
        self.pushes_blocked = 0
        self.blocked_seconds = 0.0

    def _has_room(self, n: int) -> bool:
        return self._packets == 0 or self._packets + n <= self.max_packets

    def push(self, table: PacketTable, timeout: Optional[float] = None) -> None:
        """Append one chunk, blocking while the ring is full."""
        if len(table) == 0:
            return
        deadline = None if timeout is None else time.monotonic() + timeout
        with self._cond:
            blocked_since = None
            while not self._closed and not self._has_room(len(table)):
                if blocked_since is None:
                    blocked_since = time.monotonic()
                    self.pushes_blocked += 1
                remaining = None
                if deadline is not None:
                    remaining = deadline - time.monotonic()
                    if remaining <= 0:
                        self.blocked_seconds += (
                            time.monotonic() - blocked_since
                        )
                        raise ServeError(
                            "feed ring full: push timed out under "
                            "backpressure"
                        )
                self._cond.wait(timeout=remaining)
            if blocked_since is not None:
                self.blocked_seconds += time.monotonic() - blocked_since
            if self._closed:
                raise ServeError("feed is closed")
            self._chunks.append(table)
            self._packets += len(table)
            self.peak_packets = max(self.peak_packets, self._packets)
            self._cond.notify_all()

    def pop(self) -> Optional[PacketTable]:
        """Next chunk, or ``None`` once closed and drained."""
        with self._cond:
            while not self._chunks and not self._closed:
                self._cond.wait()
            if not self._chunks:
                return None
            chunk = self._chunks.pop(0)
            self._packets -= len(chunk)
            self._cond.notify_all()
            return chunk

    def close(self) -> None:
        with self._cond:
            self._closed = True
            self._cond.notify_all()

    def abandon(self) -> None:
        """Close and drop buffered chunks (non-draining shutdown)."""
        with self._cond:
            self._closed = True
            self._chunks.clear()
            self._packets = 0
            self._cond.notify_all()

    @property
    def depth_packets(self) -> int:
        with self._cond:
            return self._packets


def _shown(value) -> str:
    """``repr`` of a client-supplied value, cut for an error message."""
    text = repr(value)
    return text if len(text) <= 64 else text[:61] + "..."


def _check_positive(field: str, value) -> None:
    """Raise :class:`ServeError` unless ``value`` is a finite number > 0."""
    number = math.nan
    if isinstance(value, (int, float)) and not isinstance(value, bool):
        try:
            number = float(value)
        except OverflowError:
            number = math.inf
    if not (math.isfinite(number) and number > 0):
        raise ServeError(
            f"{field} must be a finite positive number, got {_shown(value)}"
        )


class Feed:
    """One named packet stream being labeled online.

    Producers call :meth:`push` (blocking under backpressure); a
    dedicated consumer thread drives the feed's
    :class:`~repro.stream.pipeline.StreamingPipeline` and publishes
    every window commit into the service's live index under
    :attr:`date`.  The consumer records each commit's counters on the
    feed, which is all :meth:`status` and the service's metrics read,
    and drops the pipeline when the stream ends: a closed feed keeps
    its counters, not its window, alarms or detector state.
    """

    def __init__(
        self,
        service: "LabelingService",
        name: str,
        date: str,
        window: float,
        hop: Optional[float],
        max_ring_packets: int,
    ) -> None:
        self.service = service
        self.name = name
        self.date = date
        self.window = window
        self.hop = hop
        self.ring = _FeedRing(max_packets=max_ring_packets)
        #: The feed's pipeline; ``None`` once the stream has ended.
        self.pipeline = service.session.streaming_pipeline(window, hop)
        self.state = "open"
        self.error: Optional[str] = None
        self.created_at = time.time()
        self.closed_at: Optional[float] = None
        self.chunks_in = 0
        self.packets_in = 0
        self.windows = 0
        self.labels_published = 0
        #: Wall seconds from window emission to queryable labels
        #: (pipeline latency + index publish), per committed window.
        self.commit_latencies: list[float] = []
        #: The pipeline's own latency, per committed window.
        self.window_latencies: list[float] = []
        #: High-water mark of the pipeline's window ring, in packets.
        self.ring_peak_packets = 0
        self._thread = threading.Thread(
            target=self._run, name=f"feed-{name}", daemon=True
        )
        self._thread.start()

    # -- producer side -------------------------------------------------

    def push(self, table: PacketTable, timeout: Optional[float] = None) -> None:
        if self.state not in ("open",):
            raise ServeError(f"feed {self.name!r} is {self.state}")
        self.ring.push(table, timeout=timeout)
        self.chunks_in += 1
        self.packets_in += len(table)

    def close(self, timeout: Optional[float] = None) -> dict:
        """End the stream, wait for the drain, return final status."""
        if self.state == "open":
            self.state = "draining"
        self.ring.close()
        self._thread.join(timeout=timeout)
        if self._thread.is_alive():
            raise ServeError(f"feed {self.name!r} did not drain in time")
        return self.status()

    def abandon(self) -> None:
        """Stop without draining (shutdown path); buffered data drops."""
        if self.state in ("open", "draining"):
            self.state = "draining"
        self.ring.abandon()
        self._thread.join(timeout=30.0)

    # -- consumer side -------------------------------------------------

    def _chunks(self):
        while True:
            chunk = self.ring.pop()
            if chunk is None:
                return
            yield chunk

    def _run(self) -> None:
        metadata = TraceMetadata(name=self.name, date=self.date)
        try:
            for result in self.pipeline.process(
                self._chunks(), metadata=metadata
            ):
                started = time.perf_counter()
                self._publish()
                publish_seconds = time.perf_counter() - started
                self.windows += 1
                self.window_latencies.append(result.latency)
                self.commit_latencies.append(
                    result.latency + publish_seconds
                )
                self.ring_peak_packets = self.pipeline.ring.peak_packets
            self._publish()
            self.state = "closed"
        except Exception as exc:  # noqa: BLE001 - feed isolation
            self.state = "failed"
            self.error = f"{type(exc).__name__}: {exc}"
        finally:
            self.closed_at = time.time()
            self.ring_peak_packets = self.pipeline.ring.peak_packets
            self.pipeline.close()
            self.pipeline = None

    def _publish(self) -> None:
        store = self.pipeline.merged_label_store()
        self.service.index.publish(self.date, store)
        self.labels_published = len(store)

    # -- reporting -----------------------------------------------------

    def status(self) -> dict:
        return {
            "name": self.name,
            "date": self.date,
            "state": self.state,
            "error": self.error,
            "window": self.window,
            "hop": self.hop,
            "chunks_in": self.chunks_in,
            "packets_in": self.packets_in,
            "windows": self.windows,
            "labels": self.labels_published,
            "queue": {
                "depth_packets": self.ring.depth_packets,
                "peak_packets": self.ring.peak_packets,
                "max_packets": self.ring.max_packets,
                "pushes_blocked": self.ring.pushes_blocked,
                "blocked_seconds": round(self.ring.blocked_seconds, 6),
            },
            "ring_peak_packets": self.ring_peak_packets,
        }


def _p95(values: Sequence[float]) -> float:
    if not values:
        return 0.0
    ordered = sorted(values)
    rank = max(int(0.95 * len(ordered) + 0.999999) - 1, 0)
    return ordered[min(rank, len(ordered) - 1)]


class LabelingService:
    """The always-on labeling front door (one session, many feeds).

    Parameters
    ----------
    config, engine, workers:
        Forwarded to the underlying
        :class:`~repro.session.LabelingSession`; with ``workers > 1``
        every feed's per-window detection fans over the shared
        persistent pool.
    window, hop:
        Default sliding-window geometry for feeds (per-feed overrides
        on :meth:`open_feed`).  A window covering a feed's whole
        stream makes its published labels byte-identical to the
        offline ``repro label`` output — the serving parity anchor.
    max_ring_packets:
        Default per-feed ingest-ring capacity; a full ring blocks the
        feed's producer (backpressure) instead of growing memory.
    db_root:
        Optional :class:`~repro.labeling.database.LabelDatabase` root;
        when set, each feed's final labels are persisted there on
        close (one atomic day file).
    warehouse_root:
        Optional :class:`~repro.labeling.warehouse.Warehouse` root;
        when set, fully-ingested days (scheduler dual-writes, feed
        closes) answer ``/labels`` from memory-mapped columns instead
        of the live index, and closing feeds persist their day there
        too.
    """

    def __init__(
        self,
        config: Optional[PipelineConfig] = None,
        *,
        engine: EngineSpec = None,
        workers: int = 1,
        window: float = 30.0,
        hop: Optional[float] = None,
        max_ring_packets: int = 65536,
        db_root: Optional[str] = None,
        warehouse_root: Optional[str] = None,
    ) -> None:
        from repro.labeling.warehouse import Warehouse

        self.session = LabelingSession(
            config=config, engine=engine, workers=workers
        )
        self.index = LiveLabelIndex()
        self.database = LabelDatabase(db_root) if db_root else None
        self.warehouse = (
            Warehouse(warehouse_root) if warehouse_root else None
        )
        self.default_window = window
        self.default_hop = hop
        self.default_max_ring_packets = max_ring_packets
        self.started_at = time.time()
        self._feeds: dict[str, Feed] = {}
        self._lock = threading.Lock()
        self._closed = False

    # -- lifecycle -----------------------------------------------------

    def install_signals(self) -> None:
        """Hook SIGTERM/SIGINT: drain-free teardown, no leaked shm."""
        install_signal_handlers()

    def shutdown(self, drain: bool = True, timeout: Optional[float] = None) -> None:
        """Stop the service (idempotent).

        ``drain=True`` closes every open feed and waits for its
        remaining windows to label and publish; ``drain=False``
        abandons buffered data (the SIGTERM path, where dying cleanly
        beats finishing the backlog).  Either way the session's
        workers stop and its shared-memory arenas unlink.
        """
        with self._lock:
            if self._closed:
                return
            self._closed = True
            feeds = list(self._feeds.values())
        for feed in feeds:
            try:
                if drain:
                    feed.close(timeout=timeout)
                else:
                    feed.abandon()
            except ServeError:
                pass
        self.session.close()

    def __enter__(self) -> "LabelingService":
        return self

    def __exit__(self, *exc) -> None:
        self.shutdown()

    # -- feeds ---------------------------------------------------------

    def feed_options(
        self,
        name: str,
        date: Optional[str] = None,
        window: Optional[float] = None,
        hop: Optional[float] = None,
        max_ring_packets: Optional[int] = None,
    ) -> dict:
        """Check one feed's options; the options with defaults filled in
        (``date`` stays ``None`` when not given).

        ``date`` (the feed name when ``None``) must be a ``YYYY-MM-DD``
        calendar date whenever closing the feed writes its day into the
        database or the warehouse.  ``window`` and ``hop`` must be
        finite positive numbers with ``hop <= window``, and
        ``max_ring_packets`` a positive integer; booleans are neither.
        Raises :class:`~repro.errors.ServeError` naming the field.
        """
        if date is not None and not is_iso_day(date):
            raise ServeError(
                f"date must be a YYYY-MM-DD calendar date, got {_shown(date)}"
            )
        if date is None and not is_iso_day(name) and (
            self.database is not None or self.warehouse is not None
        ):
            raise ServeError(
                f"feed {_shown(name)} needs a YYYY-MM-DD date: its name is "
                f"not one, and its day is stored when it closes"
            )
        window = self.default_window if window is None else window
        _check_positive("window", window)
        hop = self.default_hop if hop is None else hop
        if hop is not None:
            _check_positive("hop", hop)
            if hop > window:
                raise ServeError(
                    f"hop must not exceed window, got hop={hop} window={window}"
                )
        if max_ring_packets is None:
            max_ring_packets = self.default_max_ring_packets
        if (
            isinstance(max_ring_packets, bool)
            or not isinstance(max_ring_packets, int)
            or max_ring_packets <= 0
        ):
            raise ServeError(
                "max_ring_packets must be a positive integer, got "
                f"{_shown(max_ring_packets)}"
            )
        return {
            "date": date,
            "window": window,
            "hop": hop,
            "max_ring_packets": max_ring_packets,
        }

    def open_feed(
        self,
        name: str,
        date: Optional[str] = None,
        window: Optional[float] = None,
        hop: Optional[float] = None,
        max_ring_packets: Optional[int] = None,
    ) -> Feed:
        """Open one named feed (its consumer thread starts now).

        Options are checked by :meth:`feed_options` first.
        """
        options = self.feed_options(
            name,
            date=date,
            window=window,
            hop=hop,
            max_ring_packets=max_ring_packets,
        )
        with self._lock:
            if self._closed:
                raise ServeError("service is shut down")
            if name in self._feeds and self._feeds[name].state in (
                "open",
                "draining",
            ):
                raise ServeError(f"feed {name!r} is already open")
            if options["date"] is None:
                options["date"] = name
            feed = Feed(self, name=name, **options)
            self._feeds[name] = feed
            return feed

    def feed(self, name: str) -> Feed:
        with self._lock:
            feed = self._feeds.get(name)
        if feed is None:
            raise ServeError(f"unknown feed {name!r}")
        return feed

    def push(
        self,
        name: str,
        table: PacketTable,
        timeout: Optional[float] = None,
    ) -> None:
        """Push one packet chunk into a feed (blocks under backpressure)."""
        self.feed(name).push(table, timeout=timeout)

    def close_feed(self, name: str, timeout: Optional[float] = None) -> dict:
        """Drain and close one feed; persist its day when configured."""
        feed = self.feed(name)
        status = feed.close(timeout=timeout)
        if feed.state == "failed":
            raise ServeError(
                f"feed {name!r} failed while labeling: {feed.error}"
            )
        if self.database is not None:
            store = self.index.store_for(feed.date)
            self.database.store_day_labels(feed.date, store)
        if self.warehouse is not None:
            self.warehouse.store_day(
                feed.date,
                self.index.store_for(feed.date),
                version=self._warehouse_version(),
            )
        return status

    def feeds_status(self) -> list[dict]:
        with self._lock:
            feeds = list(self._feeds.values())
        return [feed.status() for feed in feeds]

    # -- label reads ---------------------------------------------------
    #
    # A date fully ingested into the warehouse answers from its
    # memory-mapped columns; anything else from the live index of
    # in-flight days, which holds the same columns in memory.

    def _warehouse_version(self) -> str:
        """The warehouse version feed-persisted days land in.

        Keyed like the scheduler's version digest, with the archive
        slot pinned to ``"live"`` — feeds have no archive fingerprint.
        """
        from repro.labeling.warehouse import warehouse_fingerprint

        return self.warehouse.ensure_version(
            warehouse_fingerprint(
                "live",
                self.session.pipeline.ensemble_fingerprint(),
                repr(self.session.config),
            ),
            ensemble_fingerprint=(
                self.session.pipeline.ensemble_fingerprint()
            ),
            config=repr(self.session.config),
        )

    def labels_csv(self, date: str) -> str:
        """One day's labels as CSV, warehouse-first."""
        if self.warehouse is not None and self.warehouse.has_day(date):
            return self.warehouse.export_csv(date)
        store = self.index.store_for(date)
        from repro.labeling.mawilab import labels_to_csv

        return labels_to_csv(store.to_records())

    def query_labels(
        self,
        date: Optional[str] = None,
        taxonomy: Optional[str] = None,
        src=None,
        dst=None,
        sport: Optional[int] = None,
        dport: Optional[int] = None,
        t0: Optional[float] = None,
        t1: Optional[float] = None,
        limit: Optional[int] = None,
    ) -> list[dict]:
        """Label rows matching the predicates, warehouse-first.

        A named date that is fully ingested scans its mmap columns;
        other dates (and the all-days query) use the live index.  Both
        answer through the warehouse's one query path, so every
        predicate works on both.
        """
        source = self.index
        if (
            self.warehouse is not None
            and date is not None
            and self.warehouse.has_day(date)
        ):
            source = self.warehouse
        return source.query(
            date=date,
            taxonomy=taxonomy,
            src=src,
            dst=dst,
            sport=sport,
            dport=dport,
            t0=t0,
            t1=t1,
            limit=limit,
        )

    # -- reporting -----------------------------------------------------

    def health(self) -> dict:
        with self._lock:
            open_feeds = sum(
                1 for f in self._feeds.values() if f.state == "open"
            )
            failed = [
                f.name for f in self._feeds.values() if f.state == "failed"
            ]
        return {
            "status": "degraded" if failed else "ok",
            "uptime_seconds": round(time.time() - self.started_at, 3),
            "workers": self.session.workers,
            "engine": self.session.engine.name,
            "feeds_open": open_feeds,
            "feeds_failed": failed,
            "days_published": len(self.index.dates()),
            "warehouse_days": (
                len(self.warehouse.dates())
                if self.warehouse is not None
                and self.warehouse.current_version is not None
                else 0
            ),
        }

    def metrics(self) -> dict:
        """Ingest/query counters, queue depths, per-phase latencies."""
        with self._lock:
            feeds = list(self._feeds.values())
        window_latencies: list[float] = []
        commit_latencies: list[float] = []
        for feed in feeds:
            window_latencies.extend(feed.window_latencies)
            commit_latencies.extend(feed.commit_latencies)
        return {
            "uptime_seconds": round(time.time() - self.started_at, 3),
            "workers": self.session.workers,
            "ingest": {
                "feeds_total": len(feeds),
                "feeds_open": sum(1 for f in feeds if f.state == "open"),
                "chunks": sum(f.chunks_in for f in feeds),
                "packets": sum(f.packets_in for f in feeds),
                "windows": sum(f.windows for f in feeds),
                "pushes_blocked": sum(
                    f.ring.pushes_blocked for f in feeds
                ),
                "blocked_seconds": round(
                    sum(f.ring.blocked_seconds for f in feeds), 6
                ),
            },
            "queues": {
                feed.name: {
                    "depth_packets": feed.ring.depth_packets,
                    "peak_packets": feed.ring.peak_packets,
                    "max_packets": feed.ring.max_packets,
                    "ring_peak_packets": feed.ring_peak_packets,
                }
                for feed in feeds
            },
            "latency": {
                "p95_window_seconds": round(_p95(window_latencies), 6),
                "p95_commit_seconds": round(_p95(commit_latencies), 6),
                "windows_measured": len(commit_latencies),
            },
            "index": self.index.counters(),
        }
