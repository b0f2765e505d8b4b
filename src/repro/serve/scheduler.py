"""Resumable daily ingest: archive days into the label database.

MAWILab's public artifact is a database of *daily* label files kept
current as new trace days appear.  :class:`ArchiveScheduler` is that
loop: it walks an archive's dates on a cadence, labels each day once,
and versions the outputs into a
:class:`~repro.labeling.database.LabelDatabase` — with a crash journal
(:class:`IngestJournal`) so a restarted scheduler resumes mid-archive
instead of re-labeling completed days, and an
:class:`~repro.runner.cache.AlarmCache` so even a forced re-run skips
Step 1 (the expensive detection ensemble) on days it has seen.

Failure handling is per-day: a day that raises is retried with
exponential backoff up to ``max_retries`` times, then journaled as
``failed`` and retried again on the next pass — one bad day never
stalls the rest of the archive.
"""

from __future__ import annotations

import json
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Optional, Sequence

from repro.engine import EngineSpec
from repro.errors import ServeError
from repro.ioutil import write_atomic
from repro.labeling.database import LabelDatabase, LiveLabelIndex
from repro.labeling.warehouse import (
    Warehouse,
    archive_meta,
    warehouse_fingerprint,
)
from repro.runner.cache import AlarmCache, cached_alarms
from repro.runner.config import PipelineConfig
from repro.session import LabelingSession


class IngestJournal:
    """Crash-safe record of which archive days are ingested.

    A tiny JSON document (written atomically via
    :func:`repro.ioutil.write_atomic`) mapping each date to its
    ``status`` (``done`` / ``failed``), attempt count, and the
    scheduler *version* it was produced under.  A restarted scheduler
    with the same version skips ``done`` days; a version change (new
    archive, new ensemble, new configuration) invalidates every entry
    so outputs are regenerated.
    """

    def __init__(self, path: str | Path) -> None:
        self.path = Path(path)
        self._days: dict[str, dict] = {}
        if self.path.exists():
            try:
                payload = json.loads(self.path.read_text())
            except (OSError, ValueError) as exc:
                raise ServeError(
                    f"corrupt ingest journal {self.path}: {exc}"
                ) from exc
            self._days = dict(payload.get("days", {}))

    def entry(self, date: str) -> Optional[dict]:
        return self._days.get(date)

    def is_done(self, date: str, version: str) -> bool:
        entry = self._days.get(date)
        return (
            entry is not None
            and entry.get("status") == "done"
            and entry.get("version") == version
        )

    def record(
        self,
        date: str,
        status: str,
        version: str,
        attempts: int,
        error: Optional[str] = None,
    ) -> None:
        entry = {
            "status": status,
            "version": version,
            "attempts": attempts,
        }
        if error:
            entry["error"] = error
        self._days[date] = entry
        self._flush()

    def _flush(self) -> None:
        self.path.parent.mkdir(parents=True, exist_ok=True)
        write_atomic(
            self.path,
            json.dumps({"days": self._days}, indent=2, sort_keys=True)
            + "\n",
        )

    def dates(self, status: Optional[str] = None) -> list[str]:
        if status is None:
            return sorted(self._days)
        return sorted(
            d for d, e in self._days.items() if e.get("status") == status
        )


@dataclass
class DayOutcome:
    """What happened to one archive day during a scheduler pass."""

    date: str
    status: str  # "done" | "skipped" | "failed"
    attempts: int = 0
    elapsed: float = 0.0
    cache_hit: bool = False
    error: Optional[str] = None
    csv_path: Optional[str] = None

    def describe(self) -> str:
        extra = " (cache hit)" if self.cache_hit else ""
        if self.status == "failed":
            extra = f": {self.error}"
        return f"{self.date}: {self.status}{extra}"


@dataclass
class SchedulerStats:
    """Counters across every pass of one scheduler instance."""

    passes: int = 0
    done: int = 0
    skipped: int = 0
    failed: int = 0
    cache_hits: int = 0
    elapsed: float = 0.0
    outcomes: list[DayOutcome] = field(default_factory=list)


class ArchiveScheduler:
    """Walk archive days into the label database, resumably.

    Parameters
    ----------
    archive:
        Anything with ``fingerprint()`` and ``day(date)`` (the
        :class:`~repro.mawi.archive.SyntheticArchive` contract).
    dates:
        The dates this scheduler is responsible for, in ingest order.
    database:
        Target :class:`~repro.labeling.database.LabelDatabase` (or a
        root path string).
    session:
        Optional shared :class:`~repro.session.LabelingSession`; when
        omitted one is built from ``config``/``engine`` and owned (and
        closed) by the scheduler.
    cache_dir:
        Optional Step 1 alarm-cache directory; with it, a re-labeled
        day (journal wiped, version bumped with same ensemble) skips
        the detection ensemble entirely.
    journal_path:
        Where the :class:`IngestJournal` lives; defaults to
        ``<database root>/ingest-journal.json``.
    index:
        Optional :class:`~repro.labeling.database.LiveLabelIndex` to
        publish each completed day into (the serving daemon's index),
        so scheduled days become queryable without a restart.
    warehouse:
        Optional :class:`~repro.labeling.warehouse.Warehouse` (or root
        path); each completed day is dual-written there as columnar
        segments alongside the CSV, so archived days answer queries
        zero-copy from mmap instead of re-parsing text.
    max_retries:
        Extra attempts per day per pass after the first failure.
    backoff:
        Base delay in seconds between attempts (doubles per retry).
    sleep:
        Injectable sleep (tests pass a recorder to assert backoff
        without waiting).
    version:
        Output version string; defaults to a digest of the archive
        fingerprint, the ensemble fingerprint, and the configuration,
        so any change to the inputs regenerates the outputs.
    """

    def __init__(
        self,
        archive,
        dates: Sequence[str],
        database: LabelDatabase | str,
        *,
        session: Optional[LabelingSession] = None,
        config: Optional[PipelineConfig] = None,
        engine: EngineSpec = None,
        cache_dir: Optional[str] = None,
        journal_path: Optional[str | Path] = None,
        index: Optional[LiveLabelIndex] = None,
        warehouse: Optional[Warehouse | str] = None,
        max_retries: int = 2,
        backoff: float = 0.05,
        sleep: Callable[[float], None] = time.sleep,
        version: Optional[str] = None,
    ) -> None:
        self.archive = archive
        self.dates = list(dates)
        self.database = (
            database
            if isinstance(database, LabelDatabase)
            else LabelDatabase(database)
        )
        self._owns_session = session is None
        self.session = session or LabelingSession(
            config=config, engine=engine
        )
        self.cache = AlarmCache(cache_dir) if cache_dir else None
        self.index = index
        self.max_retries = max_retries
        self.backoff = backoff
        self.sleep = sleep
        self.journal = IngestJournal(
            journal_path
            if journal_path is not None
            else Path(self.database.root) / "ingest-journal.json"
        )
        self.version = version or self._default_version()
        self.warehouse = (
            warehouse
            if warehouse is None or isinstance(warehouse, Warehouse)
            else Warehouse(warehouse)
        )
        self.warehouse_version: Optional[str] = None
        if self.warehouse is not None:
            # Dual-write target: the warehouse version is keyed by the
            # same digest as the scheduler version, so a recompute under
            # an unchanged configuration lands in the same version.
            self.warehouse_version = self.warehouse.ensure_version(
                self._default_version(),
                ensemble_fingerprint=(
                    self.session.pipeline.ensemble_fingerprint()
                ),
                config=repr(self.session.config),
                archive=archive_meta(self.archive),
            )
        self.stats = SchedulerStats()

    def _default_version(self) -> str:
        return warehouse_fingerprint(
            self.archive.fingerprint(),
            self.session.pipeline.ensemble_fingerprint(),
            repr(self.session.config),
        )

    # -- one pass ------------------------------------------------------

    def pending(self) -> list[str]:
        """Dates still owed under the current version, in order."""
        return [
            d
            for d in self.dates
            if not self.journal.is_done(d, self.version)
        ]

    def run_once(
        self,
        limit: Optional[int] = None,
        progress: Optional[Callable[[DayOutcome], None]] = None,
    ) -> list[DayOutcome]:
        """Ingest every pending day (up to ``limit``); one journal
        entry and one versioned day file per success."""
        outcomes: list[DayOutcome] = []
        pending = self.pending()
        if limit is not None:
            pending = pending[:limit]
        done_before = {
            d for d in self.dates if self.journal.is_done(d, self.version)
        }
        for date in self.dates:
            if date in done_before:
                outcome = DayOutcome(date=date, status="skipped")
                outcomes.append(outcome)
                self.stats.skipped += 1
                if progress:
                    progress(outcome)
                continue
            if date not in pending:
                continue
            outcome = self._ingest_day(date)
            outcomes.append(outcome)
            if outcome.status == "done":
                self.stats.done += 1
                if outcome.cache_hit:
                    self.stats.cache_hits += 1
            else:
                self.stats.failed += 1
            if progress:
                progress(outcome)
        self.stats.passes += 1
        self.stats.outcomes.extend(outcomes)
        return outcomes

    def _ingest_day(self, date: str) -> DayOutcome:
        started = time.perf_counter()
        attempts = 0
        last_error: Optional[str] = None
        while attempts <= self.max_retries:
            if attempts:
                self.sleep(self.backoff * (2 ** (attempts - 1)))
            attempts += 1
            try:
                cache_hit, csv_path = self._label_day(date)
            except Exception as exc:  # noqa: BLE001 - per-day isolation
                last_error = f"{type(exc).__name__}: {exc}"
                continue
            self.journal.record(date, "done", self.version, attempts)
            return DayOutcome(
                date=date,
                status="done",
                attempts=attempts,
                elapsed=time.perf_counter() - started,
                cache_hit=cache_hit,
                csv_path=csv_path,
            )
        self.journal.record(
            date, "failed", self.version, attempts, error=last_error
        )
        return DayOutcome(
            date=date,
            status="failed",
            attempts=attempts,
            elapsed=time.perf_counter() - started,
            error=last_error,
        )

    def _label_day(self, date: str) -> tuple[bool, str]:
        day = self.archive.day(date)
        pipeline = self.session.pipeline
        alarms, cache_hit = cached_alarms(
            self.cache, pipeline, day.trace, self.archive.fingerprint(), date
        )
        result = pipeline.run_with_alarms(day.trace, alarms)
        csv_path = self.database.store_day(date, result)
        if self.warehouse is not None:
            self.warehouse.store_result(
                date, result, version=self.warehouse_version
            )
        if self.index is not None:
            self.index.publish_result(date, result)
        return cache_hit, csv_path

    # -- the loop ------------------------------------------------------

    def run_forever(
        self,
        cadence: float,
        stop: Optional[threading.Event] = None,
        progress: Optional[Callable[[DayOutcome], None]] = None,
    ) -> SchedulerStats:
        """Pass over the archive every ``cadence`` seconds until
        ``stop`` is set (the cron-like serving mode)."""
        stop = stop or threading.Event()
        while not stop.is_set():
            self.run_once(progress=progress)
            stop.wait(cadence)
        return self.stats

    def close(self) -> None:
        """Release the session if this scheduler owns it."""
        if self._owns_session:
            self.session.close()

    def __enter__(self) -> "ArchiveScheduler":
        return self

    def __exit__(self, *exc) -> None:
        self.close()
