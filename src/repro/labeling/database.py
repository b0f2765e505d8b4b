"""The MAWILab label database on disk.

The paper's deliverable is a *database*: one label file per archive
day, updated daily, that researchers download and compare against
(Section 5).  This module implements that layout:

    <root>/
      index.csv                     # one row per stored day
      2004/05/01_anomalous_suspicious.csv
      2004/05/02_anomalous_suspicious.csv
      ...

Each day file is the CSV produced by
:func:`~repro.labeling.mawilab.labels_to_csv`; the index records the
day's summary counts so sweeps can be inspected without parsing every
file.  :meth:`LabelDatabase.load_day` parses a stored day back into
lightweight :class:`StoredLabel` records usable with
:func:`~repro.eval.benchmark.benchmark_detector` via
:meth:`StoredLabel.to_record`.
"""

from __future__ import annotations

import csv
import datetime
import os
import re
import threading
from dataclasses import dataclass
from typing import Optional, Sequence, Union

import numpy as np

from repro.errors import LabelingError
from repro.ioutil import write_atomic
from repro.labeling.mawilab import LabelRecord, PipelineResult, labels_to_csv
from repro.labeling.store import LabelStore
from repro.labeling.taxonomy import TAXONOMY_ORDER
from repro.net.addresses import ip_to_int, ip_to_str

_INDEX_FIELDS = [
    "date",
    "n_communities",
    "n_anomalous",
    "n_suspicious",
    "n_notice",
    "n_alarms",
]


@dataclass
class StoredLabel:
    """One (community, rule) row parsed back from a stored day file."""

    community_id: int
    taxonomy: str
    heuristic_category: str
    heuristic_detail: str
    t0: float
    t1: float
    n_alarms: int
    detectors: tuple[str, ...]
    src: Optional[int] = None
    sport: Optional[int] = None
    dst: Optional[int] = None
    dport: Optional[int] = None
    rule_support: float = 0.0


_ISO_DAY = re.compile(r"[0-9]{4}-[0-9]{2}-[0-9]{2}")


def is_iso_day(date) -> bool:
    """Whether ``date`` is a ``YYYY-MM-DD`` calendar date string.

    Day files and warehouse segments are named after the date, so
    nothing else may reach a file path.
    """
    if not isinstance(date, str) or not _ISO_DAY.fullmatch(date):
        return False
    try:
        datetime.date.fromisoformat(date)
    except ValueError:
        return False
    return True


def _day_relpath(date: str) -> str:
    if not is_iso_day(date):
        raise LabelingError(f"bad ISO date {date!r}")
    year, month, day = date.split("-")
    return os.path.join(year, month, f"{day}_anomalous_suspicious.csv")


def _summary_of(
    records: Sequence, n_alarms: Optional[int] = None
) -> dict:
    """Index-row counts for one day's label records."""
    per_taxonomy = {name: 0 for name in TAXONOMY_ORDER}
    for record in records:
        per_taxonomy[record.taxonomy] += 1
    if n_alarms is None:
        # Communities partition the Step 1 alarms, so the per-record
        # counts sum back to the day's alarm population.
        n_alarms = sum(record.n_alarms for record in records)
    return {
        "n_communities": len(records),
        "n_anomalous": per_taxonomy["anomalous"],
        "n_suspicious": per_taxonomy["suspicious"],
        "n_notice": per_taxonomy["notice"],
        "n_alarms": n_alarms,
    }


class LabelDatabase:
    """File-based MAWILab-style label repository."""

    def __init__(self, root: str) -> None:
        self.root = root
        os.makedirs(root, exist_ok=True)

    # -- writing -------------------------------------------------------
    #
    # Day files and the index are published atomically (tmp file +
    # ``os.replace`` via :func:`repro.ioutil.write_atomic`): the serve
    # layer queries the database while the scheduler writes it, and a
    # reader must never observe a half-written CSV.

    def store_day(self, date: str, result: PipelineResult) -> str:
        """Store one day's pipeline result; returns the file path."""
        return self.store_day_labels(
            date, result.labels, n_alarms=len(result.alarms)
        )

    def store_day_labels(
        self,
        date: str,
        labels: Union[LabelStore, Sequence[LabelRecord]],
        n_alarms: Optional[int] = None,
    ) -> str:
        """Store one day from bare label records (or a store).

        The streaming/serving paths hold merged
        :class:`~repro.labeling.store.LabelStore` columns rather than a
        full :class:`~repro.labeling.mawilab.PipelineResult`; this
        entry point accepts either.  ``n_alarms`` defaults to the sum
        of per-community alarm counts (the Step 1 population when every
        alarm belongs to a community, as the pipeline guarantees).
        """
        records = (
            labels.to_records()
            if isinstance(labels, LabelStore)
            else list(labels)
        )
        path = os.path.join(self.root, _day_relpath(date))
        os.makedirs(os.path.dirname(path), exist_ok=True)
        write_atomic(path, labels_to_csv(records))
        self._write_index_entry(date, _summary_of(records, n_alarms))
        return path

    # The index used to be read, modified, and atomically rewritten in
    # full on every stored day — O(days²) across an archive ingest.
    # Stores now append one row to ``index-journal.csv`` (an O(1)
    # append; a torn final line is tolerated on read) and readers merge
    # the journal over ``index.csv``; the journal is compacted back
    # into the index atomically once it passes
    # ``_JOURNAL_COMPACT_AFTER`` rows, so reads stay O(days) and the
    # journal stays bounded.

    _JOURNAL_COMPACT_AFTER = 64

    def _journal_path(self) -> str:
        return os.path.join(self.root, "index-journal.csv")

    def _write_index_entry(self, date: str, counts: dict) -> None:
        row = {"date": date, **counts}
        index_path = os.path.join(self.root, "index.csv")
        if not os.path.exists(index_path):
            # First store (or a wiped index): compacting now seeds the
            # index file readers and operators expect to exist.
            self._write_index({**self._read_index(), date: row})
            return
        with open(self._journal_path(), "a", newline="") as handle:
            csv.writer(handle).writerow(
                [row[name] for name in _INDEX_FIELDS]
            )
        if self._journal_rows() >= self._JOURNAL_COMPACT_AFTER:
            self._write_index(self._read_index())

    def _journal_rows(self) -> int:
        try:
            with open(self._journal_path(), newline="") as handle:
                return sum(1 for _ in handle)
        except OSError:
            return 0

    def _read_journal(self) -> dict[str, dict]:
        entries: dict[str, dict] = {}
        try:
            with open(self._journal_path(), newline="") as handle:
                for row in csv.reader(handle):
                    # Skip short/torn rows (e.g. a crash mid-append);
                    # later rows win, matching append order.
                    if len(row) != len(_INDEX_FIELDS):
                        continue
                    entries[row[0]] = dict(zip(_INDEX_FIELDS, row))
        except OSError:
            return {}
        return entries

    def _write_index(self, entries: dict[str, dict]) -> None:
        import io

        out = io.StringIO()
        writer = csv.DictWriter(out, fieldnames=_INDEX_FIELDS)
        writer.writeheader()
        for key in sorted(entries):
            writer.writerow(entries[key])
        write_atomic(os.path.join(self.root, "index.csv"), out.getvalue())
        # The full index supersedes the journal.  Removing it after the
        # atomic publish is crash-safe: re-applying surviving journal
        # rows over the new index is idempotent.
        try:
            os.unlink(self._journal_path())
        except OSError:
            pass

    def _update_index(self, date: str, result: PipelineResult) -> None:
        self._write_index_entry(
            date, _summary_of(list(result.labels), len(result.alarms))
        )

    def rebuild_index(self) -> list[str]:
        """Rewrite ``index.csv`` from the stored day files.

        Recovery path for a corrupt or missing index (e.g. a crash
        predating atomic writes, or a partially copied tree): every
        ``<year>/<month>/<day>_anomalous_suspicious.csv`` under the
        root is parsed and its summary counts recomputed.  Returns the
        recovered dates, sorted.
        """
        entries: dict[str, dict] = {}
        for date in self._scan_day_files():
            records = self.load_day_records(date)
            entries[date] = {
                "date": date,
                **_summary_of(records, n_alarms=None),
            }
        self._write_index(entries)
        return sorted(entries)

    def _scan_day_files(self) -> list[str]:
        suffix = "_anomalous_suspicious.csv"
        dates = []
        for year in sorted(os.listdir(self.root)):
            if not (year.isdigit() and os.path.isdir(os.path.join(self.root, year))):
                continue
            for month in sorted(os.listdir(os.path.join(self.root, year))):
                month_dir = os.path.join(self.root, year, month)
                if not os.path.isdir(month_dir):
                    continue
                for name in sorted(os.listdir(month_dir)):
                    if name.endswith(suffix):
                        day = name[: -len(suffix)]
                        dates.append(f"{year}-{month}-{day}")
        return dates

    def _read_index(self) -> dict[str, dict]:
        index_path = os.path.join(self.root, "index.csv")
        entries: dict[str, dict] = {}
        if os.path.exists(index_path):
            with open(index_path, newline="") as handle:
                entries = {
                    row["date"]: row for row in csv.DictReader(handle)
                }
        entries.update(self._read_journal())
        return entries

    # -- reading -------------------------------------------------------

    def dates(self) -> list[str]:
        """Stored dates, sorted."""
        return sorted(self._read_index())

    def summary(self, date: str) -> dict:
        """Index row of one stored day."""
        entries = self._read_index()
        if date not in entries:
            raise LabelingError(f"no stored labels for {date}")
        row = entries[date]
        return {
            "date": row["date"],
            **{k: int(row[k]) for k in _INDEX_FIELDS[1:]},
        }

    def load_day(self, date: str) -> list[StoredLabel]:
        """Parse one stored day file back into rows."""
        path = os.path.join(self.root, _day_relpath(date))
        if not os.path.exists(path):
            raise LabelingError(f"no stored labels for {date}")
        rows: list[StoredLabel] = []
        with open(path, newline="") as handle:
            for row in csv.DictReader(handle):
                rows.append(
                    StoredLabel(
                        community_id=int(row["community"]),
                        taxonomy=row["taxonomy"],
                        heuristic_category=row["heuristic_category"],
                        heuristic_detail=row["heuristic_detail"],
                        t0=float(row["t0"]),
                        t1=float(row["t1"]),
                        n_alarms=int(row["n_alarms"]),
                        detectors=tuple(
                            d for d in row["detectors"].split("|") if d
                        ),
                        src=ip_to_int(row["src"]) if row["src"] else None,
                        sport=int(row["sport"]) if row["sport"] else None,
                        dst=ip_to_int(row["dst"]) if row["dst"] else None,
                        dport=int(row["dport"]) if row["dport"] else None,
                        rule_support=float(row["rule_support"])
                        if row["rule_support"]
                        else 0.0,
                    )
                )
        return rows

    def load_day_records(self, date: str) -> list[LabelRecord]:
        """Reassemble :class:`LabelRecord` objects from a stored day.

        Rules of the same community collapse back into one record, so
        the result is directly usable with
        :func:`~repro.eval.benchmark.benchmark_detector`.
        """
        from repro.labeling.heuristics import HeuristicLabel
        from repro.rules.itemsets import Rule
        from repro.rules.summarize import CommunitySummary

        grouped: dict[int, list[StoredLabel]] = {}
        for row in self.load_day(date):
            grouped.setdefault(row.community_id, []).append(row)
        records: list[LabelRecord] = []
        for community_id in sorted(grouped):
            rows = grouped[community_id]
            first = rows[0]
            rules = [
                Rule(
                    src=row.src,
                    sport=row.sport,
                    dst=row.dst,
                    dport=row.dport,
                    support=row.rule_support,
                )
                for row in rows
                if any(
                    v is not None
                    for v in (row.src, row.sport, row.dst, row.dport)
                )
            ]
            degree = (
                sum(rule.degree for rule in rules) / len(rules) if rules else 0.0
            )
            records.append(
                LabelRecord(
                    community_id=community_id,
                    taxonomy=first.taxonomy,
                    heuristic=HeuristicLabel(
                        first.heuristic_category, first.heuristic_detail
                    ),
                    summary=CommunitySummary(
                        rules=rules,
                        rule_degree=degree,
                        rule_support=0.0,
                        n_transactions=0,
                    ),
                    t0=first.t0,
                    t1=first.t1,
                    n_alarms=first.n_alarms,
                    detectors=first.detectors,
                )
            )
        return records


# -- live query index --------------------------------------------------


def _address_code(value: Union[str, int]) -> int:
    """Normalize a query address (dotted quad or integer) to its code."""
    if isinstance(value, int):
        return value
    text = str(value)
    if "." in text:
        return ip_to_int(text)
    try:
        return int(text)
    except ValueError as exc:
        raise LabelingError(f"bad address {value!r}") from exc


class _DayIndex:
    """One published day: a LabelStore plus query-axis arrays.

    Built once per publish and immutable afterwards; queries read the
    store's numeric columns (taxonomy codes, time spans) directly and
    resolve flow-key predicates through flattened per-rule arrays
    (``-1`` encodes a wildcard field), so no pipeline object is ever
    touched at query time.
    """

    __slots__ = (
        "store",
        "rule_record",
        "rule_src",
        "rule_dst",
        "rule_sport",
        "rule_dport",
    )

    def __init__(self, store: LabelStore) -> None:
        self.store = store
        record_idx: list[int] = []
        fields: dict[str, list[int]] = {
            "src": [], "dst": [], "sport": [], "dport": []
        }
        for i, summary in enumerate(store.summaries):
            for rule in getattr(summary, "rules", ()):
                record_idx.append(i)
                for name in fields:
                    value = getattr(rule, name)
                    fields[name].append(-1 if value is None else int(value))
        self.rule_record = np.asarray(record_idx, dtype=np.int64)
        self.rule_src = np.asarray(fields["src"], dtype=np.int64)
        self.rule_dst = np.asarray(fields["dst"], dtype=np.int64)
        self.rule_sport = np.asarray(fields["sport"], dtype=np.int64)
        self.rule_dport = np.asarray(fields["dport"], dtype=np.int64)

    def select(
        self,
        taxonomy: Optional[str] = None,
        src: Optional[Union[str, int]] = None,
        dst: Optional[Union[str, int]] = None,
        t0: Optional[float] = None,
        t1: Optional[float] = None,
    ) -> np.ndarray:
        """Row indices matching every given predicate, in store order."""
        store = self.store
        mask = np.ones(len(store), dtype=bool)
        if taxonomy is not None:
            if taxonomy not in TAXONOMY_ORDER:
                raise LabelingError(
                    f"unknown taxonomy {taxonomy!r}; "
                    f"known: {list(TAXONOMY_ORDER)}"
                )
            mask &= store.taxonomy_code == TAXONOMY_ORDER.index(taxonomy)
        if t0 is not None:
            mask &= store.t1 >= float(t0)
        if t1 is not None:
            mask &= store.t0 <= float(t1)
        for value, column in ((src, self.rule_src), (dst, self.rule_dst)):
            if value is None:
                continue
            hits = self.rule_record[column == _address_code(value)]
            rule_mask = np.zeros(len(store), dtype=bool)
            rule_mask[hits] = True
            mask &= rule_mask
        return np.nonzero(mask)[0]


def _label_row(date: str, record: LabelRecord) -> dict:
    """One query-result row (JSON-shaped; rules nested per label)."""
    return {
        "date": date,
        "community": record.community_id,
        "taxonomy": record.taxonomy,
        "heuristic_category": record.heuristic.category,
        "heuristic_detail": record.heuristic.detail,
        "t0": record.t0,
        "t1": record.t1,
        "n_alarms": record.n_alarms,
        "detectors": list(record.detectors),
        "rules": [
            {
                "src": ip_to_str(rule.src) if rule.src is not None else None,
                "sport": rule.sport,
                "dst": ip_to_str(rule.dst) if rule.dst is not None else None,
                "dport": rule.dport,
                "support": rule.support,
            }
            for rule in record.summary.rules
        ],
    }


class LiveLabelIndex:
    """In-memory query index over committed label days.

    The serving layer's read side: feeds and the daily scheduler
    *publish* whole days (a :class:`~repro.labeling.store.LabelStore`
    per date) as windows commit, and HTTP queries *select* over the
    published columns — time spans, taxonomy codes, concise-rule flow
    keys — without ever touching a pipeline, a feed ring, or the
    on-disk database.

    Publishing replaces the date's entry atomically under a lock (the
    per-day :class:`_DayIndex` is immutable), so a query sees either
    the previous complete day or the new complete day, mirroring the
    ``os.replace`` discipline of :class:`LabelDatabase` on disk.
    """

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._days: dict[str, _DayIndex] = {}
        self.publishes = 0
        self.queries = 0

    # -- write side (pipeline commits) ---------------------------------

    def publish(
        self,
        date: str,
        labels: Union[LabelStore, Sequence[LabelRecord]],
    ) -> None:
        """Publish (or replace) one day's labels."""
        store = (
            labels
            if isinstance(labels, LabelStore)
            else LabelStore.from_records(list(labels))
        )
        day = _DayIndex(store)
        with self._lock:
            self._days[date] = day
            self.publishes += 1

    def publish_result(self, date: str, result: PipelineResult) -> None:
        """Publish one day from a full pipeline result."""
        self.publish(date, result.label_store())

    def drop(self, date: str) -> None:
        with self._lock:
            self._days.pop(date, None)

    # -- read side (queries) -------------------------------------------

    def dates(self) -> list[str]:
        with self._lock:
            return sorted(self._days)

    def store_for(self, date: str) -> LabelStore:
        """The published store of one day (for whole-day exports)."""
        with self._lock:
            day = self._days.get(date)
        if day is None:
            raise LabelingError(f"no published labels for {date}")
        return day.store

    def query(
        self,
        date: Optional[str] = None,
        taxonomy: Optional[str] = None,
        src: Optional[Union[str, int]] = None,
        dst: Optional[Union[str, int]] = None,
        t0: Optional[float] = None,
        t1: Optional[float] = None,
        limit: Optional[int] = None,
    ) -> list[dict]:
        """Label rows matching every given predicate.

        ``date`` restricts to one published day (all days otherwise,
        in date order); ``taxonomy`` is one of the paper's three
        labels; ``src`` / ``dst`` match labels whose concise rules pin
        that address (dotted quad or integer); ``t0`` / ``t1`` keep
        labels whose span overlaps ``[t0, t1]``.
        """
        with self._lock:
            if date is None:
                days = [(d, self._days[d]) for d in sorted(self._days)]
            else:
                day = self._days.get(date)
                days = [] if day is None else [(date, day)]
            self.queries += 1
        rows: list[dict] = []
        for day_date, day in days:
            for i in day.select(
                taxonomy=taxonomy, src=src, dst=dst, t0=t0, t1=t1
            ):
                rows.append(_label_row(day_date, day.store.record(int(i))))
                if limit is not None and len(rows) >= limit:
                    return rows
        return rows

    def counters(self) -> dict:
        with self._lock:
            return {
                "days": len(self._days),
                "labels": sum(
                    len(day.store) for day in self._days.values()
                ),
                "publishes": self.publishes,
                "queries": self.queries,
            }
