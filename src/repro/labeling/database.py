"""The MAWILab label database on disk.

The paper's deliverable is a *database*: one label file per archive
day, updated daily, that researchers download and compare against
(Section 5).  This module implements that layout:

    <root>/
      2004/05/01_anomalous_suspicious.csv
      2004/05/02_anomalous_suspicious.csv
      ...

Each day file is the CSV produced by
:func:`~repro.labeling.mawilab.labels_to_csv`, and the day files are
the whole database: :meth:`LabelDatabase.dates` lists them and
:meth:`LabelDatabase.summary` counts one parsed day.
:meth:`LabelDatabase.load_day` parses a stored day back into
lightweight :class:`StoredLabel` rows, and
:meth:`LabelDatabase.load_day_records` into label records usable with
:func:`~repro.eval.benchmark.benchmark_detector`.

:class:`LiveLabelIndex` is the in-memory side: days published by the
serving layer, queried through the warehouse's query path.
"""

from __future__ import annotations

import csv
import glob
import os
import threading
from dataclasses import dataclass
from typing import Optional, Sequence, Union

from repro.errors import LabelingError
from repro.ioutil import write_atomic
from repro.labeling.mawilab import LabelRecord, PipelineResult, labels_to_csv
from repro.labeling.store import LabelStore
from repro.labeling.taxonomy import TAXONOMY_ORDER
from repro.labeling.warehouse import (
    is_iso_day,
    label_segment_columns,
    select_labels,
)
from repro.net.addresses import ip_to_int

_DAY_SUFFIX = "_anomalous_suspicious.csv"


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


def _day_relpath(date: str) -> str:
    if not is_iso_day(date):
        raise LabelingError(f"bad ISO date {date!r}")
    year, month, day = date.split("-")
    return os.path.join(year, month, f"{day}{_DAY_SUFFIX}")


class LabelDatabase:
    """File-based MAWILab-style label repository."""

    def __init__(self, root: str) -> None:
        self.root = root
        os.makedirs(root, exist_ok=True)

    # -- writing -------------------------------------------------------
    #
    # Day files are published atomically (tmp file + ``os.replace`` via
    # :func:`repro.ioutil.write_atomic`): the serve layer queries the
    # database while the scheduler writes it, and a reader must never
    # observe a half-written CSV.

    def store_day(self, date: str, result: PipelineResult) -> str:
        """Store one day's pipeline result; returns the file path."""
        return self.store_day_labels(date, result.labels)

    def store_day_labels(
        self,
        date: str,
        labels: Union[LabelStore, Sequence[LabelRecord]],
    ) -> str:
        """Store one day from bare label records (or a store).

        The streaming/serving paths hold merged
        :class:`~repro.labeling.store.LabelStore` columns rather than a
        full :class:`~repro.labeling.mawilab.PipelineResult`; this
        entry point accepts either.
        """
        path = os.path.join(self.root, _day_relpath(date))
        os.makedirs(os.path.dirname(path), exist_ok=True)
        write_atomic(path, labels_to_csv(labels))
        return path

    # -- reading -------------------------------------------------------

    def dates(self) -> list[str]:
        """Stored dates (one per day file), sorted."""
        dates = []
        pattern = os.path.join(self.root, "*", "*", f"*{_DAY_SUFFIX}")
        for path in glob.glob(pattern):
            year, month, name = os.path.relpath(path, self.root).split(os.sep)
            date = f"{year}-{month}-{name[: -len(_DAY_SUFFIX)]}"
            if is_iso_day(date):
                dates.append(date)
        return sorted(dates)

    def summary(self, date: str) -> dict:
        """Label and alarm counts of one stored day, from its file.

        Communities partition the day's Step 1 alarms, so their alarm
        counts sum to the day's alarm population.
        """
        records = self.load_day_records(date)
        return {
            "date": date,
            "n_communities": len(records),
            **{
                f"n_{name}": sum(r.taxonomy == name for r in records)
                for name in TAXONOMY_ORDER
            },
            "n_alarms": sum(r.n_alarms for r in records),
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


class LiveLabelIndex:
    """In-memory query index over committed label days.

    The serving layer's read side: feeds and the daily scheduler
    *publish* whole days (a :class:`~repro.labeling.store.LabelStore`
    per date) as windows commit, and HTTP queries *select* over the
    published columns without ever touching a pipeline, a feed ring,
    or the on-disk database.  Each day is held as the columns of its
    warehouse label segment
    (:func:`~repro.labeling.warehouse.label_segment_columns`), next
    to its store, and queried through the warehouse's one query path
    (:func:`~repro.labeling.warehouse.select_labels`): the same
    kernel, predicates and rows as a stored day.

    Publishing replaces the date's entry atomically under a lock (a
    day's columns are never modified), so a query sees either the
    previous complete day or the new complete day, mirroring the
    ``os.replace`` discipline of :class:`LabelDatabase` on disk.
    """

    def __init__(self) -> None:
        self._lock = threading.Lock()
        #: date -> (store, segment arrays, segment pools)
        self._days: dict[str, tuple[LabelStore, dict, dict]] = {}
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
        day = (store, *label_segment_columns(store))
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
        return day[0]

    def query(
        self,
        date: Optional[str] = None,
        taxonomy: Optional[str] = None,
        src: Optional[Union[str, int]] = None,
        dst: Optional[Union[str, int]] = None,
        sport: Optional[int] = None,
        dport: Optional[int] = None,
        t0: Optional[float] = None,
        t1: Optional[float] = None,
        limit: Optional[int] = None,
    ) -> list[dict]:
        """Label rows matching every given predicate.

        ``date`` restricts to one published day (all days otherwise,
        in date order); the predicates are those of
        :func:`~repro.labeling.warehouse.select_labels`, and an
        unknown taxonomy raises :class:`~repro.errors.LabelingError`.
        """
        with self._lock:
            dates = sorted(self._days) if date is None else [date]
            days = [
                (day, *self._days[day][1:])
                for day in dates
                if day in self._days
            ]
            self.queries += 1
        return select_labels(
            days,
            taxonomy=taxonomy,
            src=src,
            dst=dst,
            sport=sport,
            dport=dport,
            t0=t0,
            t1=t1,
            limit=limit,
            error=LabelingError,
        )

    def counters(self) -> dict:
        with self._lock:
            return {
                "days": len(self._days),
                "labels": sum(len(day[0]) for day in self._days.values()),
                "publishes": self.publishes,
                "queries": self.queries,
            }
