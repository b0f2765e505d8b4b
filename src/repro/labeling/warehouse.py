"""The memory-mapped columnar label warehouse.

MAWILab's artifact is a *longitudinal* database: years of labeled days
queried across time.  The per-day CSV files of
:class:`~repro.labeling.database.LabelDatabase` pay a full text parse
per query; this module stores the same days as versioned, checksummed
**columnar segments** — the raw arrays of
:class:`~repro.labeling.store.LabelStore` and
:class:`~repro.core.alarm_table.AlarmTable`, including the ragged
detector/annotation/rule blocks and the string name pools — that open
zero-copy via ``np.memmap``.

Layout
------
::

    <root>/
      manifest.json                  # versions, per-file bytes + sha256
      v0001/
        2004-06-01.labels.seg
        2004-06-01.alarms.seg
        ...
      v0002/                         # a recompute under a new config
        ...

Each segment file is ``MWLW`` magic, a little-endian format/u64 header
length, a JSON descriptor (array names, dtypes, lengths, relative
offsets, string pools, metadata), then 64-byte-aligned column blocks.
Segments are published atomically
(:func:`repro.ioutil.write_atomic_bytes`) and the manifest through
:func:`repro.ioutil.write_atomic`, so readers never observe a torn
file; the manifest records every segment's byte size and SHA-256, so a
truncated file is rejected on open (size check) and silent corruption
by :meth:`Warehouse.verify` (hash check).

mmap lifecycle: :meth:`Warehouse.open_labels` caches one read-only
``np.memmap`` per ``(version, date, kind)``; column views slice it
without copying, and :class:`LabelStore` / :class:`AlarmTable`
constructors accept those views as-is (``np.asarray`` is a no-op for
matching dtypes).  :meth:`Warehouse.close` drops the handles; the maps
are read-only, so dropping them is always safe.

Queries (:meth:`Warehouse.query`) push predicates — taxonomy, time
overlap, rule src/dst/sport/dport — down onto the mapped columns via
the paired ``"warehouse_select"`` engine kernels and only render the
matching rows, in the JSON row shape of
:class:`~repro.labeling.database.LiveLabelIndex`.

Delta recompute (:meth:`Warehouse.recompute`): the warehouse
fingerprint digests (archive, ensemble, configuration).  A heuristics-
or combiner-only change keeps the ensemble fingerprint, so Step 1
alarms are reused from the :class:`~repro.runner.cache.AlarmCache` or
the previous version's alarm segments and only Steps 2–4 rerun; the
new labels land in a fresh version directory and the old version stays
readable, with a per-day diff (added / removed / taxonomy-changed
communities) reported.
"""

from __future__ import annotations

import hashlib
import json
import os
from dataclasses import dataclass, field
from pathlib import Path
from typing import Optional, Sequence, Union

import numpy as np

from repro.core.alarm_table import ALL_ARRAYS, AlarmTable
from repro.engine import EngineSpec, resolve_engine
from repro.errors import WarehouseError
from repro.ioutil import write_atomic, write_atomic_bytes
from repro.labeling.database import _address_code
from repro.labeling.mawilab import LabelRecord, PipelineResult, labels_to_csv
from repro.labeling.store import (
    LABEL_BOUND_COLUMNS,
    LABEL_COLUMNS,
    LabelStore,
    taxonomy_counts,
)
from repro.labeling.taxonomy import TAXONOMY_ORDER
from repro.net.addresses import ip_to_str

_MAGIC = b"MWLW"
_FORMAT = 1
_ALIGN = 64

_MANIFEST_NAME = "manifest.json"

#: Per-record summary columns spilled next to the label columns so a
#: decoded store round-trips ``CommunitySummary`` exactly.
_SUMMARY_COLUMNS = ("s_rule_degree", "s_rule_support", "s_n_transactions")

#: Flat per-rule columns (``-1`` = wildcard ``None``); ``r_record``
#: maps each rule row back to its owning record for rule-predicate
#: scatter without touching the ragged bounds.
_RULE_COLUMNS = (
    "r_record", "r_src", "r_sport", "r_dst", "r_dport",
    "r_support", "r_count",
)


def warehouse_fingerprint(
    archive_fingerprint: str,
    ensemble_fingerprint: str,
    config_repr: str,
) -> str:
    """Digest of everything a warehouse version depends on.

    The same material (and format) as the archive scheduler's default
    version string, so scheduler-ingested warehouses and
    :meth:`Warehouse.recompute` agree on when outputs are current.
    """
    material = ":".join(
        (archive_fingerprint, ensemble_fingerprint, config_repr)
    )
    return "v" + hashlib.sha256(material.encode()).hexdigest()[:12]


def archive_meta(archive) -> dict:
    """Manifest-storable description of an archive.

    Records the fingerprint plus, for synthetic archives, the
    ``seed`` / ``trace_duration`` needed to regenerate day traces at
    recompute time.
    """
    meta = {"fingerprint": archive.fingerprint()}
    for attr in ("seed", "trace_duration"):
        if hasattr(archive, attr):
            meta[attr] = getattr(archive, attr)
    return meta


# -- segment codec ------------------------------------------------------


def _pad(length: int) -> int:
    return (-length) % _ALIGN


def _sha256_file(path: Path) -> str:
    digest = hashlib.sha256()
    with open(path, "rb") as handle:
        for block in iter(lambda: handle.read(1 << 20), b""):
            digest.update(block)
    return digest.hexdigest()


def encode_segment(
    kind: str,
    arrays: Sequence[tuple[str, np.ndarray]],
    pools: dict[str, Sequence[str]],
    meta: dict,
) -> bytes:
    """Serialize named columns into one segment byte string."""
    descriptors = []
    blobs = []
    offset = 0
    for name, array in arrays:
        array = np.ascontiguousarray(array)
        blob = array.tobytes()
        descriptors.append(
            {
                "name": name,
                "dtype": array.dtype.str,
                "length": int(array.shape[0]),
                "offset": offset,
            }
        )
        blobs.append(blob)
        offset += len(blob) + _pad(len(blob))
    header = json.dumps(
        {
            "kind": kind,
            "arrays": descriptors,
            "pools": {name: list(pool) for name, pool in pools.items()},
            "meta": meta,
            "data_bytes": offset,
        },
        sort_keys=True,
    ).encode()
    out = bytearray()
    out += _MAGIC
    out += _FORMAT.to_bytes(4, "little")
    out += len(header).to_bytes(8, "little")
    out += header
    out += b"\x00" * _pad(len(out))
    for blob in blobs:
        out += blob
        out += b"\x00" * _pad(len(blob))
    return bytes(out)


class Segment:
    """One opened segment file: mapped column views + pools + meta."""

    __slots__ = ("path", "kind", "arrays", "pools", "meta")

    def __init__(self, path: Union[str, Path], kind: Optional[str] = None):
        self.path = Path(path)
        try:
            size = os.path.getsize(self.path)
            with open(self.path, "rb") as handle:
                head = handle.read(16)
                if len(head) < 16 or head[:4] != _MAGIC:
                    raise WarehouseError(
                        f"not a warehouse segment: {self.path}"
                    )
                fmt = int.from_bytes(head[4:8], "little")
                if fmt != _FORMAT:
                    raise WarehouseError(
                        f"unsupported segment format {fmt} in {self.path}"
                    )
                header_len = int.from_bytes(head[8:16], "little")
                if 16 + header_len > size:
                    raise WarehouseError(
                        f"truncated segment header: {self.path}"
                    )
                try:
                    header = json.loads(handle.read(header_len))
                except ValueError as exc:
                    raise WarehouseError(
                        f"corrupt segment header: {self.path}: {exc}"
                    ) from exc
        except OSError as exc:
            raise WarehouseError(
                f"unreadable segment {self.path}: {exc}"
            ) from exc
        self.kind = header["kind"]
        if kind is not None and self.kind != kind:
            raise WarehouseError(
                f"segment {self.path} holds {self.kind!r}, wanted {kind!r}"
            )
        self.pools = {
            name: tuple(pool) for name, pool in header["pools"].items()
        }
        self.meta = header["meta"]
        data_start = 16 + header_len + _pad(16 + header_len)
        if data_start + int(header["data_bytes"]) > size:
            raise WarehouseError(f"truncated segment: {self.path}")
        raw = np.memmap(self.path, dtype=np.uint8, mode="r")
        self.arrays = {}
        for descriptor in header["arrays"]:
            dtype = np.dtype(descriptor["dtype"])
            start = data_start + int(descriptor["offset"])
            nbytes = int(descriptor["length"]) * dtype.itemsize
            self.arrays[descriptor["name"]] = raw[
                start : start + nbytes
            ].view(dtype)


def _encode_rule_field(rules, attr: str) -> np.ndarray:
    return np.fromiter(
        (
            -1 if getattr(rule, attr) is None else int(getattr(rule, attr))
            for rule in rules
        ),
        np.int64,
        count=len(rules),
    )


def encode_label_segment(store: LabelStore, meta: dict) -> bytes:
    """Spill a :class:`LabelStore` (summaries included) into bytes."""
    n = len(store)
    rule_bounds = np.zeros(n + 1, dtype=np.int64)
    rules = []
    for i, summary in enumerate(store.summaries):
        day_rules = list(getattr(summary, "rules", ()) or ())
        rule_bounds[i + 1] = rule_bounds[i] + len(day_rules)
        rules.extend(day_rules)
    m = len(rules)
    arrays = [(name, getattr(store, name)) for name in LABEL_COLUMNS]
    arrays += [(name, getattr(store, name)) for name in LABEL_BOUND_COLUMNS]
    arrays += [
        (
            "s_rule_degree",
            np.fromiter(
                (s.rule_degree for s in store.summaries), np.float64, count=n
            ),
        ),
        (
            "s_rule_support",
            np.fromiter(
                (s.rule_support for s in store.summaries), np.float64, count=n
            ),
        ),
        (
            "s_n_transactions",
            np.fromiter(
                (s.n_transactions for s in store.summaries),
                np.int64,
                count=n,
            ),
        ),
        ("rule_bounds", rule_bounds),
        (
            "r_record",
            np.repeat(
                np.arange(n, dtype=np.int64), rule_bounds[1:] - rule_bounds[:-1]
            ),
        ),
        ("r_src", _encode_rule_field(rules, "src")),
        ("r_sport", _encode_rule_field(rules, "sport")),
        ("r_dst", _encode_rule_field(rules, "dst")),
        ("r_dport", _encode_rule_field(rules, "dport")),
        (
            "r_support",
            np.fromiter((r.support for r in rules), np.float64, count=m),
        ),
        (
            "r_count",
            np.fromiter((r.count for r in rules), np.int64, count=m),
        ),
    ]
    pools = {
        "categories": store.categories,
        "details": store.details,
        "detector_names": store.detector_names,
        "annotation_tags": store.annotation_tags,
    }
    return encode_segment("labels", arrays, pools, meta)


def label_store_from_segment(segment: Segment) -> LabelStore:
    """Rebuild a full-fidelity :class:`LabelStore` from mapped columns.

    Numeric columns pass through zero-copy; only the per-record
    ``CommunitySummary`` objects (rules included) are materialized,
    because they are Python objects by definition.
    """
    from repro.rules.itemsets import Rule
    from repro.rules.summarize import CommunitySummary

    arrays = segment.arrays
    n = len(arrays["community_id"])
    rule_bounds = arrays["rule_bounds"]

    def opt(column: str, j: int) -> Optional[int]:
        value = int(arrays[column][j])
        return None if value < 0 else value

    summaries = []
    for i in range(n):
        lo, hi = int(rule_bounds[i]), int(rule_bounds[i + 1])
        summaries.append(
            CommunitySummary(
                rules=[
                    Rule(
                        src=opt("r_src", j),
                        sport=opt("r_sport", j),
                        dst=opt("r_dst", j),
                        dport=opt("r_dport", j),
                        support=float(arrays["r_support"][j]),
                        count=int(arrays["r_count"][j]),
                    )
                    for j in range(lo, hi)
                ],
                rule_degree=float(arrays["s_rule_degree"][i]),
                rule_support=float(arrays["s_rule_support"][i]),
                n_transactions=int(arrays["s_n_transactions"][i]),
            )
        )
    return LabelStore(
        **{name: arrays[name] for name in LABEL_COLUMNS},
        detector_bounds=arrays["detector_bounds"],
        annotation_bounds=arrays["annotation_bounds"],
        categories=segment.pools["categories"],
        details=segment.pools["details"],
        detector_names=segment.pools["detector_names"],
        annotation_tags=segment.pools["annotation_tags"],
        summaries=summaries,
    )


def encode_alarm_segment(table: AlarmTable, meta: dict) -> bytes:
    """Spill an :class:`AlarmTable` into bytes (all 19 arrays + pools)."""
    arrays = [(name, getattr(table, name)) for name in ALL_ARRAYS]
    pools = {"detectors": table.detectors, "configs": table.configs}
    return encode_segment("alarms", arrays, pools, meta)


def alarm_table_from_segment(segment: Segment) -> AlarmTable:
    """Rebuild an :class:`AlarmTable` zero-copy from mapped columns."""
    return AlarmTable(
        *(segment.arrays[name] for name in ALL_ARRAYS),
        detectors=segment.pools["detectors"],
        configs=segment.pools["configs"],
    )


# -- recompute reporting ------------------------------------------------


@dataclass
class DayDiff:
    """Label-set delta of one day between two warehouse versions."""

    date: str
    added: list[int] = field(default_factory=list)
    removed: list[int] = field(default_factory=list)
    taxonomy_changed: list[dict] = field(default_factory=list)
    n_before: int = 0
    n_after: int = 0

    def to_payload(self) -> dict:
        return {
            "date": self.date,
            "added": self.added,
            "removed": self.removed,
            "taxonomy_changed": self.taxonomy_changed,
            "n_before": self.n_before,
            "n_after": self.n_after,
        }


@dataclass
class RecomputeReport:
    """What one :meth:`Warehouse.recompute` pass did."""

    old_version: Optional[str]
    new_version: Optional[str]
    fingerprint: str
    changed: bool
    ensemble_changed: bool = False
    days: list[DayDiff] = field(default_factory=list)
    cache_hits: int = 0
    segment_hits: int = 0
    step1_reruns: int = 0
    elapsed: float = 0.0

    def to_payload(self) -> dict:
        return {
            "old_version": self.old_version,
            "new_version": self.new_version,
            "fingerprint": self.fingerprint,
            "changed": self.changed,
            "ensemble_changed": self.ensemble_changed,
            "cache_hits": self.cache_hits,
            "segment_hits": self.segment_hits,
            "step1_reruns": self.step1_reruns,
            "elapsed": round(self.elapsed, 6),
            "days": [day.to_payload() for day in self.days],
        }


# -- the warehouse ------------------------------------------------------


class Warehouse:
    """Versioned columnar day store rooted at ``root``."""

    def __init__(self, root: Union[str, Path]) -> None:
        self.root = Path(root)
        self.root.mkdir(parents=True, exist_ok=True)
        self._segments: dict[tuple[str, str, str], Segment] = {}
        manifest_path = self.root / _MANIFEST_NAME
        if manifest_path.exists():
            try:
                self._manifest = json.loads(manifest_path.read_text())
            except (OSError, ValueError) as exc:
                raise WarehouseError(
                    f"corrupt warehouse manifest {manifest_path}: {exc}"
                ) from exc
        else:
            self._manifest = {
                "format": _FORMAT,
                "current": None,
                "versions": {},
            }

    # -- manifest ------------------------------------------------------

    def _save_manifest(self) -> None:
        write_atomic(
            self.root / _MANIFEST_NAME,
            json.dumps(self._manifest, indent=2, sort_keys=True) + "\n",
        )

    @property
    def current_version(self) -> Optional[str]:
        return self._manifest["current"]

    def versions(self) -> list[str]:
        return sorted(self._manifest["versions"])

    def _version_entry(self, version: Optional[str]) -> tuple[str, dict]:
        version = version or self.current_version
        if version is None:
            raise WarehouseError(f"warehouse {self.root} has no versions")
        try:
            return version, self._manifest["versions"][version]
        except KeyError:
            raise WarehouseError(
                f"unknown warehouse version {version!r}; "
                f"known: {self.versions()}"
            ) from None

    def ensure_version(
        self,
        fingerprint: str,
        *,
        ensemble_fingerprint: Optional[str] = None,
        config: Optional[str] = None,
        archive: Optional[dict] = None,
        activate: bool = True,
    ) -> str:
        """The version id for ``fingerprint``, creating it if new.

        An existing version with the same fingerprint is reused (and
        re-activated when ``activate``); otherwise the next ``vNNNN``
        directory is allocated and recorded in the manifest.
        """
        for version_id, entry in self._manifest["versions"].items():
            if entry["fingerprint"] == fingerprint:
                if activate and self._manifest["current"] != version_id:
                    self._manifest["current"] = version_id
                    self._save_manifest()
                return version_id
        version_id = f"v{len(self._manifest['versions']) + 1:04d}"
        (self.root / version_id).mkdir(parents=True, exist_ok=True)
        self._manifest["versions"][version_id] = {
            "fingerprint": fingerprint,
            "ensemble_fingerprint": ensemble_fingerprint,
            "config": config,
            "archive": archive,
            "days": {},
        }
        if activate or self._manifest["current"] is None:
            self._manifest["current"] = version_id
        self._save_manifest()
        return version_id

    def set_current(self, version: str) -> None:
        version, _ = self._version_entry(version)
        if self._manifest["current"] != version:
            self._manifest["current"] = version
            self._save_manifest()

    # -- writing -------------------------------------------------------

    def store_day(
        self,
        date: str,
        labels: Union[LabelStore, Sequence[LabelRecord]],
        *,
        alarms: Optional[AlarmTable] = None,
        n_alarms: Optional[int] = None,
        version: Optional[str] = None,
    ) -> str:
        """Spill one day's labels (and optionally alarms) to segments.

        Returns the label segment path.  Segment files are published
        atomically and the manifest (bytes + SHA-256 per file) last, so
        a crash mid-store leaves the previous manifest pointing only at
        complete files.
        """
        version, entry = self._version_entry(version)
        store = (
            labels
            if isinstance(labels, LabelStore)
            else LabelStore.from_records(list(labels))
        )
        if n_alarms is None:
            n_alarms = (
                len(alarms)
                if alarms is not None
                else int(store.n_alarms.sum())
            )
        directory = self.root / version
        directory.mkdir(parents=True, exist_ok=True)

        def publish(kind: str, payload: bytes, records: int) -> dict:
            path = directory / f"{date}.{kind}.seg"
            write_atomic_bytes(path, payload)
            self._segments.pop((version, date, kind), None)
            return {
                "file": f"{version}/{path.name}",
                "bytes": len(payload),
                "sha256": hashlib.sha256(payload).hexdigest(),
                "records": records,
            }

        meta = {"date": date, "version": version}
        day_entry = {
            "labels": publish(
                "labels", encode_label_segment(store, meta), len(store)
            ),
            "alarms": (
                publish("alarms", encode_alarm_segment(alarms, meta), len(alarms))
                if alarms is not None
                else None
            ),
            "counts": {
                "n_communities": len(store),
                **{
                    f"n_{name}": count
                    for name, count in taxonomy_counts(store).items()
                },
                "n_alarms": int(n_alarms),
            },
        }
        entry["days"][date] = day_entry
        self._save_manifest()
        return str(directory / f"{date}.labels.seg")

    def store_result(
        self,
        date: str,
        result: PipelineResult,
        version: Optional[str] = None,
    ) -> str:
        """Spill one pipeline result (labels + Step 1 alarms)."""
        return self.store_day(
            date,
            result.label_store(),
            alarms=result.alarms,
            n_alarms=len(result.alarms),
            version=version,
        )

    # -- reading -------------------------------------------------------

    def dates(self, version: Optional[str] = None) -> list[str]:
        _, entry = self._version_entry(version)
        return sorted(entry["days"])

    def has_day(self, date: str, version: Optional[str] = None) -> bool:
        if version is None and self.current_version is None:
            return False
        _, entry = self._version_entry(version)
        return date in entry["days"]

    def _segment(
        self,
        date: str,
        kind: str,
        version: Optional[str] = None,
        verify: bool = False,
    ) -> Segment:
        version, entry = self._version_entry(version)
        try:
            file_entry = entry["days"][date][kind]
        except KeyError:
            raise WarehouseError(
                f"no stored {kind} for {date} in version {version}"
            ) from None
        if file_entry is None:
            raise WarehouseError(
                f"day {date} in version {version} has no {kind} segment"
            )
        path = self.root / file_entry["file"]
        try:
            size = os.path.getsize(path)
        except OSError as exc:
            raise WarehouseError(
                f"missing segment {path}: {exc}"
            ) from exc
        if size != file_entry["bytes"]:
            raise WarehouseError(
                f"segment {path} is {size} bytes, manifest says "
                f"{file_entry['bytes']} — truncated or stale"
            )
        if verify and _sha256_file(path) != file_entry["sha256"]:
            raise WarehouseError(
                f"segment {path} fails its manifest checksum — "
                "stale or corrupt"
            )
        key = (version, date, kind)
        segment = self._segments.get(key)
        if segment is None:
            segment = self._segments[key] = Segment(path, kind=kind)
        return segment

    def open_labels(
        self,
        date: str,
        version: Optional[str] = None,
        verify: bool = False,
    ) -> Segment:
        """The mapped label segment of one day (cached handle)."""
        return self._segment(date, "labels", version, verify=verify)

    def label_store(
        self, date: str, version: Optional[str] = None
    ) -> LabelStore:
        return label_store_from_segment(self.open_labels(date, version))

    def alarm_table(
        self, date: str, version: Optional[str] = None
    ) -> AlarmTable:
        return alarm_table_from_segment(
            self._segment(date, "alarms", version)
        )

    def export_csv(self, date: str, version: Optional[str] = None) -> str:
        """The day's labels as CSV — byte-identical to ``repro label``."""
        return labels_to_csv(self.label_store(date, version).to_records())

    def close(self) -> None:
        """Drop every cached mmap handle (maps are read-only)."""
        self._segments.clear()

    def __enter__(self) -> "Warehouse":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    # -- queries -------------------------------------------------------

    def query(
        self,
        date: Optional[str] = None,
        date_from: Optional[str] = None,
        date_to: Optional[str] = None,
        taxonomy: Optional[str] = None,
        src: Optional[Union[str, int]] = None,
        dst: Optional[Union[str, int]] = None,
        sport: Optional[int] = None,
        dport: Optional[int] = None,
        t0: Optional[float] = None,
        t1: Optional[float] = None,
        limit: Optional[int] = None,
        version: Optional[str] = None,
        engine: EngineSpec = None,
    ) -> list[dict]:
        """Cross-day label rows matching every given predicate.

        Scans the mapped columns of each day in date order through the
        ``"warehouse_select"`` kernel and renders only the selected
        rows (the :class:`LiveLabelIndex` JSON row shape).  ``date``
        restricts to one day; otherwise ``date_from`` / ``date_to``
        bound the inclusive ISO date range.
        """
        engine = resolve_engine(engine, what="warehouse")
        taxonomy_code = None
        if taxonomy is not None:
            if taxonomy not in TAXONOMY_ORDER:
                raise WarehouseError(
                    f"unknown taxonomy {taxonomy!r}; "
                    f"known: {list(TAXONOMY_ORDER)}"
                )
            taxonomy_code = TAXONOMY_ORDER.index(taxonomy)
        if date is not None:
            dates = [date] if self.has_day(date, version) else []
        else:
            dates = [
                d
                for d in self.dates(version)
                if (date_from is None or d >= date_from)
                and (date_to is None or d <= date_to)
            ]
        select = engine.kernel("warehouse_select")
        rows: list[dict] = []
        for day in dates:
            segment = self.open_labels(day, version)
            arrays = segment.arrays
            columns = {
                "taxonomy_code": arrays["taxonomy_code"],
                "t0": arrays["t0"],
                "t1": arrays["t1"],
                "rule_record": arrays["r_record"],
                "rule_src": arrays["r_src"],
                "rule_dst": arrays["r_dst"],
                "rule_sport": arrays["r_sport"],
                "rule_dport": arrays["r_dport"],
            }
            selected = select(
                columns,
                taxonomy_code=taxonomy_code,
                src=None if src is None else _address_code(src),
                dst=None if dst is None else _address_code(dst),
                sport=None if sport is None else int(sport),
                dport=None if dport is None else int(dport),
                t0=t0,
                t1=t1,
            )
            for i in selected:
                rows.append(_segment_row(segment, day, int(i)))
                if limit is not None and len(rows) >= limit:
                    return rows
        return rows

    def stats(self, version: Optional[str] = None) -> dict:
        """Per-day and total counts, from the manifest alone."""
        version, entry = self._version_entry(version)
        days = {
            date: dict(day["counts"])
            for date, day in sorted(entry["days"].items())
        }
        totals: dict[str, int] = {}
        segment_bytes = 0
        for date, day in entry["days"].items():
            for name, count in day["counts"].items():
                totals[name] = totals.get(name, 0) + count
            for kind in ("labels", "alarms"):
                if day[kind] is not None:
                    segment_bytes += day[kind]["bytes"]
        return {
            "root": str(self.root),
            "version": version,
            "fingerprint": entry["fingerprint"],
            "n_days": len(days),
            "segment_bytes": segment_bytes,
            "totals": totals,
            "days": days,
        }

    def verify(self, version: Optional[str] = None) -> dict:
        """Hash-check every segment of one version against the manifest.

        Raises :class:`~repro.errors.WarehouseError` on the first
        truncated or corrupt file; returns the counts checked.
        """
        version, entry = self._version_entry(version)
        checked = 0
        for date in sorted(entry["days"]):
            for kind in ("labels", "alarms"):
                if entry["days"][date][kind] is not None:
                    self._segment(date, kind, version, verify=True)
                    checked += 1
        return {"version": version, "days": len(entry["days"]), "segments": checked}

    # -- delta recompute ------------------------------------------------

    def _reconstruct_archive(self, meta: Optional[dict]):
        if not meta or "seed" not in meta or "trace_duration" not in meta:
            raise WarehouseError(
                "the stored version carries no reconstructible archive "
                "metadata; pass archive= to recompute"
            )
        from repro.mawi.archive import SyntheticArchive

        archive = SyntheticArchive(
            seed=meta["seed"], trace_duration=meta["trace_duration"]
        )
        if archive.fingerprint() != meta["fingerprint"]:
            raise WarehouseError(
                "reconstructed archive fingerprint does not match the "
                "manifest; pass archive= to recompute"
            )
        return archive

    def recompute(
        self,
        config=None,
        *,
        archive=None,
        cache_dir: Optional[str] = None,
        dates: Optional[Sequence[str]] = None,
    ) -> RecomputeReport:
        """Relabel every ingested day under ``config``, reusing Step 1.

        Fingerprints (archive, ensemble, config); a no-op when the
        fingerprint matches the current version.  Otherwise a new
        version is written: days whose Step 1 alarms are available —
        from the :class:`~repro.runner.cache.AlarmCache` or, when the
        ensemble fingerprint is unchanged, the previous version's alarm
        segments — rerun Steps 2–4 only; the rest rerun the full
        pipeline.  The current pointer flips to the new version last,
        so a crash mid-recompute leaves the old version active.
        """
        import time as _time

        from repro.runner.cache import AlarmCache
        from repro.runner.config import PipelineConfig

        started = _time.perf_counter()
        config = config or PipelineConfig()
        old_version, old_entry = self._version_entry(None)
        if archive is None:
            archive = self._reconstruct_archive(old_entry.get("archive"))
        pipeline = config.build_pipeline()
        ensemble_fp = pipeline.ensemble_fingerprint()
        fingerprint = warehouse_fingerprint(
            archive.fingerprint(), ensemble_fp, repr(config)
        )
        if fingerprint == old_entry["fingerprint"]:
            return RecomputeReport(
                old_version=old_version,
                new_version=old_version,
                fingerprint=fingerprint,
                changed=False,
                elapsed=_time.perf_counter() - started,
            )
        ensemble_changed = (
            old_entry.get("ensemble_fingerprint") != ensemble_fp
        )
        cache = AlarmCache(cache_dir) if cache_dir else None
        new_version = self.ensure_version(
            fingerprint,
            ensemble_fingerprint=ensemble_fp,
            config=repr(config),
            archive=archive_meta(archive),
            activate=False,
        )
        report = RecomputeReport(
            old_version=old_version,
            new_version=new_version,
            fingerprint=fingerprint,
            changed=True,
            ensemble_changed=ensemble_changed,
        )
        for date in dates or self.dates(old_version):
            trace = archive.day(date).trace
            alarms = None
            key = AlarmCache.make_key(
                archive.fingerprint(), date, ensemble_fp
            )
            if cache is not None:
                alarms = cache.get(key)
                if alarms is not None:
                    report.cache_hits += 1
            if (
                alarms is None
                and not ensemble_changed
                and old_entry["days"].get(date, {}).get("alarms") is not None
            ):
                alarms = self.alarm_table(date, version=old_version)
                report.segment_hits += 1
                if cache is not None:
                    cache.put(key, alarms)
            if alarms is None:
                result = pipeline.run(trace)
                report.step1_reruns += 1
                if cache is not None:
                    cache.put(key, result.alarms)
            else:
                result = pipeline.run_with_alarms(trace, alarms)
            self.store_result(date, result, version=new_version)
            report.days.append(
                self._diff_day(date, old_version, result.label_store())
            )
        self.set_current(new_version)
        report.elapsed = _time.perf_counter() - started
        return report

    def _diff_day(
        self, date: str, old_version: str, new_store: LabelStore
    ) -> DayDiff:
        """Community-id / taxonomy delta against the previous version."""
        old_map: dict[int, int] = {}
        if self.has_day(date, old_version):
            arrays = self.open_labels(date, old_version).arrays
            old_map = {
                int(cid): int(tax)
                for cid, tax in zip(
                    arrays["community_id"], arrays["taxonomy_code"]
                )
            }
        new_map = {
            int(cid): int(tax)
            for cid, tax in zip(
                new_store.community_id, new_store.taxonomy_code
            )
        }
        return DayDiff(
            date=date,
            added=sorted(set(new_map) - set(old_map)),
            removed=sorted(set(old_map) - set(new_map)),
            taxonomy_changed=[
                {
                    "community": cid,
                    "old": TAXONOMY_ORDER[old_map[cid]],
                    "new": TAXONOMY_ORDER[new_map[cid]],
                }
                for cid in sorted(set(old_map) & set(new_map))
                if old_map[cid] != new_map[cid]
            ],
            n_before=len(old_map),
            n_after=len(new_map),
        )


def _segment_row(segment: Segment, date: str, index: int) -> dict:
    """Render one selected row straight from mapped columns.

    Shape-identical to
    :func:`repro.labeling.database._label_row` — the serve layer
    answers from either source interchangeably — but built from the
    columns, never through a :class:`LabelRecord`.
    """
    arrays = segment.arrays
    pools = segment.pools
    lo = int(arrays["detector_bounds"][index])
    hi = int(arrays["detector_bounds"][index + 1])
    rlo = int(arrays["rule_bounds"][index])
    rhi = int(arrays["rule_bounds"][index + 1])

    def opt_addr(column: str, j: int) -> Optional[str]:
        value = int(arrays[column][j])
        return None if value < 0 else ip_to_str(value)

    def opt_port(column: str, j: int) -> Optional[int]:
        value = int(arrays[column][j])
        return None if value < 0 else value

    return {
        "date": date,
        "community": int(arrays["community_id"][index]),
        "taxonomy": TAXONOMY_ORDER[int(arrays["taxonomy_code"][index])],
        "heuristic_category": pools["categories"][
            int(arrays["category_code"][index])
        ],
        "heuristic_detail": pools["details"][
            int(arrays["detail_code"][index])
        ],
        "t0": float(arrays["t0"][index]),
        "t1": float(arrays["t1"][index]),
        "n_alarms": int(arrays["n_alarms"][index]),
        "detectors": list(pools["detector_names"][lo:hi]),
        "rules": [
            {
                "src": opt_addr("r_src", j),
                "sport": opt_port("r_sport", j),
                "dst": opt_addr("r_dst", j),
                "dport": opt_port("r_dport", j),
                "support": float(arrays["r_support"][j]),
            }
            for j in range(rlo, rhi)
        ],
    }
