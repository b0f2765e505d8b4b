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
The same layout is the one stored form of labels and alarms elsewhere
too: each :class:`~repro.runner.cache.AlarmCache` entry is an alarm
segment, and :class:`Segment` parses a byte buffer as well as a
mapped file.  Segments are published atomically
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

Queries have one path, :func:`select_labels`: predicates — taxonomy,
time overlap, rule src/dst/sport/dport — are pushed down onto a day's
label-segment columns via the paired ``"warehouse_select"`` engine
kernels, and only the matching rows are rendered.
:meth:`Warehouse.query` feeds it mapped segments;
:class:`~repro.labeling.database.LiveLabelIndex` feeds it the same
columns held in memory (:func:`label_segment_columns`) for days that
are published but not stored.

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

import datetime
import hashlib
import json
import os
import re
from contextlib import contextmanager
from dataclasses import dataclass, field
from pathlib import Path
from types import SimpleNamespace
from typing import Iterable, Mapping, Optional, Sequence, Union

import numpy as np

from repro.core.alarm_table import ALL_ARRAYS, AlarmTable, _ragged_take
from repro.engine import EngineSpec, resolve_engine
from repro.errors import TraceError, WarehouseError
from repro.ioutil import write_atomic, write_atomic_bytes
from repro.labeling.mawilab import LabelRecord, PipelineResult, labels_to_csv
from repro.labeling.store import (
    LABEL_BOUND_COLUMNS,
    LABEL_COLUMNS,
    LabelStore,
    taxonomy_counts,
)
from repro.labeling.taxonomy import TAXONOMY_ORDER
from repro.net.addresses import ip_to_int, ip_to_str

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

#: String pools of a label segment (LabelStore attribute names).
_LABEL_POOLS = ("categories", "details", "detector_names", "annotation_tags")


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
    arrays: Mapping[str, np.ndarray],
    pools: Mapping[str, Sequence[str]],
    meta: dict,
) -> bytes:
    """Serialize named columns into one segment byte string."""
    descriptors = []
    blobs = []
    offset = 0
    for name, array in arrays.items():
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


def _check_header(header, path: Path) -> None:
    """Raise :class:`WarehouseError` unless ``header`` is a well-formed
    segment descriptor: the required keys with their JSON types,
    numeric dtypes, and every array inside ``data_bytes``."""

    def bad(why: str) -> WarehouseError:
        return WarehouseError(f"corrupt segment header in {path}: {why}")

    def count(value) -> bool:
        return type(value) is int and value >= 0

    if not isinstance(header, dict):
        raise bad("not an object")
    for key, kind in (
        ("kind", str), ("arrays", list), ("pools", dict), ("meta", dict),
    ):
        if not isinstance(header.get(key), kind):
            raise bad(f"{key!r} missing or not a {kind.__name__}")
    if not count(header.get("data_bytes")):
        raise bad("'data_bytes' missing or not a non-negative integer")
    for name, pool in header["pools"].items():
        if not isinstance(pool, list) or not all(
            isinstance(item, str) for item in pool
        ):
            raise bad(f"pool {name!r} is not a list of strings")
    for descriptor in header["arrays"]:
        if not isinstance(descriptor, dict) or not isinstance(
            descriptor.get("name"), str
        ):
            raise bad(f"array descriptor {descriptor!r:.60} has no name")
        name = descriptor["name"]
        if not (count(descriptor.get("length")) and count(descriptor.get("offset"))):
            raise bad(f"array {name!r} length/offset not non-negative integers")
        raw = descriptor.get("dtype")
        try:
            dtype = np.dtype(raw) if isinstance(raw, str) else None
        except (TypeError, ValueError):
            dtype = None
        if dtype is None or dtype.kind not in "biuf":
            raise bad(f"array {name!r} has unknown dtype {raw!r:.20}")
        end = descriptor["offset"] + descriptor["length"] * dtype.itemsize
        if end > header["data_bytes"]:
            raise bad(f"array {name!r} ends past data_bytes")


@contextmanager
def _decoding(segment: "Segment", arrays, pools):
    """A decoder's guard: absent arrays or pools, and arrays whose
    lengths or bounds disagree, raise :class:`WarehouseError`."""
    missing = [name for name in arrays if name not in segment.arrays]
    missing += [f"pool {name}" for name in pools if name not in segment.pools]
    if missing:
        raise WarehouseError(
            f"segment {segment.path} lacks {', '.join(missing)}"
        )
    try:
        yield segment.arrays
    except (IndexError, ValueError) as exc:
        raise WarehouseError(f"corrupt segment {segment.path}: {exc}") from exc


class Segment:
    """One segment's column views, pools and meta.

    ``source`` is a segment file, mapped read-only with ``np.memmap``
    (the warehouse), or the segment's bytes, viewed in place (the
    alarm cache's entries); one parser reads both.  Every malformed
    header — bad magic, format, JSON or descriptor — raises
    :class:`~repro.errors.WarehouseError`.
    """

    __slots__ = ("path", "kind", "arrays", "pools", "meta")

    def __init__(
        self,
        source: Union[str, Path, bytes],
        kind: Optional[str] = None,
    ):
        if isinstance(source, bytes):
            self.path = "<in-memory segment>"
            raw = np.frombuffer(source, dtype=np.uint8)
        else:
            self.path = Path(source)
            raw = _map(self.path)
        size = len(raw)
        head = raw[:16].tobytes()
        if len(head) < 16 or head[:4] != _MAGIC:
            raise WarehouseError(f"not a warehouse segment: {self.path}")
        fmt = int.from_bytes(head[4:8], "little")
        if fmt != _FORMAT:
            raise WarehouseError(
                f"unsupported segment format {fmt} in {self.path}"
            )
        header_len = int.from_bytes(head[8:16], "little")
        if 16 + header_len > size:
            raise WarehouseError(f"truncated segment header: {self.path}")
        try:
            header = json.loads(raw[16 : 16 + header_len].tobytes())
        except ValueError as exc:
            raise WarehouseError(
                f"corrupt segment header: {self.path}: {exc}"
            ) from exc
        _check_header(header, self.path)
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
        if data_start + header["data_bytes"] > size:
            raise WarehouseError(f"truncated segment: {self.path}")
        self.arrays = {}
        for descriptor in header["arrays"]:
            dtype = np.dtype(descriptor["dtype"])
            start = data_start + descriptor["offset"]
            nbytes = descriptor["length"] * dtype.itemsize
            self.arrays[descriptor["name"]] = raw[
                start : start + nbytes
            ].view(dtype)


def _map(path: Path) -> np.ndarray:
    """``path`` mapped read-only as bytes (an empty file maps to none)."""
    try:
        if os.path.getsize(path) == 0:
            return np.empty(0, dtype=np.uint8)
        return np.memmap(path, dtype=np.uint8, mode="r")
    except OSError as exc:
        raise WarehouseError(f"unreadable segment {path}: {exc}") from exc


def label_segment_columns(
    store: LabelStore,
) -> tuple[dict[str, np.ndarray], dict[str, tuple[str, ...]]]:
    """``(arrays, pools)`` of the label segment holding ``store``.

    The store's own columns, then its summaries' metrics and the flat
    per-rule columns (``-1`` for a wildcard field), gathered in one
    pass over the summaries.  :func:`encode_label_segment` writes
    them; :class:`~repro.labeling.database.LiveLabelIndex` keeps them
    in memory and queries them like a mapped segment.
    """
    n = len(store)
    degrees: list[float] = []
    supports: list[float] = []
    transactions: list[int] = []
    rule_bounds = np.zeros(n + 1, dtype=np.int64)
    keys: list[int] = []  # src, sport, dst, dport of each rule in turn
    rule_support: list[float] = []
    rule_count: list[int] = []
    for i, summary in enumerate(store.summaries):
        degrees.append(summary.rule_degree)
        supports.append(summary.rule_support)
        transactions.append(summary.n_transactions)
        for rule in summary.rules or ():
            keys += (
                -1 if rule.src is None else rule.src,
                -1 if rule.sport is None else rule.sport,
                -1 if rule.dst is None else rule.dst,
                -1 if rule.dport is None else rule.dport,
            )
            rule_support.append(rule.support)
            rule_count.append(rule.count)
        rule_bounds[i + 1] = len(rule_count)
    key_columns = np.array(keys, dtype=np.int64).reshape(-1, 4).T.copy()
    arrays = {name: getattr(store, name) for name in LABEL_COLUMNS}
    arrays.update(
        (name, getattr(store, name)) for name in LABEL_BOUND_COLUMNS
    )
    arrays.update(
        s_rule_degree=np.array(degrees, dtype=np.float64),
        s_rule_support=np.array(supports, dtype=np.float64),
        s_n_transactions=np.array(transactions, dtype=np.int64),
        rule_bounds=rule_bounds,
        r_record=np.repeat(
            np.arange(n, dtype=np.int64), np.diff(rule_bounds)
        ),
        r_src=key_columns[0],
        r_sport=key_columns[1],
        r_dst=key_columns[2],
        r_dport=key_columns[3],
        r_support=np.array(rule_support, dtype=np.float64),
        r_count=np.array(rule_count, dtype=np.int64),
    )
    pools = {name: getattr(store, name) for name in _LABEL_POOLS}
    return arrays, pools


def encode_label_segment(store: LabelStore, meta: dict) -> bytes:
    """Spill a :class:`LabelStore` (summaries included) into bytes."""
    return encode_segment("labels", *label_segment_columns(store), meta)


def label_store_from_segment(segment: Segment) -> LabelStore:
    """Rebuild a full-fidelity :class:`LabelStore` from mapped columns.

    Numeric columns pass through zero-copy; only the per-record
    ``CommunitySummary`` objects (rules included) are materialized,
    because they are Python objects by definition.
    """
    from repro.rules.itemsets import Rule
    from repro.rules.summarize import CommunitySummary

    with _decoding(
        segment,
        LABEL_COLUMNS + LABEL_BOUND_COLUMNS + _SUMMARY_COLUMNS
        + ("rule_bounds",) + _RULE_COLUMNS,
        _LABEL_POOLS,
    ) as arrays:
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
            **{name: segment.pools[name] for name in _LABEL_POOLS},
            summaries=summaries,
        )


def encode_alarm_segment(table: AlarmTable, meta: dict) -> bytes:
    """Spill an :class:`AlarmTable` into bytes (all 19 arrays + pools)."""
    arrays = {name: getattr(table, name) for name in ALL_ARRAYS}
    pools = {"detectors": table.detectors, "configs": table.configs}
    return encode_segment("alarms", arrays, pools, meta)


def alarm_table_from_segment(segment: Segment) -> AlarmTable:
    """Rebuild an :class:`AlarmTable` zero-copy from mapped columns."""
    with _decoding(segment, ALL_ARRAYS, ("detectors", "configs")) as arrays:
        return AlarmTable(
            *(arrays[name] for name in ALL_ARRAYS),
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
        complete files.  ``date`` names the segment files, so it must
        be a ``YYYY-MM-DD`` calendar date.
        """
        if not is_iso_day(date):
            raise WarehouseError(f"bad ISO date {date!r}")
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

        Scans the mapped columns of each day in date order through
        :func:`select_labels`.  ``date`` restricts to one day;
        otherwise ``date_from`` / ``date_to`` bound the inclusive ISO
        date range.
        """
        if date is not None:
            dates = [date] if self.has_day(date, version) else []
        else:
            dates = [
                d
                for d in self.dates(version)
                if (date_from is None or d >= date_from)
                and (date_to is None or d <= date_to)
            ]
        segments = ((day, self.open_labels(day, version)) for day in dates)
        return select_labels(
            ((day, s.arrays, s.pools) for day, s in segments),
            taxonomy=taxonomy,
            src=src,
            dst=dst,
            sport=sport,
            dport=dport,
            t0=t0,
            t1=t1,
            limit=limit,
            engine=engine,
        )

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

        from repro.runner.cache import AlarmCache, cached_alarms
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
            # Cache first, then the previous version's alarm segment,
            # then Step 1; a segment or Step 1 table fills the cache.
            stored = (
                not ensemble_changed
                and old_entry["days"].get(date, {}).get("alarms") is not None
            )
            step1 = pipeline
            if stored:
                step1 = SimpleNamespace(
                    ensemble_fingerprint=pipeline.ensemble_fingerprint,
                    detect=lambda _trace, date=date: self.alarm_table(
                        date, version=old_version
                    ),
                )
            alarms, hit = cached_alarms(
                cache, step1, trace, archive.fingerprint(), date
            )
            if hit:
                report.cache_hits += 1
            elif stored:
                report.segment_hits += 1
            else:
                report.step1_reruns += 1
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


# -- the query path (mapped segments and the live index) ----------------


def _address_code(value: Union[str, int], error: type[Exception]) -> int:
    """Normalize a query address (dotted quad or integer) to its code."""
    if isinstance(value, int):
        return value
    text = str(value)
    try:
        return ip_to_int(text) if "." in text else int(text)
    except (TraceError, ValueError) as exc:
        raise error(f"bad address {value!r}") from exc


def select_labels(
    days: Iterable[tuple[str, Mapping[str, np.ndarray], Mapping]],
    *,
    taxonomy: Optional[str] = None,
    src: Optional[Union[str, int]] = None,
    dst: Optional[Union[str, int]] = None,
    sport: Optional[int] = None,
    dport: Optional[int] = None,
    t0: Optional[float] = None,
    t1: Optional[float] = None,
    limit: Optional[int] = None,
    engine: EngineSpec = None,
    error: type[Exception] = WarehouseError,
) -> list[dict]:
    """Label rows matching every given predicate, in ``days`` order.

    ``days`` yields ``(date, arrays, pools)``: the columns of one
    day's label segment, mapped (:class:`Segment`) or in memory
    (:func:`label_segment_columns`).  Each day is scanned through the
    ``"warehouse_select"`` kernel and only the selected rows are
    rendered, one JSON-shaped row per label with its rules nested.
    ``taxonomy`` is one of the paper's three labels; ``src`` / ``dst``
    (dotted quad or integer) and ``sport`` / ``dport`` match labels
    whose concise rules pin that value; ``t0`` / ``t1`` keep labels
    whose span overlaps ``[t0, t1]``.  ``limit`` caps the rows
    returned (``0`` returns none).  An unknown taxonomy, an address
    that does not parse or a negative limit raises ``error``.
    """
    engine = resolve_engine(engine, what="warehouse")
    if limit is not None and limit < 0:
        raise error(f"limit= must be a non-negative integer, got {limit}")
    taxonomy_code = None
    if taxonomy is not None:
        if taxonomy not in TAXONOMY_ORDER:
            raise error(
                f"unknown taxonomy {taxonomy!r}; "
                f"known: {list(TAXONOMY_ORDER)}"
            )
        taxonomy_code = TAXONOMY_ORDER.index(taxonomy)
    predicates = dict(
        taxonomy_code=taxonomy_code,
        src=None if src is None else _address_code(src, error),
        dst=None if dst is None else _address_code(dst, error),
        sport=None if sport is None else int(sport),
        dport=None if dport is None else int(dport),
        t0=t0,
        t1=t1,
    )
    select = engine.kernel("warehouse_select")
    rows: list[dict] = []
    if limit == 0:
        return rows
    for date, arrays, pools in days:
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
        selected = select(columns, **predicates)
        if limit is not None:
            selected = selected[: limit - len(rows)]
        rows += _segment_rows(arrays, pools, date, selected)
        if limit is not None and len(rows) >= limit:
            return rows
    return rows


def _segment_rows(
    arrays: Mapping, pools: Mapping, date: str, index: np.ndarray
) -> list[dict]:
    """Render selected rows straight from label-segment columns, never
    through a :class:`LabelRecord`.

    Each column is read with one gather over the selected rows, and the
    rule columns with one gather over the rows' concatenated rule
    ranges, so a mapped segment is never indexed one element at a time.
    """
    rule_bounds, rule_rows = _ragged_take(arrays["rule_bounds"], index)

    def gather(column: str, rows: np.ndarray) -> list:
        return arrays[column][rows].tolist()

    rules = [
        {
            "src": None if src < 0 else ip_to_str(src),
            "sport": None if sport < 0 else sport,
            "dst": None if dst < 0 else ip_to_str(dst),
            "dport": None if dport < 0 else dport,
            "support": support,
        }
        for src, sport, dst, dport, support in zip(
            gather("r_src", rule_rows),
            gather("r_sport", rule_rows),
            gather("r_dst", rule_rows),
            gather("r_dport", rule_rows),
            gather("r_support", rule_rows),
        )
    ]
    categories, details = pools["categories"], pools["details"]
    detector_names = pools["detector_names"]
    return [
        {
            "date": date,
            "community": community,
            "taxonomy": TAXONOMY_ORDER[taxonomy],
            "heuristic_category": categories[category],
            "heuristic_detail": details[detail],
            "t0": t0,
            "t1": t1,
            "n_alarms": n_alarms,
            "detectors": list(detector_names[lo:hi]),
            "rules": rules[rule_lo:rule_hi],
        }
        for (
            community, taxonomy, category, detail, t0, t1, n_alarms, lo, hi,
            rule_lo, rule_hi,
        ) in zip(
            gather("community_id", index),
            gather("taxonomy_code", index),
            gather("category_code", index),
            gather("detail_code", index),
            gather("t0", index),
            gather("t1", index),
            gather("n_alarms", index),
            gather("detector_bounds", index),
            gather("detector_bounds", index + 1),
            rule_bounds[:-1].tolist(),
            rule_bounds[1:].tolist(),
        )
    ]
