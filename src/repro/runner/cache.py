"""On-disk cache of Step 1 alarm sets.

Detection dominates pipeline runtime, and its output depends only on
(trace, ensemble) — not on the combiner, granularity or similarity
measure.  Caching alarms keyed by ``(archive, trace, ensemble)``
therefore lets a re-labeling sweep with a different combiner skip
Step 1 entirely.  :func:`cached_alarms` is the one way in: it builds
the key, answers a hit from the cache and runs (and stores) Step 1 on
a miss.

Each entry is an alarm segment — the bytes
:func:`~repro.labeling.warehouse.encode_alarm_segment` writes for the
warehouse — behind a magic tag and the SHA-256 of those bytes,
published with :func:`repro.ioutil.write_atomic_bytes` so concurrent
pool workers never observe a torn entry.  :meth:`AlarmCache.get`
checks the digest, then decodes with the warehouse's segment decoder:
a truncated, bit-flipped, undecodable or old-format entry is evicted,
counted in :attr:`AlarmCache.evictions` and returned as a miss —
never as a different alarm table.  Nothing read from the cache is
unpickled; entries of the older pickle format (``alarms-*.pkl``) are
never opened.

Cache keys are **engine-agnostic**: the columnar and reference kernels
are asserted byte-identical by the engine parity suite, so an alarm set
computed under one engine is valid under the other and the key hashes
only ``(archive, trace, ensemble)``.

The cache is LRU-aware: every hit touches the entry's mtime, and
:meth:`AlarmCache.prune` evicts least-recently-used entries to keep
the directory under a byte budget (``repro cache prune --max-bytes``)
and/or drop entries idle longer than a cutoff (``--older-than``) —
archive sweeps otherwise grow the directory without bound.
"""

from __future__ import annotations

import hashlib
import os
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Optional

from repro.core.alarm_table import AlarmTable
from repro.errors import WarehouseError
from repro.ioutil import write_atomic_bytes
from repro.labeling.warehouse import (
    Segment,
    alarm_table_from_segment,
    encode_alarm_segment,
)

#: Entry layout: this tag, the SHA-256 of the payload, the payload (an
#: alarm segment).  Version 1 held a pickle.
_ENTRY_MAGIC = b"MWAC\x02"
_DIGEST_BYTES = 32
#: Entry file names: ``alarms-<key digest>.seg``.
_ENTRY_GLOB = "alarms-*.seg"


@dataclass(frozen=True)
class PruneStats:
    """Outcome of one :meth:`AlarmCache.prune` pass."""

    removed: int
    freed_bytes: int
    kept: int
    kept_bytes: int

    def describe(self) -> str:
        return (
            f"removed {self.removed} entries ({self.freed_bytes} bytes), "
            f"kept {self.kept} ({self.kept_bytes} bytes)"
        )


class AlarmCache:
    """Table-per-entry alarm cache rooted at ``cache_dir``."""

    def __init__(self, cache_dir: str | Path) -> None:
        self.cache_dir = Path(cache_dir)
        self.cache_dir.mkdir(parents=True, exist_ok=True)
        self.hits = 0
        self.misses = 0
        #: Entries found corrupt (digest mismatch, undecodable, old
        #: format) and deleted; each also counts as a miss.
        self.evictions = 0

    @staticmethod
    def make_key(
        archive_fingerprint: str,
        trace_name: str,
        ensemble_fingerprint: str,
    ) -> str:
        """Filesystem-safe key for one (archive, trace, ensemble).

        Deliberately independent of the execution engine: engines emit
        identical alarms (enforced by the parity suite), so an entry
        written under one engine must hit under any other.
        """
        digest = hashlib.sha256(
            f"{archive_fingerprint}:{trace_name}:{ensemble_fingerprint}"
            .encode()
        ).hexdigest()[:24]
        return f"alarms-{digest}"

    def path_for(self, key: str) -> Path:
        return self.cache_dir / f"{key}.seg"

    def get(self, key: str) -> Optional[AlarmTable]:
        """Cached alarm table for ``key``, or ``None`` on a miss."""
        alarms = self._read(key)
        if alarms is not None:
            self.hits += 1
            return alarms
        self.misses += 1
        return None

    def _read(self, key: str) -> Optional[AlarmTable]:
        path = self.path_for(key)
        try:
            entry = path.read_bytes()
        except FileNotFoundError:
            return None
        except OSError:
            return self._evict(path)
        head = len(_ENTRY_MAGIC) + _DIGEST_BYTES
        payload = entry[head:]
        if (
            not entry.startswith(_ENTRY_MAGIC)
            or entry[len(_ENTRY_MAGIC) : head]
            != hashlib.sha256(payload).digest()
        ):
            return self._evict(path)
        try:
            alarms = alarm_table_from_segment(Segment(payload, kind="alarms"))
        except WarehouseError:
            return self._evict(path)
        # Touch on hit: prune() evicts by mtime, making this an LRU.
        try:
            os.utime(path)
        except OSError:  # pragma: no cover - entry raced away
            pass
        return alarms

    def _evict(self, path: Path) -> None:
        """Delete a corrupt entry (torn by a killed worker, bit rot,
        an older format); the caller reports a miss."""
        path.unlink(missing_ok=True)
        self.evictions += 1
        return None

    def put(self, key: str, alarms: AlarmTable) -> None:
        """Store an alarm table under ``key`` atomically."""
        payload = encode_alarm_segment(alarms, {})
        write_atomic_bytes(
            self.path_for(key),
            _ENTRY_MAGIC + hashlib.sha256(payload).digest() + payload,
        )

    def __len__(self) -> int:
        return sum(1 for _ in self.cache_dir.glob(_ENTRY_GLOB))

    def clear(self) -> int:
        """Delete every entry; returns the number removed."""
        removed = 0
        for path in self.cache_dir.glob(_ENTRY_GLOB):
            path.unlink(missing_ok=True)
            removed += 1
        return removed

    # -- pruning --------------------------------------------------------

    def _entries(self) -> list[tuple[float, int, Path]]:
        """(mtime, bytes, path) per entry, least recently used first."""
        entries = []
        for path in self.cache_dir.glob(_ENTRY_GLOB):
            try:
                stat = path.stat()
            except FileNotFoundError:  # pragma: no cover - racing worker
                continue
            entries.append((stat.st_mtime, stat.st_size, path))
        entries.sort()
        return entries

    def prune(
        self,
        max_bytes: Optional[int] = None,
        older_than: Optional[float] = None,
        now: Optional[float] = None,
    ) -> PruneStats:
        """Evict entries by recency.

        ``older_than`` drops entries not used (created/hit) within the
        last ``older_than`` seconds; ``max_bytes`` then evicts least
        recently used entries until the directory's entry bytes fit the
        budget.  Either may be ``None``; with both ``None`` this is a
        no-op inventory pass.
        """
        now = time.time() if now is None else now
        entries = self._entries()
        removed = 0
        freed = 0
        kept: list[tuple[float, int, Path]] = []
        for mtime, size, path in entries:
            if older_than is not None and mtime < now - older_than:
                path.unlink(missing_ok=True)
                removed += 1
                freed += size
            else:
                kept.append((mtime, size, path))
        if max_bytes is not None:
            total = sum(size for _, size, _ in kept)
            while kept and total > max_bytes:
                _, size, path = kept.pop(0)  # oldest mtime = LRU victim
                path.unlink(missing_ok=True)
                removed += 1
                freed += size
                total -= size
        return PruneStats(
            removed=removed,
            freed_bytes=freed,
            kept=len(kept),
            kept_bytes=sum(size for _, size, _ in kept),
        )


def cached_alarms(
    cache: Optional[AlarmCache],
    pipeline,
    trace,
    fingerprint: str,
    name: str,
) -> tuple[AlarmTable, bool]:
    """``(alarms, hit)``: Step 1 of ``trace`` through the alarm cache.

    The key is ``(fingerprint, name, pipeline.ensemble_fingerprint())``,
    where ``fingerprint`` names the trace source (an archive's
    fingerprint, or a content digest).  A hit returns the cached table;
    a miss runs ``pipeline.detect(trace)`` and stores its table.
    Without a cache (``None``) this is just ``pipeline.detect``.
    """
    if cache is None:
        return pipeline.detect(trace), False
    key = AlarmCache.make_key(
        fingerprint, name, pipeline.ensemble_fingerprint()
    )
    alarms = cache.get(key)
    if alarms is not None:
        return alarms, True
    alarms = pipeline.detect(trace)
    cache.put(key, alarms)
    return alarms, False
