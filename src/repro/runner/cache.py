"""On-disk cache of Step 1 alarm sets.

Detection dominates pipeline runtime, and its output depends only on
(trace, ensemble) — not on the combiner, granularity or similarity
measure.  Caching alarms keyed by ``(archive, trace, ensemble)``
therefore lets a re-labeling sweep with a different combiner skip
Step 1 entirely.

Entries are serialized :class:`~repro.core.alarm_table.AlarmTable`
columns — a handful of NumPy arrays plus two small name pools —
written atomically (temp file + ``os.replace``) so concurrent pool
workers never observe a torn entry; a corrupt, unreadable or
non-table entry is treated as a miss and evicted.

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
import pickle
import tempfile
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Optional

from repro.core.alarm_table import AlarmTable


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
        return self.cache_dir / f"{key}.pkl"

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
            with path.open("rb") as handle:
                payload = pickle.load(handle)
        except FileNotFoundError:
            return None
        except (OSError, pickle.UnpicklingError, EOFError, AttributeError):
            # Torn/corrupt entry (e.g. from a killed worker): evict.
            path.unlink(missing_ok=True)
            return None
        # Touch on hit: prune() evicts by mtime, making this an LRU.
        try:
            os.utime(path)
        except OSError:  # pragma: no cover - entry raced away
            pass
        if isinstance(payload, AlarmTable):
            return payload
        path.unlink(missing_ok=True)
        return None

    def put(self, key: str, alarms: AlarmTable) -> None:
        """Store an alarm table under ``key`` atomically."""
        path = self.path_for(key)
        fd, tmp_name = tempfile.mkstemp(
            dir=self.cache_dir, prefix=f".{key}.", suffix=".tmp"
        )
        try:
            with os.fdopen(fd, "wb") as handle:
                pickle.dump(alarms, handle, protocol=pickle.HIGHEST_PROTOCOL)
            os.replace(tmp_name, path)
        except BaseException:
            try:
                os.unlink(tmp_name)
            except OSError:
                pass
            raise

    def __len__(self) -> int:
        return sum(1 for _ in self.cache_dir.glob("alarms-*.pkl"))

    def clear(self) -> int:
        """Delete every entry; returns the number removed."""
        removed = 0
        for path in self.cache_dir.glob("alarms-*.pkl"):
            path.unlink(missing_ok=True)
            removed += 1
        return removed

    # -- pruning --------------------------------------------------------

    def _entries(self) -> list[tuple[float, int, Path]]:
        """(mtime, bytes, path) per entry, least recently used first."""
        entries = []
        for path in self.cache_dir.glob("alarms-*.pkl"):
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
