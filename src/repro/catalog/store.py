"""Thread-safe, byte-budgeted LRU sketch store with optional disk spill.

The paper treats the MNC sketch as a computed-once artifact — possibly on a
distributed cluster (Section 3.1) — that the optimizer consults many times.
:class:`SketchStore` is the serving-side half of that contract: a bounded
in-memory cache of :class:`~repro.core.sketch.MNCSketch` objects keyed by
structural fingerprints (:mod:`repro.catalog.fingerprint`), with

- **LRU eviction under a byte budget** — entry sizes come from
  :meth:`MNCSketch.size_bytes`; the in-memory total never exceeds the
  budget, which the concurrency tests assert under thread hammering;
- **optional disk spill** — evicted (and oversized) sketches persist to a
  spill directory as ``<fingerprint>.npz`` via
  :mod:`repro.core.serialize`; a later ``get`` of a spilled key reloads it
  transparently (a *disk hit*);
- **warm start / persist** — a catalog directory of sketch files can be
  bulk-loaded (the distributed-sketching driver pattern) and the resident
  set written back out.

Every hit/miss/eviction/spill updates both the store's own
:meth:`SketchStore.stats` and the PR-1 observability counters
(``catalog.store.*``), so ``repro stats`` on a trace reports cache
effectiveness.
"""

from __future__ import annotations

import threading
import zipfile
import zlib
from collections import OrderedDict
from dataclasses import asdict, dataclass
from pathlib import Path
from typing import Dict, List, Optional

from repro.core.serialize import load_sketch, save_sketch
from repro.core.sketch import MNCSketch
from repro.errors import SketchError
from repro.observability.metrics import count, metric_set

#: Default in-memory budget: generous for O(m + n) sketches, small enough
#: that pathological workloads spill instead of exhausting the heap.
DEFAULT_BUDGET_BYTES = 64 * 1024 * 1024


def load_sketch_or_none(path: Path) -> Optional[MNCSketch]:
    """Load one catalog file, returning ``None`` for anything unreadable.

    "Unreadable" covers the failure modes a live, shared catalog directory
    actually produces: a file deleted between listing and open, a
    partially-written or truncated npz (a writer mid-``save_sketch``, a
    crashed spill), a zip that is not an npz at all, and payloads whose
    sketch contents fail validation or carry a future format version.
    """
    try:
        return load_sketch(path)
    except (SketchError, OSError, ValueError, KeyError, EOFError,
            zipfile.BadZipFile, zlib.error):
        return None


@dataclass(frozen=True)
class StoreStats:
    """Point-in-time cache-effectiveness counters for one store."""

    hits: int
    misses: int
    disk_hits: int
    puts: int
    evictions: int
    spills: int
    entries: int
    bytes_used: int
    budget_bytes: int
    warm_skipped: int = 0

    def merge(self, other: "StoreStats") -> "StoreStats":
        """Combine two stores' counters (the sharded store's roll-up)."""
        return StoreStats(
            hits=self.hits + other.hits,
            misses=self.misses + other.misses,
            disk_hits=self.disk_hits + other.disk_hits,
            puts=self.puts + other.puts,
            evictions=self.evictions + other.evictions,
            spills=self.spills + other.spills,
            entries=self.entries + other.entries,
            bytes_used=self.bytes_used + other.bytes_used,
            budget_bytes=self.budget_bytes + other.budget_bytes,
            warm_skipped=self.warm_skipped + other.warm_skipped,
        )

    @property
    def requests(self) -> int:
        return self.hits + self.misses + self.disk_hits

    @property
    def hit_rate(self) -> float:
        """Fraction of ``get`` calls served from memory or disk."""
        requests = self.requests
        if requests == 0:
            return 0.0
        return (self.hits + self.disk_hits) / requests

    def as_dict(self) -> Dict[str, float]:
        data = dict(asdict(self))
        data["hit_rate"] = self.hit_rate
        return data


class SketchStore:
    """Byte-budgeted LRU cache of MNC sketches keyed by fingerprint.

    Args:
        budget_bytes: in-memory ceiling; the resident total never exceeds
            it (a sketch larger than the whole budget is never admitted to
            memory — it spills straight to disk when a spill directory is
            configured, and is otherwise dropped on eviction).
        spill_dir: optional directory for ``<fingerprint>.npz`` spill files;
            created on first use. ``None`` disables persistence.
    """

    def __init__(
        self,
        budget_bytes: int = DEFAULT_BUDGET_BYTES,
        spill_dir: Optional[str | Path] = None,
    ):
        if budget_bytes <= 0:
            raise SketchError(f"budget_bytes must be positive, got {budget_bytes}")
        self.budget_bytes = int(budget_bytes)
        self.spill_dir = Path(spill_dir) if spill_dir is not None else None
        self._lock = threading.RLock()
        self._entries: "OrderedDict[str, MNCSketch]" = OrderedDict()
        self._sizes: Dict[str, int] = {}
        self._bytes_used = 0
        self._hits = 0
        self._misses = 0
        self._disk_hits = 0
        self._puts = 0
        self._evictions = 0
        self._spills = 0
        self._warm_skipped = 0

    # ------------------------------------------------------------------
    # Core cache protocol
    # ------------------------------------------------------------------

    def get(self, key: str) -> Optional[MNCSketch]:
        """The sketch stored under *key*, or ``None``.

        Memory hits refresh LRU recency; misses fall back to the spill
        directory (reloading promotes the sketch back into memory).
        """
        with self._lock:
            sketch = self._entries.get(key)
            if sketch is not None:
                self._entries.move_to_end(key)
                self._hits += 1
                count("catalog.store.hit")
                return sketch
            spill_path = self._spill_path(key)
            if spill_path is not None and spill_path.exists():
                sketch = load_sketch(spill_path)
                self._admit(key, sketch)
                self._disk_hits += 1
                count("catalog.store.disk_hit")
                return sketch
            self._misses += 1
            count("catalog.store.miss")
            return None

    def put(self, key: str, sketch: MNCSketch) -> None:
        """Insert (or refresh) *sketch* under *key*, evicting LRU entries
        as needed to stay within the byte budget."""
        with self._lock:
            self._admit(key, sketch)
            self._puts += 1
            count("catalog.store.put")

    def __contains__(self, key: str) -> bool:
        with self._lock:
            if key in self._entries:
                return True
        spill_path = self._spill_path(key)
        return spill_path is not None and spill_path.exists()

    def __len__(self) -> int:
        with self._lock:
            return len(self._entries)

    def keys(self) -> List[str]:
        """Resident fingerprints, least- to most-recently used."""
        with self._lock:
            return list(self._entries)

    @property
    def bytes_used(self) -> int:
        """Current in-memory footprint (always ``<= budget_bytes``)."""
        with self._lock:
            return self._bytes_used

    def demote(self, key: str) -> bool:
        """Evict *key* from memory to the disk tier (spill, keep on disk).

        The hook the TTL eviction tier uses: an expired entry stops costing
        memory but stays reloadable as a disk hit. Without a spill
        directory the entry is simply dropped. Returns ``True`` when the
        key was resident.
        """
        with self._lock:
            sketch = self._entries.get(key)
            if sketch is None:
                return False
            del self._entries[key]
            self._bytes_used -= self._sizes.pop(key)
            self._evictions += 1
            count("catalog.store.eviction")
            self._spill(key, sketch)
            self._publish_gauges()
            return True

    def discard(self, key: str, remove_spill: bool = True) -> bool:
        """Forget *key* entirely (memory and, by default, its spill file).

        Returns ``True`` when anything was removed.
        """
        removed = False
        with self._lock:
            size = self._sizes.pop(key, None)
            if size is not None:
                del self._entries[key]
                self._bytes_used -= size
                removed = True
                self._publish_gauges()
        spill_path = self._spill_path(key)
        if remove_spill and spill_path is not None and spill_path.exists():
            spill_path.unlink()
            removed = True
        return removed

    def clear(self, remove_spill: bool = False) -> None:
        """Drop all resident entries; optionally delete spill files too."""
        with self._lock:
            self._entries.clear()
            self._sizes.clear()
            self._bytes_used = 0
            self._publish_gauges()
        if remove_spill and self.spill_dir is not None and self.spill_dir.exists():
            for path in self.spill_dir.glob("*.npz"):
                path.unlink()

    def stats(self) -> StoreStats:
        """Snapshot of the cache-effectiveness counters."""
        with self._lock:
            return StoreStats(
                hits=self._hits,
                misses=self._misses,
                disk_hits=self._disk_hits,
                puts=self._puts,
                evictions=self._evictions,
                spills=self._spills,
                entries=len(self._entries),
                bytes_used=self._bytes_used,
                budget_bytes=self.budget_bytes,
                warm_skipped=self._warm_skipped,
            )

    # ------------------------------------------------------------------
    # Persistence
    # ------------------------------------------------------------------

    def warm_start(self, directory: str | Path) -> List[str]:
        """Bulk-load every ``*.npz`` sketch under *directory*.

        The catalog directory layout is ``<key>.npz`` — exactly what
        :meth:`persist` and disk spill write — so keys round-trip through
        the filename stem. Files load in sorted filename order (so e.g.
        shard sketches keep their partition order); sketch contents are
        validated on load. Returns the keys in load order.

        The scan is tolerant of a live catalog: files that vanish mid-scan
        (a concurrent ``clear``/``discard``), partially-written spill
        files, and corrupt or future-versioned payloads are skipped and
        counted (``catalog.store.warm_skipped`` and the ``warm_skipped``
        stats field) instead of aborting the whole warm start, so several
        servers can warm from — and spill into — one directory at once.
        """
        source = Path(directory)
        if not source.is_dir():
            raise SketchError(f"catalog directory {source} does not exist")
        loaded: List[str] = []
        for path in sorted(source.glob("*.npz")):
            sketch = load_sketch_or_none(path)
            if sketch is None:
                self.note_warm_skipped()
                continue
            self.put(path.stem, sketch)
            loaded.append(path.stem)
        count("catalog.store.warm_start", len(loaded))
        return loaded

    def note_warm_skipped(self) -> None:
        """Count one unreadable catalog file skipped during warm start."""
        with self._lock:
            self._warm_skipped += 1
        count("catalog.store.warm_skipped")

    def persist(self, directory: Optional[str | Path] = None) -> int:
        """Write every resident sketch to *directory* (default: the spill
        directory) as ``<fingerprint>.npz``; returns the file count."""
        target = Path(directory) if directory is not None else self.spill_dir
        if target is None:
            raise SketchError("persist() needs a directory or a spill_dir")
        with self._lock:
            resident = list(self._entries.items())
        for key, sketch in resident:
            save_sketch(target / f"{key}.npz", sketch)
        return len(resident)

    # ------------------------------------------------------------------
    # Internals (call with the lock held)
    # ------------------------------------------------------------------

    def _spill_path(self, key: str) -> Optional[Path]:
        if self.spill_dir is None:
            return None
        return self.spill_dir / f"{key}.npz"

    def _publish_gauges(self) -> None:
        # Last-writer-wins gauges: with several stores in one process the
        # published values describe the most recently mutated store, which
        # in practice is the service's shared instance.
        metric_set("catalog.store.bytes_used", self._bytes_used)
        metric_set("catalog.store.entries", len(self._entries))
        metric_set("catalog.store.budget_bytes", self.budget_bytes)

    def _admit(self, key: str, sketch: MNCSketch) -> None:
        size = sketch.size_bytes()
        previous = self._sizes.pop(key, None)
        if previous is not None:
            del self._entries[key]
            self._bytes_used -= previous
        if size > self.budget_bytes:
            # Never admit something the budget cannot hold; spill directly.
            self._spill(key, sketch)
            return
        while self._bytes_used + size > self.budget_bytes and self._entries:
            self._evict_lru()
        self._entries[key] = sketch
        self._sizes[key] = size
        self._bytes_used += size
        self._publish_gauges()

    def _evict_lru(self) -> None:
        victim, sketch = self._entries.popitem(last=False)
        self._bytes_used -= self._sizes.pop(victim)
        self._evictions += 1
        count("catalog.store.eviction")
        self._spill(victim, sketch)

    def _spill(self, key: str, sketch: MNCSketch) -> None:
        path = self._spill_path(key)
        if path is None:
            return
        if not path.exists():
            save_sketch(path, sketch)
        self._spills += 1
        count("catalog.store.spill")
