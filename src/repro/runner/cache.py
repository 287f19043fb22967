"""Plan/result caching for the sweep runner.

Two layers share one content key space (:func:`repro.runner.keys.cache_key`):

* an **in-memory LRU** holding live Python objects — including full
  :class:`~repro.core.engine.IterationResult` traces — for hits within
  one process;
* an optional **on-disk JSON store** (default layout
  ``.repro_cache/<k[:2]>/<key>.json``) holding the serialisable payload
  envelope, for hits across processes and sessions.

Disk writes are atomic (temp file + ``os.replace``); unreadable or
version-mismatched entries count as misses and are discarded.  All
bookkeeping is thread-safe, so one cache can back concurrent callers.
"""

from __future__ import annotations

import json
import os
import threading
from collections import OrderedDict
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any

#: Bump when the payload schema changes; old entries then read as misses.
CACHE_VERSION = 1

#: Layer tags reported by :meth:`ResultCache.get`.
MEMORY, DISK = "memory", "disk"


@dataclass
class CacheStats:
    """Hit/miss counters for one :class:`ResultCache`."""

    hits: int = 0
    misses: int = 0
    disk_hits: int = 0
    stores: int = 0

    @property
    def lookups(self) -> int:
        """Total lookups observed."""
        return self.hits + self.misses

    @property
    def hit_rate(self) -> float:
        """Fraction of lookups served from either layer (0.0 when idle)."""
        return self.hits / self.lookups if self.lookups else 0.0


@dataclass
class ResultCache:
    """Content-keyed memoization: in-memory LRU plus optional disk store."""

    maxsize: int = 4096
    disk_dir: str | os.PathLike | None = None
    stats: CacheStats = field(default_factory=CacheStats)

    def __post_init__(self) -> None:
        if self.maxsize <= 0:
            raise ValueError("cache maxsize must be positive")
        self._lru: OrderedDict[str, Any] = OrderedDict()
        self._lock = threading.RLock()
        self._dir = Path(self.disk_dir) if self.disk_dir is not None else None

    def __len__(self) -> int:
        return len(self._lru)

    # -- lookups ---------------------------------------------------------------

    def get(self, key: str) -> tuple[str, Any] | None:
        """Look up ``key``; returns ``(layer, value)`` or ``None``.

        The memory layer yields the stored live object; the disk layer
        yields the JSON payload envelope (callers decode and usually
        :meth:`promote` the result).
        """
        with self._lock:
            if key in self._lru:
                self._lru.move_to_end(key)
                self.stats.hits += 1
                return (MEMORY, self._lru[key])
        payload = self._disk_read(key)
        with self._lock:
            if payload is not None:
                self.stats.hits += 1
                self.stats.disk_hits += 1
                return (DISK, payload)
            self.stats.misses += 1
            return None

    # -- stores ----------------------------------------------------------------

    def put(self, key: str, live: Any, payload: dict[str, Any] | None = None) -> None:
        """Store a freshly computed value in both layers.

        ``payload`` is the JSON envelope for the disk store; omit it to
        keep the entry memory-only.
        """
        with self._lock:
            self._lru[key] = live
            self._lru.move_to_end(key)
            while len(self._lru) > self.maxsize:
                self._lru.popitem(last=False)
            self.stats.stores += 1
        if payload is not None:
            self._disk_write(key, payload)

    def promote(self, key: str, live: Any) -> None:
        """Install a decoded disk hit into the memory layer (no disk write)."""
        with self._lock:
            self._lru[key] = live
            self._lru.move_to_end(key)
            while len(self._lru) > self.maxsize:
                self._lru.popitem(last=False)

    def clear(self, *, disk: bool = False) -> None:
        """Drop the memory layer (and the disk store with ``disk=True``)."""
        with self._lock:
            self._lru.clear()
        if disk and self._dir is not None and self._dir.is_dir():
            for path in self._dir.glob("*/*.json"):
                try:
                    path.unlink()
                except OSError:
                    pass

    # -- disk layer ------------------------------------------------------------

    def _path(self, key: str) -> Path | None:
        if self._dir is None:
            return None
        return self._dir / key[:2] / f"{key}.json"

    def _disk_read(self, key: str) -> dict[str, Any] | None:
        path = self._path(key)
        if path is None or not path.is_file():
            return None
        try:
            with open(path) as handle:
                envelope = json.load(handle)
        except (OSError, json.JSONDecodeError):
            self._discard(path)
            return None
        if (
            not isinstance(envelope, dict)
            or envelope.get("version") != CACHE_VERSION
            or envelope.get("key") != key
        ):
            self._discard(path)
            return None
        return envelope

    def _disk_write(self, key: str, payload: dict[str, Any]) -> None:
        path = self._path(key)
        if path is None:
            return
        envelope = dict(payload)
        envelope["version"] = CACHE_VERSION
        envelope["key"] = key
        path.parent.mkdir(parents=True, exist_ok=True)
        tmp = path.with_suffix(f".tmp.{os.getpid()}")
        try:
            with open(tmp, "w") as handle:
                json.dump(envelope, handle)
            os.replace(tmp, path)
        except OSError:
            self._discard(tmp)

    @staticmethod
    def _discard(path: Path) -> None:
        try:
            path.unlink()
        except OSError:
            pass
