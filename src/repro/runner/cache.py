"""The content-keyed result store of the sweep runner and the planner service.

Two layers share one content key space (:func:`repro.runner.keys.cache_key`):

* an **in-memory LRU** holding live Python objects — including full
  :class:`~repro.core.engine.IterationResult` traces — for hits within
  one process;
* an optional **on-disk JSON store** (layout
  ``<disk_dir>/<k[:2]>/<key>.json``; ``repro sweep`` conventionally uses
  ``.repro_cache/``, ``repro serve`` ``.serve-cache/``) holding the
  serialisable payload, for hits across processes and sessions.  Both
  CLIs encode values with :func:`encode_value` and decode them with
  :func:`decode_value`, so either can read the other's directory.

Each disk entry is ``{version, key, crc32, payload}``, written through a
temp file, ``fsync`` and ``os.replace``, so a reader never sees half an
entry and a crash mid-write leaves the previous one intact.  Every read
checks the CRC32: a torn, bit-flipped or hand-edited entry is moved
aside as ``<key>.json.corrupt``, counted in :attr:`CacheStats.corrupt`
and read as a miss, never served.  An entry of another
:data:`CACHE_VERSION` is a plain miss, replaced by the next store.

:meth:`ResultCache.get_or_compute` is single-flight: when N threads miss
on one key, one computes while the rest wait for its result, and a
failed compute hands the flight to a waiter instead of stranding the
key.  All bookkeeping is thread-safe, so one cache can back concurrent
callers.
"""

from __future__ import annotations

import json
import logging
import os
import threading
import zlib
from collections import OrderedDict
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Callable

from repro.core.evaluation import EvalOutcome

logger = logging.getLogger("repro.runner.cache")

#: Bump when the entry schema changes; old entries then read as misses.
CACHE_VERSION = 2

#: Layer tags reported by :meth:`ResultCache.get`.
MEMORY, DISK = "memory", "disk"

#: Most live values the memory layer holds; the least recently used goes first.
LRU_SIZE = 4096


def _checksum(payload: dict[str, Any]) -> int:
    return zlib.crc32(json.dumps(payload, sort_keys=True).encode("utf-8"))


def encode_value(value: Any) -> dict[str, Any]:
    """The JSON payload stored for a computed point value."""
    if isinstance(value, EvalOutcome):
        return {"type": "outcome", "value": value.to_payload()}
    return {"type": "scalar", "value": value}


def decode_value(payload: dict[str, Any]) -> Any:
    """Rebuild a point value from its :func:`encode_value` payload."""
    if payload.get("type") == "outcome":
        return EvalOutcome.from_payload(payload["value"])
    return payload.get("value")


@dataclass
class CacheStats:
    """Hit/miss counters for one :class:`ResultCache`."""

    hits: int = 0
    misses: int = 0
    disk_hits: int = 0
    stores: int = 0
    #: Damaged disk entries moved aside (each also reads as a miss).
    corrupt: int = 0

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

    disk_dir: str | os.PathLike | None = None
    stats: CacheStats = field(default_factory=CacheStats)

    def __post_init__(self) -> None:
        self._lru: OrderedDict[str, Any] = OrderedDict()
        self._lock = threading.RLock()
        self._inflight: dict[str, threading.Event] = {}
        self._dir = Path(self.disk_dir) if self.disk_dir is not None else None

    def __len__(self) -> int:
        return len(self._lru)

    # -- lookups ---------------------------------------------------------------

    def get(self, key: str) -> tuple[str, Any] | None:
        """Look up ``key``; returns ``(layer, value)`` or ``None``.

        The memory layer yields the stored live object; the disk layer
        yields the JSON payload (callers decode and usually
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

    def get_or_compute(
        self,
        key: str,
        compute: Callable[[], dict[str, Any]],
        *,
        wait_timeout_s: float | None = None,
    ) -> dict[str, Any]:
        """The payload for ``key``, computing it at most once at a time.

        For values that are their own JSON payload: ``compute`` returns
        one, and it is stored in both layers.  A compute that raises
        stores nothing and propagates; its waiters retry, and one of
        them takes the flight over.  ``wait_timeout_s`` bounds each wait
        (``TimeoutError``), so a wedged computer cannot strand its
        waiters past their deadline.  The lookups made here count as
        neither hit nor miss: only a caller's :meth:`get` does.
        """
        while True:
            found = self._peek(key)
            if found is not None:
                return found
            with self._lock:
                flight = self._inflight.get(key)
                mine = flight is None
                if mine:
                    flight = self._inflight[key] = threading.Event()
            if not mine:
                if not flight.wait(wait_timeout_s):
                    raise TimeoutError(f"timed out waiting for in-flight compute of {key}")
                continue  # usually a hit now; after a crash, claim the flight
            try:
                # Another flight may have landed between the miss and the claim.
                found = self._peek(key)
                if found is None:
                    found = compute()
                    self.put(key, found, found)
                return found
            finally:
                with self._lock:
                    del self._inflight[key]
                flight.set()

    def _peek(self, key: str) -> Any:
        with self._lock:
            if key in self._lru:
                return self._lru[key]
        return self._disk_read(key)

    # -- stores ----------------------------------------------------------------

    def put(self, key: str, live: Any, payload: dict[str, Any] | None = None) -> None:
        """Store a freshly computed value in both layers.

        ``payload`` is the JSON payload for the disk store; omit it to
        keep the entry memory-only.
        """
        with self._lock:
            self.promote(key, live)
            self.stats.stores += 1
        if payload is not None:
            self._disk_write(key, payload)

    def promote(self, key: str, live: Any) -> None:
        """Install a value (a decoded disk hit) in the memory layer only."""
        with self._lock:
            self._lru[key] = live
            self._lru.move_to_end(key)
            while len(self._lru) > LRU_SIZE:
                self._lru.popitem(last=False)

    def clear(self) -> None:
        """Drop the memory layer."""
        with self._lock:
            self._lru.clear()

    # -- disk layer ------------------------------------------------------------

    def _path(self, key: str) -> Path | None:
        if self._dir is None:
            return None
        # No key may name a path outside the root.
        safe = "".join(c for c in key if c.isalnum() or c in "-_")
        return self._dir / safe[:2] / f"{safe}.json"

    def _disk_read(self, key: str) -> dict[str, Any] | None:
        path = self._path(key)
        if path is None:
            return None
        try:
            with open(path, encoding="utf-8") as handle:
                envelope = json.load(handle)
        except FileNotFoundError:
            return None
        except (OSError, UnicodeDecodeError, json.JSONDecodeError):
            return self._quarantine(path, "unreadable")
        if not isinstance(envelope, dict):
            return self._quarantine(path, "not an entry")
        if envelope.get("version", CACHE_VERSION) != CACHE_VERSION:
            return None  # another schema's entry, not damage: the next store replaces it
        payload = envelope.get("payload")
        if (
            envelope.get("key") != key
            or not isinstance(payload, dict)
            or envelope.get("crc32") != _checksum(payload)
        ):
            return self._quarantine(path, "checksum mismatch")
        return payload

    def _disk_write(self, key: str, payload: dict[str, Any]) -> None:
        path = self._path(key)
        if path is None:
            return
        # dumps, not dump: only the one-shot encoder runs in C.
        text = json.dumps(
            {"version": CACHE_VERSION, "key": key, "crc32": _checksum(payload), "payload": payload}
        )
        path.parent.mkdir(parents=True, exist_ok=True)
        tmp = path.with_name(f"{path.name}.tmp.{os.getpid()}.{threading.get_ident()}")
        try:
            with open(tmp, "w", encoding="utf-8") as handle:
                handle.write(text)
                handle.flush()
                os.fsync(handle.fileno())
            os.replace(tmp, path)
        except OSError:
            self._discard(tmp)

    def _quarantine(self, path: Path, why: str) -> None:
        """Move a damaged entry aside (a miss, loudly) so it is recomputed."""
        with self._lock:
            self.stats.corrupt += 1
        logger.warning("cache entry %s is corrupt (%s); moved aside", path, why)
        try:
            os.replace(path, path.with_name(f"{path.name}.corrupt"))
        except OSError:  # a racing reader moved it first
            pass

    @staticmethod
    def _discard(path: Path) -> None:
        try:
            path.unlink()
        except OSError:
            pass
