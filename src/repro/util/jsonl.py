"""Crash-tolerant append-only JSON-lines files.

Both durable logs in the repo — the run ledger
(:mod:`repro.obs.ledger`) and the planner service's write-ahead journal
(:mod:`repro.serve.journal`) — are the same on-disk shape: one JSON
object per line, append only.  They also share the same two failure
modes, which this module owns in one place:

* **Torn tail.**  A crash (power loss, ``kill -9``) mid-append leaves a
  final line that is incomplete — it fails to parse *and* has no
  trailing newline.  That is expected damage, not corruption: the
  reader skips exactly that record, logs a warning, and counts it in
  ``truncated_tail`` so recovery code can tell "lost the in-flight
  append" apart from "file is rotting".
* **Interior corruption.**  Any other unparseable line (bit rot, a
  foreign writer, an editor mishap) is counted in ``skipped`` and
  ignored, so one bad line never poisons the rest of the log.

``fsync=True`` makes each append flush and ``os.fsync`` before
returning — the durability a write-ahead journal needs (an accepted
request must survive the crash that follows the acknowledgement), and
opt-in because the run ledger's default workload is bulk recording
where per-line fsync would dominate.

``keep_open=True`` keeps one append handle open across calls instead of
re-opening the file per record, flushing after every write.  That is the
fleet journal's durability point: a flushed line is in the page cache,
which survives ``kill -9`` of the *process* (the failure a coordinator
journal defends against); only power loss also needs ``fsync=True``.
The open/flush split is what keeps journal overhead in the noise — an
open+close per record costs an order of magnitude more than the write.

Every line is ``json.dumps(payload, sort_keys=True)``, produced by one C
encoder built at import from a ``JSONEncoder(sort_keys=True)``'s
settings.  ``JSONEncoder.encode`` builds that encoder again on every
call, which was about a third of the cost of appending a fleet journal
record.  The C encoder is CPython's ``json`` accelerator, so the module
needs CPython.
"""

from __future__ import annotations

import json
import logging
import os
from json.encoder import c_make_encoder, encode_basestring_ascii
from typing import Any, Iterator

logger = logging.getLogger("repro.util.jsonl")

_ENCODER = json.JSONEncoder(sort_keys=True)
#: The C encoder ``_ENCODER.encode`` builds per call, built once.  With no
#: circular-reference memo (``None``) it keeps no state between calls;
#: records are plain trees of dicts and lists.
_ITERENCODE = c_make_encoder(
    None, _ENCODER.default, encode_basestring_ascii, None,
    _ENCODER.key_separator, _ENCODER.item_separator,
    _ENCODER.sort_keys, _ENCODER.skipkeys, _ENCODER.allow_nan,
)


class JsonlFile:
    """One append-only JSONL file with a damage-tolerant reader.

    ``skipped`` and ``truncated_tail`` describe the *most recent* read
    (they reset when iteration starts).  ``truncated_tail`` is 0 or 1:
    only the final record of a file can be torn by a crash.
    """

    def __init__(
        self, path: str, *, fsync: bool = False, keep_open: bool = False
    ) -> None:
        self.path = path
        self.fsync = fsync
        self.keep_open = keep_open
        self.skipped = 0
        self.truncated_tail = 0
        self._handle: Any = None

    def __repr__(self) -> str:  # pragma: no cover - debugging nicety
        return f"JsonlFile({self.path!r}, fsync={self.fsync})"

    # -- writing ---------------------------------------------------------------

    def append(self, payload: dict[str, Any]) -> None:
        """Append one record (creating the parent directory as needed).

        The record is serialised with sorted keys (stable diffs) and
        written as a single ``write`` call so concurrent appenders
        interleave at line granularity, not byte granularity.  In
        ``keep_open`` mode the handle persists across appends (O_APPEND,
        so a reopened writer still lands at the true end of file) and
        every record is flushed before returning.
        """
        line = ("".join(_ITERENCODE(payload, 0)) + "\n").encode("utf-8")
        if self.keep_open:
            if self._handle is None:
                self._ensure_parent()
                self._handle = open(self.path, "ab")
            self._handle.write(line)
            self._handle.flush()
            if self.fsync:
                os.fsync(self._handle.fileno())
            return
        self._ensure_parent()
        with open(self.path, "ab") as handle:
            handle.write(line)
            if self.fsync:
                handle.flush()
                os.fsync(handle.fileno())

    def close(self) -> None:
        """Flush and release a ``keep_open`` handle (no-op otherwise)."""
        if self._handle is not None:
            self._handle.flush()
            self._handle.close()
            self._handle = None

    def _ensure_parent(self) -> None:
        parent = os.path.dirname(self.path)
        if parent:
            os.makedirs(parent, exist_ok=True)

    # -- reading ---------------------------------------------------------------

    def __iter__(self) -> Iterator[dict[str, Any]]:
        """Yield each parseable record in append order.

        Resets then maintains ``skipped`` / ``truncated_tail`` as lines
        are consumed, so the counters are final once iteration ends.
        """
        self.skipped = 0
        self.truncated_tail = 0
        if not os.path.exists(self.path):
            return
        with open(self.path, encoding="utf-8") as handle:
            raw = handle.read()
        if not raw:
            return
        complete = raw.endswith("\n")
        lines = raw.split("\n")
        if lines and lines[-1] == "":
            lines.pop()
        for index, line in enumerate(lines):
            line = line.strip()
            if not line:
                continue
            try:
                payload = json.loads(line)
            except json.JSONDecodeError:
                if index == len(lines) - 1 and not complete:
                    self.truncated_tail += 1
                    logger.warning(
                        "%s: skipping truncated trailing record "
                        "(likely a crash mid-append)",
                        self.path,
                    )
                else:
                    self.skipped += 1
                continue
            if not isinstance(payload, dict):
                self.skipped += 1
                continue
            yield payload

    def records(self) -> list[dict[str, Any]]:
        """Every parseable record, in file (= chronological append) order."""
        return list(self)

    # -- recovery --------------------------------------------------------------

    def repair(self) -> int:
        """Truncate a torn trailing record; returns the bytes removed.

        Appending after a crash would otherwise glue the new record onto
        the torn half-line, corrupting *both*.  Call this before the
        first post-restart append (the service journal does, in
        ``recover()``).  A clean file is untouched and returns 0.
        """
        self.close()  # truncate through a fresh handle, never a live writer
        if not os.path.exists(self.path):
            return 0
        with open(self.path, "rb") as handle:
            raw = handle.read()
        if not raw or raw.endswith(b"\n"):
            return 0
        keep = raw.rfind(b"\n") + 1  # 0 when no newline at all
        removed = len(raw) - keep
        with open(self.path, "r+b") as handle:
            handle.truncate(keep)
            handle.flush()
            os.fsync(handle.fileno())
        logger.warning(
            "%s: truncated %d bytes of torn trailing record", self.path, removed
        )
        return removed
