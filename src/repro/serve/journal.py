"""Write-ahead journal of accepted requests.

The crash-safety contract of the service is *accounting*: a request the
client saw accepted is never silently lost, and never double-charged.
The mechanism is the oldest one there is — journal first, work second:

* ``accepted`` is appended (fsync'd) *before* any work starts;
* ``done`` / ``failed`` is appended when the answer is produced (the
  answer's content key travels with the record);
* on restart, :meth:`recover` folds the journal: every ``accepted``
  without a terminal record is an orphan the crash interrupted, and the
  service replays it — against the plan cache first, so a request whose
  answer already landed is *marked* done, not recomputed (no double
  run).

The file format is :class:`repro.util.jsonl.JsonlFile` — the same
torn-tail-tolerant JSONL the run ledger uses, so a ``kill -9`` halfway
through an append costs exactly the record being written (which, being
a WAL, is by definition a request the client had not yet been
acknowledged for... or a terminal marker that replay will regenerate).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any

from repro.util.jsonl import JsonlFile


@dataclass
class JournalAccounting:
    """The fold of one journal: who was accepted, who terminated."""

    accepted: dict[str, dict[str, Any]] = field(default_factory=dict)
    done: set[str] = field(default_factory=set)
    failed: set[str] = field(default_factory=set)
    #: ``done``/``failed`` markers with no matching ``accepted`` record
    #: (only possible when the accepted line itself was torn away).
    unmatched: int = 0
    truncated_tail: int = 0
    skipped: int = 0

    @property
    def orphans(self) -> list[dict[str, Any]]:
        """Accepted requests with no terminal record — the replay set."""
        terminal = self.done | self.failed
        return [
            record
            for request_id, record in self.accepted.items()
            if request_id not in terminal
        ]

    @property
    def duplicate_terminals(self) -> int:
        """Requests marked done/failed more than once (must stay 0)."""
        return self._duplicates

    _duplicates: int = 0


class RequestJournal:
    """Append-only WAL over :class:`JsonlFile` (fsync per append)."""

    def __init__(self, path: str) -> None:
        self.path = path
        self._file = JsonlFile(path, fsync=True)
        self.repaired_bytes = 0

    def repair(self) -> int:
        """Truncate a torn tail before the first post-crash append."""
        removed = self._file.repair()
        self.repaired_bytes += removed
        return removed

    # -- writing ---------------------------------------------------------------

    def accepted(self, request_id: str, query: dict[str, Any], key: str) -> None:
        """Durably record an accepted request before any work starts."""
        self._file.append(
            {"rec": "accepted", "request_id": request_id, "query": query, "key": key}
        )

    def done(self, request_id: str, *, key: str, rung: str, source: str) -> None:
        self._file.append(
            {
                "rec": "done",
                "request_id": request_id,
                "key": key,
                "rung": rung,
                "source": source,
            }
        )

    def failed(self, request_id: str, *, key: str, reason: str) -> None:
        self._file.append(
            {"rec": "failed", "request_id": request_id, "key": key, "reason": reason}
        )

    # -- reading ---------------------------------------------------------------

    def fold(self) -> JournalAccounting:
        """Replay the journal into accepted/terminal accounting."""
        accounting = JournalAccounting()
        duplicates = 0
        for record in self._file:
            kind = record.get("rec")
            request_id = record.get("request_id")
            if not isinstance(request_id, str):
                accounting.skipped += 1
                continue
            if kind == "accepted":
                accounting.accepted[request_id] = record
            elif kind in ("done", "failed"):
                bucket = accounting.done if kind == "done" else accounting.failed
                if request_id in accounting.done or request_id in accounting.failed:
                    duplicates += 1
                if request_id not in accounting.accepted:
                    accounting.unmatched += 1
                bucket.add(request_id)
            else:
                accounting.skipped += 1
        accounting.skipped += self._file.skipped
        accounting.truncated_tail = self._file.truncated_tail
        accounting._duplicates = duplicates
        return accounting
