"""Append-only JSONL run ledger: the longitudinal memory of evaluations.

Every evaluation the repo cares about — a CLI ``repro sweep`` point, an
experiment-harness grid cell, a ``repro obs report --ledger`` run — can
be recorded as one :class:`LedgerEntry` line in a JSON-lines file.  An
entry carries everything needed to compare two runs *later, on another
machine, without re-simulating*: the point's content key (the same
SHA-256 the runner memoizes on), the git SHA the code was at, the
hardware preset, the full ``EvalOutcome.metrics`` payload and — inside
it — the per-stage per-resource bottleneck-attribution table from
:mod:`repro.obs.attribution`.

The format is deliberately boring: one JSON object per line, append
only, readable with ``jq`` and diffable with
:mod:`repro.obs.diff` / ``repro obs diff``.  Corrupt or foreign lines
are skipped on read (a ledger survives concurrent writers and partial
writes), and a ``schema`` field versions each entry independently.

The conventional home for the repo's own trajectory is
:data:`DEFAULT_LEDGER_PATH` (``benchmarks/results/ledger.jsonl``) — the
committed copy there is the CI regression gate's baseline
(``benchmarks/diff_bench.py``).
"""

from __future__ import annotations

import datetime as _datetime
import os
import subprocess
from dataclasses import dataclass, field, fields, replace
from typing import TYPE_CHECKING, Any, Iterator

from repro.util.jsonl import JsonlFile

from .attribution import AttributionReport

if TYPE_CHECKING:  # pragma: no cover - import cycle guard, typing only
    from repro.core.evaluation import EvalOutcome
    from repro.hardware.spec import ServerSpec

#: Bump when an entry's shape changes incompatibly.
SCHEMA_VERSION = 1

#: Where the repo's own run trajectory conventionally lives (the CI
#: gate's committed baseline).  Relative to the working directory.
DEFAULT_LEDGER_PATH = os.path.join("benchmarks", "results", "ledger.jsonl")


class LedgerError(ValueError):
    """Raised for unusable ledger files or malformed entries."""


def current_git_sha(cwd: str | None = None) -> str:
    """The current ``HEAD`` SHA, or ``"unknown"`` outside a git checkout."""
    try:
        proc = subprocess.run(
            ["git", "rev-parse", "HEAD"],
            capture_output=True,
            text=True,
            cwd=cwd,
            timeout=10,
        )
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    sha = proc.stdout.strip()
    return sha if proc.returncode == 0 and sha else "unknown"


def hardware_payload(server: "ServerSpec") -> dict[str, Any]:
    """The serialisable gist of a server spec (enough to group runs by)."""
    return {
        "server": server.name,
        "gpu": server.gpu.name,
        "n_gpus": server.n_gpus,
        "main_memory_bytes": server.main_memory_bytes,
        "n_ssds": server.n_ssds,
        "ssd": server.ssd.name,
    }


@dataclass
class LedgerEntry:
    """One recorded evaluation: identity, provenance and metrics.

    ``label`` is the run's comparison identity — two ledgers are aligned
    label-to-label by the diff engine — and defaults to the sweep
    point's ``kind:policy/model/bN@server`` form.  ``config_key`` is the
    runner's content key for the exact point (policy state + model
    config + batch + full server spec), so "same label, different key"
    detects a config drift that would make a comparison misleading.
    """

    label: str
    policy: str
    model: str
    batch_size: int | None
    server: str
    feasible: bool
    metrics: dict[str, Any] = field(default_factory=dict)
    kind: str = "evaluate"
    config_key: str = ""
    git_sha: str = ""
    hardware: dict[str, Any] = field(default_factory=dict)
    source: str = ""
    cached: bool = False
    timestamp: str = ""
    trace_id: str = ""
    schema: int = SCHEMA_VERSION

    # -- metric accessors ------------------------------------------------------

    @property
    def iteration_time(self) -> float | None:
        value = self.metrics.get("iteration_time")
        return float(value) if value is not None else None

    @property
    def tokens_per_s(self) -> float | None:
        value = self.metrics.get("tokens_per_s")
        return float(value) if value is not None else None

    def attribution(self) -> AttributionReport | None:
        """The embedded bottleneck-attribution report, when present."""
        payload = self.metrics.get("attribution")
        if payload is None:
            return None
        return AttributionReport.from_payload(payload)

    # -- serialisation ---------------------------------------------------------

    def to_payload(self) -> dict[str, Any]:
        """The entry's fields by name, shared rather than deep-copied.

        The payload is encoded straight away by the append path; a deep
        copy (``dataclasses.asdict``) would serialise to the same line.
        """
        return {f.name: getattr(self, f.name) for f in fields(self)}

    @classmethod
    def from_payload(cls, payload: dict[str, Any]) -> "LedgerEntry":
        if not isinstance(payload, dict) or "label" not in payload:
            raise LedgerError(f"not a ledger entry: {payload!r}")
        known = {f for f in cls.__dataclass_fields__}  # noqa: C416 - set of names
        return cls(**{key: value for key, value in payload.items() if key in known})


def entry_from_outcome(
    outcome: "EvalOutcome",
    *,
    label: str | None = None,
    kind: str = "evaluate",
    config_key: str = "",
    server: "ServerSpec | None" = None,
    source: str = "",
    git_sha: str | None = None,
    timestamp: str | None = None,
) -> LedgerEntry:
    """Build a ledger entry from an :class:`EvalOutcome`.

    ``server`` (the full spec, when the caller still has it) populates
    the hardware block; the outcome alone only knows the server's name.
    """
    if timestamp is None:
        timestamp = (
            _datetime.datetime.now(_datetime.timezone.utc)
            .isoformat(timespec="seconds")
        )
    return LedgerEntry(
        label=label
        or f"{kind}:{outcome.policy}/{outcome.model}/b{outcome.batch_size}@{outcome.server}",
        policy=outcome.policy,
        model=outcome.model,
        batch_size=outcome.batch_size,
        server=outcome.server,
        feasible=outcome.feasible,
        metrics=outcome.metrics,
        kind=kind,
        config_key=config_key,
        git_sha=git_sha if git_sha is not None else current_git_sha(),
        hardware=hardware_payload(server) if server is not None else {},
        source=source,
        cached=outcome.cached,
        timestamp=timestamp,
    )


class RunLedger:
    """An append-only JSONL file of :class:`LedgerEntry` lines.

    Reads are tolerant: lines that fail to parse (or parse to something
    that is not an entry) are counted in ``skipped`` and ignored, so one
    torn write never poisons the trajectory.  A *trailing* record torn
    by a crash mid-append is tracked separately in ``truncated_tail``
    (see :class:`repro.util.jsonl.JsonlFile`) — recovery code uses that
    to tell "lost the in-flight append" apart from interior corruption.

    ``fsync=True`` makes every append durable before returning; the
    planner service's decision ledger runs in that mode, bulk recording
    keeps the cheaper default.
    """

    def __init__(self, path: str, *, fsync: bool = False) -> None:
        self.path = path
        self.skipped = 0
        self._file = JsonlFile(path, fsync=fsync)

    def __repr__(self) -> str:  # pragma: no cover - debugging nicety
        return f"RunLedger({self.path!r})"

    @property
    def fsync(self) -> bool:
        """Whether appends fsync before returning."""
        return self._file.fsync

    @property
    def truncated_tail(self) -> int:
        """Torn trailing records seen by the most recent read (0 or 1)."""
        return self._file.truncated_tail

    # -- writing ---------------------------------------------------------------

    def append(self, entry: LedgerEntry) -> LedgerEntry:
        """Append one entry (creating the parent directory as needed).

        Entries appended while a :mod:`repro.obs.tracectx` context is
        active are stamped with its trace id — the single hook that makes
        every ``kind="serve"/"fleet"/"adapt"/...`` record retrievable via
        ``repro obs report --trace-id``.  An explicit ``trace_id`` on the
        entry (e.g. a fleet decision recorded after its job's ambient
        scope ended) wins over the ambient one.
        """
        if not entry.trace_id:
            from . import tracectx

            ambient = tracectx.current_trace_id()
            if ambient:
                entry = replace(entry, trace_id=ambient)
        self._file.append(entry.to_payload())
        return entry

    def record(
        self,
        outcome: "EvalOutcome",
        **entry_kwargs: Any,
    ) -> LedgerEntry:
        """Build an entry from an outcome (see :func:`entry_from_outcome`) and append it."""
        return self.append(entry_from_outcome(outcome, **entry_kwargs))

    # -- reading ---------------------------------------------------------------

    def __iter__(self) -> Iterator[LedgerEntry]:
        self.skipped = 0
        for payload in self._file:
            try:
                yield LedgerEntry.from_payload(payload)
            except (LedgerError, TypeError):
                self.skipped += 1
        # Unparseable lines the JSONL layer dropped count too (torn tails
        # stay separate, surfaced via ``truncated_tail``).
        self.skipped += self._file.skipped

    def entries(self) -> list[LedgerEntry]:
        """Every parseable entry, in file (= chronological append) order."""
        # A comprehension, not list(self): list() would probe __len__ for a
        # size hint, and __len__ is itself defined in terms of this method.
        return [entry for entry in self]

    def __len__(self) -> int:
        return len(self.entries())

    def last(self, label: str | None = None) -> LedgerEntry | None:
        """The newest entry, optionally restricted to one label."""
        found: LedgerEntry | None = None
        for entry in self:
            if label is None or entry.label == label:
                found = entry
        return found

    def latest_by_label(self) -> dict[str, LedgerEntry]:
        """The newest entry per label — the "current state" view a diff aligns."""
        latest: dict[str, LedgerEntry] = {}
        for entry in self:
            latest[entry.label] = entry
        return latest


def load_ledger(path: str) -> RunLedger:
    """Open a ledger for reading, failing early when the file is absent."""
    if not os.path.exists(path):
        raise LedgerError(f"no ledger at {path!r}")
    return RunLedger(path)
