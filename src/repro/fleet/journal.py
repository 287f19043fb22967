"""Write-ahead journal of fleet scheduler state.

The fleet's crash-safety contract mirrors the serve journal's
(:mod:`repro.serve.journal`) but for *scheduling* accounting: a job the
client saw submitted is never silently lost after a coordinator crash,
and never completed twice.  The mechanism is the same — journal first,
work second:

* every state transition (``submit`` / ``assign`` / ``checkpoint`` /
  ``preempt`` / ``requeue`` / ``reprice`` / ``finish`` / ``reject`` /
  node health) is appended as one JSONL record *when it happens*;
* on restart, :meth:`FleetJournal.fold` replays the journal into a
  :class:`JournalFold` — every job's last state as the fleet's own
  :class:`JobState`, each node's health records in order, and the
  fleet clock — and :meth:`repro.fleet.cluster.Fleet.recover` rebuilds
  a live fleet from it with exactly-once accounting (terminal jobs stay
  terminal, non-terminal jobs requeue at their last checkpoint).

The file format is :class:`repro.util.jsonl.JsonlFile` in ``keep_open``
mode: one persistent append handle, flush per record.  A flushed line
survives ``kill -9`` of the coordinator (the page cache outlives the
process); the journal does not fsync, because power-loss durability
would cost ~1000x per record.  A crash mid-append tears at most the final
line; :meth:`repair` truncates it before the first post-crash append,
exactly the serve journal's discipline.  The torn record is by
definition the transition being applied at the instant of death — fold
recovers the job at its previous state, which costs redone work, never
lost or duplicated jobs.

Record grammar (``rec`` discriminates; every record carries ``t``, the
fleet clock; the fold skips, whole, a record whose ``t`` is not a finite
number or whose numeric field does not convert to its type):

========== ==============================================================
submit       ``job`` (full spec payload), ``seq``, ``submitted_at``
assign       ``job_id``, ``node``, ``iter_time``, ``remaining``,
             ``migrated``
checkpoint   ``job_id``, ``node``, ``iterations`` (total completed
             iterations durably checkpointed — monotone per job)
preempt      ``job_id``, ``node``, ``remaining`` (post-rollback),
             ``lost``
requeue      like ``preempt`` plus ``reason``
reprice      ``job_id``, ``node``, ``iter_time``, ``remaining``
finish       ``job_id``, ``node``, ``started_at``, ``iteration_time``,
             ``preemptions``, ``migrations``, ``lost``,
             ``nodes_visited``
reject       ``job_id``, ``reason``, disruption counters
degrade      ``node``, ``failed_ssds``, ``bw_sag``
restore      ``node`` (healed to provisioned spec, quarantine lifted)
node_crash   ``node`` (fail-stop: drops off the fleet)
node_rejoin  ``node`` (comes back; stays out if quarantined)
quarantine   ``node``, ``crashes``, ``window_s`` (anti-flap hysteresis)
recover      post-crash marker: ``jobs``, ``requeued``, ``clock``
========== ==============================================================
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Any

from repro.util.jsonl import JsonlFile

from .api import FleetError, JobResult, JobSpec

#: Record kinds the fold understands, in rough lifecycle order.
RECORD_KINDS = (
    "submit",
    "assign",
    "checkpoint",
    "preempt",
    "requeue",
    "reprice",
    "finish",
    "reject",
    "degrade",
    "restore",
    "node_crash",
    "node_rejoin",
    "quarantine",
    "recover",
)

#: The type each numeric record field converts to.  The fold converts
#: every such field a record carries before it applies any of them, so a
#: record with a wrongly typed field is skipped whole.
_FIELD_TYPES: dict[str, type] = {
    **dict.fromkeys(("seq", "remaining", "iterations", "lost", "failed_ssds"), int),
    **dict.fromkeys(("preemptions", "migrations"), int),
    **dict.fromkeys(("submitted_at", "iter_time", "iteration_time", "bw_sag"), float),
}


@dataclass
class JobState:
    """Mutable per-job bookkeeping (the immutable identity stays in ``spec``).

    The live fleet keeps one per submitted job, and
    :meth:`FleetJournal.fold` rebuilds the same record from the journal,
    so a recovered fleet resumes from exactly what the crashed one wrote.
    """

    spec: JobSpec
    seq: int
    submitted_at: float
    remaining_iterations: int
    #: "queued" | "running" | "completed" | "rejected"
    state: str = "queued"
    node: str | None = None
    #: Fleet clock at the current run's assign or latest reprice: the
    #: run's completed iterations count from here.
    started_at: float | None = None
    first_started_at: float | None = None
    finished_at: float | None = None
    iter_time: float = math.nan
    #: Bumped on every (re)dispatch and preemption; stale completion
    #: events carry an older version and are ignored.
    version: int = 0
    preemptions: int = 0
    migrations: int = 0
    nodes_visited: list[str] = field(default_factory=list)
    #: Total completed iterations durably checkpointed (monotone).
    checkpointed: int = 0
    #: Iterations executed then rolled back (redone work).
    lost_iterations: int = 0
    reason: str | None = None

    @property
    def terminal(self) -> bool:
        return self.state in ("completed", "rejected")

    @property
    def resume_iterations(self) -> int:
        """Iterations still owed once the job rolls back to its last
        checkpoint (at least one: a checkpoint past ``iterations - 1``
        keeps only ``iterations - 1``)."""
        return max(1, self.spec.iterations - self.checkpointed)

    def result(self) -> JobResult:
        """The terminal record (a rejected job has no start or rate)."""
        completed = self.state == "completed"
        return JobResult(
            spec=self.spec,
            state=self.state,
            node=self.node,
            submitted_at=self.submitted_at,
            started_at=self.first_started_at if completed else None,
            finished_at=self.finished_at,
            iteration_time=self.iter_time if completed else math.nan,
            preemptions=self.preemptions,
            migrations=self.migrations,
            reason=self.reason,
            nodes_visited=tuple(self.nodes_visited),
            lost_iterations=self.lost_iterations,
        )


@dataclass
class JournalFold:
    """The fold of one fleet journal: every job's last state, each node's
    health records, and the fleet clock — the input to ``Fleet.recover``."""

    #: Every submitted job, in submit order (result ordering survives
    #: recovery).
    jobs: dict[str, JobState] = field(default_factory=dict)
    #: Per node, its health records in journal order as ``(rec, t,
    #: failed_ssds, bw_sag)`` (the last two are a ``degrade``'s own).
    nodes: dict[str, list[tuple[str, float, int, float]]] = field(
        default_factory=dict
    )
    #: The fleet clock at the last journaled transition.
    clock: float = 0.0
    recoveries: int = 0
    truncated_tail: int = 0
    skipped: int = 0
    #: Job records naming a job with no surviving ``submit`` (interior
    #: corruption only — submits are journaled before the job exists).
    unmatched: int = 0
    #: Terminal records for an already-terminal job (must stay 0: the
    #: exactly-once invariant the property tests pin down).
    duplicate_terminals: int = 0

    @property
    def pending(self) -> list[JobState]:
        """Jobs the crash left live — the recovery requeue set, in
        submit order (running jobs lost their node with the process)."""
        return [job for job in self.jobs.values() if not job.terminal]


class FleetJournal:
    """Append-only WAL over :class:`JsonlFile` (keep-open, flush per record)."""

    def __init__(self, path: str) -> None:
        self.path = path
        self._file = JsonlFile(path, keep_open=True)
        self.repaired_bytes = 0

    def __repr__(self) -> str:  # pragma: no cover - debugging nicety
        return f"FleetJournal({self.path!r})"

    def close(self) -> None:
        self._file.close()

    def repair(self) -> int:
        """Truncate a torn tail before the first post-crash append."""
        removed = self._file.repair()
        self.repaired_bytes += removed
        return removed

    # -- writing ---------------------------------------------------------------

    def append(self, rec: str, t: float, **fields_: Any) -> None:
        """Append one transition record (``rec`` must be a known kind)."""
        if rec not in RECORD_KINDS:
            raise FleetError(f"unknown journal record kind {rec!r}")
        self._file.append({"rec": rec, "t": t, **fields_})

    # -- reading ---------------------------------------------------------------

    def records(self) -> list[dict[str, Any]]:
        """Every parseable record in append order (damage-tolerant)."""
        return self._file.records()

    def fold(self) -> JournalFold:
        """Replay the journal into last-write-wins fleet state.

        Replay is idempotent by construction: the fold is a pure
        function of the record sequence, so folding any prefix twice
        yields identical state (the Hypothesis property in
        ``tests/test_fleet_crash.py``).
        """
        fold = JournalFold()
        for record in self._file:
            self._apply(fold, record)
        fold.skipped += self._file.skipped
        fold.truncated_tail = self._file.truncated_tail
        return fold

    def _apply(self, fold: JournalFold, record: dict[str, Any]) -> None:
        rec = record.get("rec")
        t = record.get("t")
        if (
            rec not in RECORD_KINDS
            or isinstance(t, bool)
            or not isinstance(t, (int, float))
            or not math.isfinite(t)
        ):
            fold.skipped += 1
            return
        t = float(t)
        try:
            # Convert every numeric field before any field applies.
            record = {
                key: _FIELD_TYPES[key](value) if key in _FIELD_TYPES else value
                for key, value in record.items()
            }
            if rec == "submit":
                self._apply_submit(fold, record)
            elif rec == "recover":
                fold.recoveries += 1
            elif rec in ("degrade", "restore", "node_crash", "node_rejoin", "quarantine"):
                self._apply_node(fold, rec, record, t)
            else:
                job = fold.jobs.get(record.get("job_id", ""))
                if job is None:
                    fold.unmatched += 1
                else:
                    self._apply_job(fold, job, rec, record, t)
        except (TypeError, ValueError, OverflowError):
            # A wrongly typed field or job spec: nothing was applied yet.
            fold.skipped += 1
            return
        fold.clock = max(fold.clock, t)

    @staticmethod
    def _apply_submit(fold: JournalFold, record: dict[str, Any]) -> None:
        spec = JobSpec.from_payload(record.get("job", {}))
        if spec.job_id in fold.jobs:
            fold.skipped += 1  # duplicate submit: first write wins
            return
        fold.jobs[spec.job_id] = JobState(
            spec=spec,
            seq=record.get("seq", len(fold.jobs)),
            submitted_at=record.get("submitted_at", float(spec.submit_at)),
            remaining_iterations=spec.iterations,
        )

    @staticmethod
    def _apply_node(
        fold: JournalFold, rec: str, record: dict[str, Any], t: float
    ) -> None:
        name = record.get("node")
        failed_ssds = record.get("failed_ssds", 0)
        bw_sag = record.get("bw_sag", 1.0)
        if not isinstance(name, str) or not name or failed_ssds < 0 or not 0 < bw_sag <= 1:
            fold.skipped += 1
            return
        fold.nodes.setdefault(name, []).append((rec, t, failed_ssds, bw_sag))

    @staticmethod
    def _apply_job(
        fold: JournalFold,
        job: JobState,
        rec: str,
        record: dict[str, Any],
        t: float,
    ) -> None:
        if rec in ("finish", "reject") and job.terminal:
            fold.duplicate_terminals += 1
            return  # exactly-once: the first terminal record wins
        if rec == "assign":
            job.state = "running"
            job.node = record.get("node")
            job.iter_time = record.get("iter_time", math.nan)
            job.remaining_iterations = record.get("remaining", job.remaining_iterations)
            job.started_at = t
            if job.first_started_at is None:
                job.first_started_at = t
            if record.get("migrated"):
                job.migrations += 1
            if isinstance(job.node, str):
                job.nodes_visited.append(job.node)
        elif rec == "checkpoint":
            job.checkpointed = max(job.checkpointed, record.get("iterations", 0))
        elif rec in ("preempt", "requeue"):
            job.state = "queued"
            job.node = None
            job.started_at = None
            job.iter_time = math.nan
            job.remaining_iterations = record.get("remaining", job.remaining_iterations)
            job.lost_iterations += record.get("lost", 0)
            job.preemptions += 1
        elif rec == "reprice":
            job.iter_time = record.get("iter_time", job.iter_time)
            job.remaining_iterations = record.get("remaining", job.remaining_iterations)
            job.started_at = t
        elif rec == "finish":
            job.state = "completed"
            job.node = record.get("node", job.node)
            job.remaining_iterations = 0
            job.finished_at = t
            job.iter_time = record.get("iteration_time", job.iter_time)
            job.preemptions = record.get("preemptions", job.preemptions)
            job.migrations = record.get("migrations", job.migrations)
            job.lost_iterations = record.get("lost", job.lost_iterations)
            visited = record.get("nodes_visited")
            if isinstance(visited, list):
                job.nodes_visited = [str(n) for n in visited]
        elif rec == "reject":
            job.state = "rejected"
            job.node = None
            job.reason = record.get("reason")
            job.preemptions = record.get("preemptions", job.preemptions)
            job.migrations = record.get("migrations", job.migrations)
