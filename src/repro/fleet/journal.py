"""Write-ahead journal of fleet scheduler state.

The fleet's crash-safety contract mirrors the serve journal's
(:mod:`repro.serve.journal`) but for *scheduling* accounting: a job the
client saw submitted is never silently lost after a coordinator crash,
and never completed twice.  The mechanism is the same — journal first,
work second:

* every state transition (``submit`` / ``assign`` / ``checkpoint`` /
  ``preempt`` / ``requeue`` / ``reprice`` / ``finish`` / ``reject`` /
  node health) is appended as one JSONL record *when it happens*, a job
  record once the live fleet has applied it through :meth:`JobState.apply`,
  the method the fold replays it through;
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
number or whose numeric field does not convert to its type, and refuses
any job record for a job already terminal, counting it in
``duplicate_terminals``):

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
recover      post-crash marker: ``jobs``, ``requeued``, ``clock``;
             replay rolls every running job back at ``t``, as it did
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
    :meth:`FleetJournal.fold` rebuilds the same record from the journal;
    :meth:`apply` is the one writer of the journaled fields for both.
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

    def done_iterations(self, now: float) -> int:
        """Iterations the running job has done in all by fleet time
        ``now``: those before this run plus those this run completed."""
        assert self.started_at is not None
        done = self.spec.iterations - self.remaining_iterations
        if math.isnan(self.iter_time) or self.iter_time <= 0:
            return done
        # The epsilon keeps an event landing exactly on an iteration
        # boundary (e.g. a checkpoint armed at k * iter_time) from
        # flooring one iteration short through float division.
        ran = int((now - self.started_at) / self.iter_time + 1e-9)
        return done + min(self.remaining_iterations, ran)

    def roll_back(self, now: float) -> dict[str, int]:
        """The ``remaining`` and ``lost`` of unseating the running job at
        fleet time ``now``: every unseat and recovery resumes it at its
        last checkpoint, so at most ``iterations - 1`` iterations survive."""
        resume = self.resume_iterations
        lost = self.done_iterations(now) - (self.spec.iterations - resume)
        return {"remaining": resume, "lost": max(0, lost)}

    def apply(self, rec: str, record: dict[str, Any], t: float) -> bool:
        """Apply one job record at fleet time ``t``; ``False`` when refused.

        A record for a terminal job is refused (exactly-once: the first
        terminal record wins, and nothing revives a finished job).
        """
        if self.terminal:
            return False
        if rec == "assign":
            self.state = "running"
            self.node = record.get("node")
            self.iter_time = record.get("iter_time", math.nan)
            self.remaining_iterations = record.get("remaining", self.remaining_iterations)
            self.started_at = t
            if self.first_started_at is None:
                self.first_started_at = t
            if record.get("migrated"):
                self.migrations += 1
            if isinstance(self.node, str):
                self.nodes_visited.append(self.node)
        elif rec == "checkpoint":
            self.checkpointed = max(self.checkpointed, record.get("iterations", 0))
        elif rec in ("preempt", "requeue"):
            self.state = "queued"
            self.node = None
            self.started_at = None
            self.iter_time = math.nan
            self.remaining_iterations = record.get("remaining", self.remaining_iterations)
            self.lost_iterations += record.get("lost", 0)
            self.preemptions += 1
        elif rec == "reprice":
            self.iter_time = record.get("iter_time", self.iter_time)
            self.remaining_iterations = record.get("remaining", self.remaining_iterations)
            self.started_at = t
        elif rec == "finish":
            self.state = "completed"
            self.node = record.get("node", self.node)
            self.remaining_iterations = 0
            self.finished_at = t
            self.iter_time = record.get("iteration_time", self.iter_time)
            self.preemptions = record.get("preemptions", self.preemptions)
            self.migrations = record.get("migrations", self.migrations)
            self.lost_iterations = record.get("lost", self.lost_iterations)
            visited = record.get("nodes_visited")
            if isinstance(visited, list):
                self.nodes_visited = [str(n) for n in visited]
        elif rec == "reject":
            self.state = "rejected"
            self.node = None
            self.reason = record.get("reason")
            self.preemptions = record.get("preemptions", self.preemptions)
            self.migrations = record.get("migrations", self.migrations)
        return True

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
    #: Job records refused because the job was already terminal (must
    #: stay 0: the exactly-once invariant the property tests pin down).
    duplicate_terminals: int = 0

    @property
    def pending(self) -> list[JobState]:
        """Jobs the crash left live — the recovery requeue set, in
        submit order (running jobs lost their node with the process)."""
        return [job for job in self.jobs.values() if not job.terminal]

    def roll_back(self, t: float) -> None:
        """Unseat every running job at fleet time ``t``, as a coordinator
        crash does (``Fleet.recover`` and each replayed ``recover``)."""
        for job in self.jobs.values():
            if job.state == "running":
                job.apply("preempt", job.roll_back(t), t)


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
                fold.roll_back(t)
            elif rec in ("degrade", "restore", "node_crash", "node_rejoin", "quarantine"):
                self._apply_node(fold, rec, record, t)
            else:
                job = fold.jobs.get(record.get("job_id", ""))
                if job is None:
                    fold.unmatched += 1
                elif not job.apply(rec, record, t):
                    fold.duplicate_terminals += 1
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
