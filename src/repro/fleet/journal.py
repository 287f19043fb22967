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
  :class:`JournalFold` — the last-write-wins state of every job plus
  node health and the fleet clock — and
  :meth:`repro.fleet.cluster.Fleet.recover` rebuilds a live fleet from
  it with exactly-once accounting (terminal jobs stay terminal,
  non-terminal jobs requeue at their last checkpoint).

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
fleet clock; the fold skips a record whose ``t`` is not a finite number):

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

from .api import FleetError, JobSpec

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

#: Job-record kinds that require a known (previously submitted) job.
_JOB_KINDS = (
    "assign",
    "checkpoint",
    "preempt",
    "requeue",
    "reprice",
    "finish",
    "reject",
)


@dataclass
class JobFold:
    """Last-write-wins state of one job, folded from the journal."""

    spec: JobSpec
    seq: int
    submitted_at: float
    #: "queued" | "running" | "completed" | "rejected"
    state: str = "queued"
    node: str | None = None
    remaining: int = 0
    iter_time: float = float("nan")
    #: Total completed iterations durably checkpointed (monotone).
    checkpointed: int = 0
    preemptions: int = 0
    migrations: int = 0
    lost_iterations: int = 0
    first_started_at: float | None = None
    #: Fleet clock at the most recent assign (for lost-work accounting).
    assigned_at: float | None = None
    nodes_visited: list[str] = field(default_factory=list)
    reason: str | None = None
    finished_at: float | None = None

    @property
    def terminal(self) -> bool:
        return self.state in ("completed", "rejected")

    @property
    def resume_iterations(self) -> int:
        """Iterations still owed after a crash: everything past the
        last durable checkpoint is lost (``checkpointed`` is capped at
        ``iterations - 1``, so this is always >= 1 for live jobs)."""
        return max(1, self.spec.iterations - self.checkpointed)


@dataclass
class JournalFold:
    """The fold of one fleet journal: every job's last state, node
    health, and the fleet clock — the input to ``Fleet.recover``."""

    jobs: dict[str, JobFold] = field(default_factory=dict)
    #: job_ids in submit order (result ordering survives recovery).
    order: list[str] = field(default_factory=list)
    #: Per-node health: failed_ssds / bw_sag / alive / quarantined /
    #: crash_times (what the flap hysteresis needs to keep counting).
    nodes: dict[str, dict[str, Any]] = field(default_factory=dict)
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
    def pending(self) -> list[JobFold]:
        """Jobs the crash left live — the recovery requeue set, in
        submit order (running jobs lost their node with the process)."""
        return [
            self.jobs[job_id]
            for job_id in self.order
            if not self.jobs[job_id].terminal
        ]

    @property
    def terminal(self) -> list[JobFold]:
        return [
            self.jobs[job_id] for job_id in self.order if self.jobs[job_id].terminal
        ]

    def _node(self, name: str) -> dict[str, Any]:
        return self.nodes.setdefault(
            name,
            {
                "failed_ssds": 0,
                "bw_sag": 1.0,
                "alive": True,
                "quarantined": False,
                "crash_times": [],
            },
        )


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
        fold.clock = max(fold.clock, float(t))
        if rec == "submit":
            self._apply_submit(fold, record)
            return
        if rec == "recover":
            fold.recoveries += 1
            return
        if rec in ("degrade", "restore", "node_crash", "node_rejoin", "quarantine"):
            self._apply_node(fold, rec, record, float(t))
            return
        job = fold.jobs.get(record.get("job_id", ""))
        if job is None:
            fold.unmatched += 1
            return
        self._apply_job(fold, job, rec, record, float(t))

    @staticmethod
    def _apply_submit(fold: JournalFold, record: dict[str, Any]) -> None:
        try:
            spec = JobSpec.from_payload(record.get("job", {}))
        except (FleetError, TypeError):
            fold.skipped += 1
            return
        if spec.job_id in fold.jobs:
            fold.skipped += 1  # duplicate submit: first write wins
            return
        fold.jobs[spec.job_id] = JobFold(
            spec=spec,
            seq=int(record.get("seq", len(fold.order))),
            submitted_at=float(record.get("submitted_at", spec.submit_at)),
            remaining=spec.iterations,
        )
        fold.order.append(spec.job_id)

    @staticmethod
    def _apply_node(
        fold: JournalFold, rec: str, record: dict[str, Any], t: float
    ) -> None:
        name = record.get("node")
        if not isinstance(name, str) or not name:
            fold.skipped += 1
            return
        health = fold._node(name)
        if rec == "degrade":
            health["failed_ssds"] = int(record.get("failed_ssds", 0))
            health["bw_sag"] = float(record.get("bw_sag", 1.0))
        elif rec == "restore":
            health["failed_ssds"] = 0
            health["bw_sag"] = 1.0
            health["quarantined"] = False
            health["crash_times"] = []
        elif rec == "node_crash":
            health["alive"] = False
            health["crash_times"].append(t)
        elif rec == "node_rejoin":
            health["alive"] = True
        elif rec == "quarantine":
            health["quarantined"] = True

    @staticmethod
    def _apply_job(
        fold: JournalFold,
        job: JobFold,
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
            job.iter_time = float(record.get("iter_time", float("nan")))
            job.remaining = int(record.get("remaining", job.remaining))
            job.assigned_at = t
            if job.first_started_at is None:
                job.first_started_at = t
            if record.get("migrated"):
                job.migrations += 1
            if isinstance(job.node, str):
                job.nodes_visited.append(job.node)
        elif rec == "checkpoint":
            job.checkpointed = max(job.checkpointed, int(record.get("iterations", 0)))
        elif rec in ("preempt", "requeue"):
            job.state = "queued"
            job.node = None
            job.assigned_at = None
            job.iter_time = float("nan")
            job.remaining = int(record.get("remaining", job.remaining))
            job.lost_iterations += int(record.get("lost", 0))
            job.preemptions += 1
        elif rec == "reprice":
            job.iter_time = float(record.get("iter_time", job.iter_time))
            job.remaining = int(record.get("remaining", job.remaining))
            job.assigned_at = t
        elif rec == "finish":
            job.state = "completed"
            job.node = record.get("node", job.node)
            job.remaining = 0
            job.finished_at = t
            job.iter_time = float(record.get("iteration_time", job.iter_time))
            job.preemptions = int(record.get("preemptions", job.preemptions))
            job.migrations = int(record.get("migrations", job.migrations))
            job.lost_iterations = int(record.get("lost", job.lost_iterations))
            visited = record.get("nodes_visited")
            if isinstance(visited, list):
                job.nodes_visited = [str(n) for n in visited]
        elif rec == "reject":
            job.state = "rejected"
            job.node = None
            job.finished_at = t
            job.reason = record.get("reason")
            job.preemptions = int(record.get("preemptions", job.preemptions))
            job.migrations = int(record.get("migrations", job.migrations))
