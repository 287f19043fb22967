"""The fleet's typed client surface: job specs, results and events.

``repro.fleet`` schedules many concurrent fine-tuning requests across a
heterogeneous cluster of simulated servers.  This module holds the value
objects that cross the client boundary:

* :class:`JobSpec` — one fine-tuning request (model, batch, iteration
  budget, priority, deadline, optional hardware-class constraint).
  Frozen and bit-exact through :meth:`JobSpec.to_payload` /
  :meth:`JobSpec.from_payload`, which is what lets the scheduler
  preempt + requeue a job without corrupting its identity.
* :class:`JobResult` — the terminal record for one job (completed or
  rejected) with its latency decomposition and disruption counts.
* :class:`FleetEvent` — one entry in the fleet's audit timeline
  (submit / start / preempt / requeue / migrate / complete / reject /
  degrade / restore).

Everything downstream — schedulers, the :class:`~repro.fleet.cluster.Fleet`
event loop, the run-ledger records — speaks these types rather than
ad-hoc dicts, mirroring how single-point evaluation speaks
:class:`~repro.core.evaluation.EvalOutcome`.
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass, field, fields
from typing import Any


class FleetError(ValueError):
    """Raised for malformed job specs or fleet configuration."""


#: Event kinds the fleet timeline can carry, in rough lifecycle order.
EVENT_KINDS = (
    "submit",
    "start",
    "preempt",
    "requeue",
    "migrate",
    "complete",
    "reject",
    "degrade",
    "restore",
    "scheduler_error",
    "checkpoint",
    "node_crash",
    "node_rejoin",
    "quarantine",
    "recover",
)


@dataclass(frozen=True)
class JobSpec:
    """One fine-tuning request, immutable for its whole fleet lifetime.

    ``iterations`` is the job's training budget; its service time on a
    node is ``iterations`` times the node's simulated iteration time for
    (model, batch).  ``priority`` is larger-is-more-urgent (the priority
    scheduler ages it to bound starvation).  ``hardware_class`` pins the
    job to nodes advertising that class (``None`` = any feasible node).
    ``submit_at`` is the arrival instant on the fleet clock.
    ``trace_id`` is the causal trace the job was born under (see
    :mod:`repro.obs.tracectx`; ``""`` when submitted outside any trace)
    — it follows the job through preemption, requeue and migration, and
    stamps every fleet event and ledger record the job produces.
    """

    job_id: str
    model: str
    batch_size: int
    iterations: int
    priority: int = 0
    deadline_s: float | None = None
    hardware_class: str | None = None
    submit_at: float = 0.0
    trace_id: str = ""
    #: Checkpoint cadence in iterations (``None`` = the job never
    #: checkpoints).  Preemption, migration and crash recovery roll the
    #: job back to its last checkpoint — only checkpointed work
    #: survives losing the node, so ``None`` means full restart.
    checkpoint_every: int | None = None

    def __post_init__(self) -> None:
        if not self.job_id:
            raise FleetError("job_id cannot be empty")
        if self.batch_size <= 0:
            raise FleetError(f"job {self.job_id}: batch_size must be positive")
        if self.iterations <= 0:
            raise FleetError(f"job {self.job_id}: iterations must be positive")
        if self.deadline_s is not None and self.deadline_s <= 0:
            raise FleetError(f"job {self.job_id}: deadline_s must be positive")
        if self.submit_at < 0:
            raise FleetError(f"job {self.job_id}: submit_at cannot be negative")
        if self.checkpoint_every is not None and self.checkpoint_every < 1:
            raise FleetError(
                f"job {self.job_id}: checkpoint_every must be >= 1 when set"
            )

    def to_payload(self) -> dict[str, Any]:
        """JSON-serialisable payload; :meth:`from_payload` round-trips it bit-exactly.

        Every field is a scalar, so a shallow ``{name: value}`` map is the
        whole payload (``dataclasses.asdict`` would deep-copy each one).
        """
        return {f.name: getattr(self, f.name) for f in fields(self)}

    @classmethod
    def from_payload(cls, payload: dict[str, Any]) -> "JobSpec":
        """Rebuild a spec from :meth:`to_payload` output."""
        if not isinstance(payload, dict) or "job_id" not in payload:
            raise FleetError(f"not a job spec payload: {payload!r}")
        known = set(cls.__dataclass_fields__)
        return cls(**{key: value for key, value in payload.items() if key in known})


@dataclass(frozen=True)
class FleetEvent:
    """One entry in the fleet's append-only decision timeline."""

    time: float
    kind: str
    job_id: str | None = None
    node: str | None = None
    detail: str = ""
    trace_id: str = ""

    def __post_init__(self) -> None:
        if self.kind not in EVENT_KINDS:
            raise FleetError(f"unknown fleet event kind {self.kind!r}")

    def to_payload(self) -> dict[str, Any]:
        return asdict(self)

    def __str__(self) -> str:
        who = f" {self.job_id}" if self.job_id else ""
        where = f" @{self.node}" if self.node else ""
        tail = f": {self.detail}" if self.detail else ""
        return f"t={self.time:8.1f}s {self.kind}{who}{where}{tail}"


@dataclass
class JobResult:
    """The terminal record for one job.

    ``latency_s`` is submit-to-finish (the fleet's P99 metric);
    ``wait_s`` the portion spent queued (including requeues);
    ``service_s`` the portion actually executing on a node.
    """

    spec: JobSpec
    state: str  # "completed" | "rejected"
    node: str | None = None
    submitted_at: float = 0.0
    started_at: float | None = None
    finished_at: float | None = None
    iteration_time: float = math.nan
    preemptions: int = 0
    migrations: int = 0
    reason: str | None = None
    nodes_visited: tuple[str, ...] = field(default_factory=tuple)
    #: Iterations executed then rolled back (redone work): every unseat
    #: — preemption, migration, node crash, coordinator crash — loses
    #: whatever ran past the job's last checkpoint.
    lost_iterations: int = 0

    @property
    def completed(self) -> bool:
        return self.state == "completed"

    @property
    def latency_s(self) -> float:
        """Submit-to-finish seconds (NaN while unfinished / when rejected)."""
        if self.finished_at is None:
            return math.nan
        return self.finished_at - self.submitted_at

    @property
    def service_s(self) -> float:
        """Seconds the job spent executing (iterations x iteration time)."""
        if not self.completed or math.isnan(self.iteration_time):
            return math.nan
        return self.spec.iterations * self.iteration_time

    @property
    def wait_s(self) -> float:
        """Queued seconds: total latency minus execution time."""
        latency = self.latency_s
        service = self.service_s
        if math.isnan(latency) or math.isnan(service):
            return math.nan
        return max(0.0, latency - service)

    @property
    def met_deadline(self) -> bool | None:
        """Deadline verdict, or ``None`` when the spec carries no deadline."""
        if self.spec.deadline_s is None:
            return None
        latency = self.latency_s
        if math.isnan(latency):
            return False
        return latency <= self.spec.deadline_s

    def to_payload(self) -> dict[str, Any]:
        return {
            "spec": self.spec.to_payload(),
            "state": self.state,
            "node": self.node,
            "submitted_at": self.submitted_at,
            "started_at": self.started_at,
            "finished_at": self.finished_at,
            "iteration_time": self.iteration_time,
            "latency_s": self.latency_s,
            "wait_s": self.wait_s,
            "preemptions": self.preemptions,
            "migrations": self.migrations,
            "reason": self.reason,
            "nodes_visited": list(self.nodes_visited),
            "lost_iterations": self.lost_iterations,
        }


def percentile(values: list[float], q: float) -> float:
    """The ``q``-quantile (0..1) by the nearest-rank rule (NaN when empty)."""
    if not values:
        return math.nan
    if not 0 < q <= 1:
        raise FleetError(f"quantile must be in (0, 1], got {q}")
    ordered = sorted(values)
    rank = max(1, math.ceil(q * len(ordered)))
    return ordered[rank - 1]
