"""Pluggable fleet scheduling policies.

A scheduler answers two questions whenever the fleet has capacity:

* :meth:`Scheduler.order` — which queued job should dispatch next;
* :meth:`Scheduler.place` — which free node should run it.

Four policies ship:

========== ====================================================================
``fifo``     arrival order, first feasible node — the baseline every queueing
             system regresses to, and the one bursty traces punish with
             head-of-line blocking.
``sjf``      shortest-job-first: remaining service time through the
             :class:`~repro.fleet.oracle.CostOracle` (Algorithm 1's
             ``IterationTimeModel`` behind the sweep cache), placed on the
             fastest free node.  The paper's cost model doing admission work.
``priority`` highest effective priority first, where effective priority ages
             at ``aging_rate`` per queued second — so a low-priority job's
             wait is bounded by ``(p_max - p_min) / aging_rate`` before it
             outranks any fresh arrival.  Preempts the lowest-priority
             running job when a waiting job outranks it by ``preempt_margin``.
``binpack``  arrival order, best-fit placement: the feasible node whose
             GPU/host-DRAM/SSD budgets are *tightest* around the policy's
             :meth:`~repro.core.policy.OffloadPolicy.memory_needs`, keeping
             roomy nodes free for jobs that need the room.
========== ====================================================================
"""

from __future__ import annotations

import abc
import math
from typing import TYPE_CHECKING, Callable

from .api import FleetError

if TYPE_CHECKING:  # pragma: no cover - typing only
    from .journal import JobState
    from .node import Node
    from .oracle import CostOracle


class Scheduler(abc.ABC):
    """One fleet scheduling policy (dispatch order + placement)."""

    name: str = "scheduler"
    #: Whether :meth:`preempt_victim` may evict running jobs.
    preemptive: bool = False

    @abc.abstractmethod
    def order(
        self,
        queue: "list[JobState]",
        now: float,
        nodes: "list[Node]",
        oracle: "CostOracle",
    ) -> "list[JobState]":
        """Queued jobs in dispatch order (does not mutate the queue)."""

    def place(
        self,
        job: "JobState",
        free_nodes: "list[Node]",
        now: float,
        oracle: "CostOracle",
    ) -> "Node | None":
        """The free node this job should run on (default: fastest)."""
        return _min_service_node(job, free_nodes, oracle)

    def preempt_victim(
        self,
        job: "JobState",
        busy_nodes: "list[Node]",
        now: float,
        oracle: "CostOracle",
    ) -> "Node | None":
        """A node whose running job this one may evict (``None`` = never)."""
        return None


def _min_service_node(
    job: "JobState", free_nodes: "list[Node]", oracle: "CostOracle"
) -> "Node | None":
    """The feasible free node with the smallest remaining service time."""
    best: "Node | None" = None
    best_service = math.inf
    for node in free_nodes:
        if not oracle.feasible(job.spec, node):
            continue
        service = oracle.service_time(job.spec, node, job.remaining_iterations)
        if math.isnan(service):
            continue
        if service < best_service:
            best, best_service = node, service
    return best


def _first_feasible_node(
    job: "JobState", free_nodes: "list[Node]", oracle: "CostOracle"
) -> "Node | None":
    for node in free_nodes:
        if oracle.feasible(job.spec, node):
            return node
    return None


class FifoScheduler(Scheduler):
    """Arrival order, first feasible node."""

    name = "fifo"

    def order(self, queue, now, nodes, oracle):
        return sorted(queue, key=lambda job: (job.submitted_at, job.seq))

    def place(self, job, free_nodes, now, oracle):
        return _first_feasible_node(job, free_nodes, oracle)


class SjfScheduler(Scheduler):
    """Shortest remaining service first, via the iteration-time oracle."""

    name = "sjf"

    def order(self, queue, now, nodes, oracle):
        def shortest_service(job: "JobState") -> tuple[float, float, int]:
            services = [
                oracle.service_time(job.spec, node, job.remaining_iterations)
                for node in nodes
                if oracle.feasible(job.spec, node)
            ]
            best = min((s for s in services if not math.isnan(s)), default=math.inf)
            return (best, job.submitted_at, job.seq)

        return sorted(queue, key=shortest_service)


class PriorityScheduler(Scheduler):
    """Aged-priority dispatch with bounded-margin preemption.

    Effective priority is ``spec.priority + aging_rate * queued_seconds``:
    with ``aging_rate > 0`` a job queued longer than
    ``(p_max - p_min) / aging_rate`` outranks every possible fresh
    arrival, which is the starvation bound the property tests pin down.
    """

    name = "priority"
    preemptive = True

    def __init__(self, aging_rate: float = 0.01, preempt_margin: float = 2.0) -> None:
        if aging_rate < 0:
            raise FleetError(f"aging_rate cannot be negative, got {aging_rate}")
        if preempt_margin < 0:
            raise FleetError(f"preempt_margin cannot be negative, got {preempt_margin}")
        self.aging_rate = aging_rate
        self.preempt_margin = preempt_margin

    def effective_priority(self, job: "JobState", now: float) -> float:
        return job.spec.priority + self.aging_rate * max(0.0, now - job.submitted_at)

    def order(self, queue, now, nodes, oracle):
        return sorted(
            queue,
            key=lambda job: (-self.effective_priority(job, now), job.submitted_at, job.seq),
        )

    def preempt_victim(self, job, busy_nodes, now, oracle):
        """The weakest running job this one outranks by the margin."""
        best: "Node | None" = None
        best_priority = math.inf
        wanting = self.effective_priority(job, now)
        for node in busy_nodes:
            victim = node.running
            if victim is None or not oracle.feasible(job.spec, node):
                continue
            running = self.effective_priority(victim, now)
            if wanting > running + self.preempt_margin and running < best_priority:
                best, best_priority = node, running
        return best


class BinPackScheduler(Scheduler):
    """Arrival order with best-fit (tightest-budget) placement."""

    name = "binpack"

    def order(self, queue, now, nodes, oracle):
        return sorted(queue, key=lambda job: (job.submitted_at, job.seq))

    def place(self, job, free_nodes, now, oracle):
        best: "Node | None" = None
        best_slack = math.inf
        for node in free_nodes:
            if not oracle.feasible(job.spec, node):
                continue
            slack = self._slack(job, node, oracle)
            if slack < best_slack:
                best, best_slack = node, slack
        return best

    @staticmethod
    def _slack(job: "JobState", node: "Node", oracle: "CostOracle") -> float:
        """Normalised leftover headroom across the three tier budgets.

        Smaller is a tighter (better) fit.  Falls back to the service
        time when the policy cannot express needs for this shape, so the
        scheduler still makes progress.
        """
        needs = oracle.needs(job.spec, node)
        if needs is None:
            return oracle.service_time(job.spec, node, job.remaining_iterations)
        server = node.current_server()
        budgets = (
            (server.gpu.usable_memory_bytes, needs.gpu_bytes),
            (server.usable_main_memory_bytes, needs.main_bytes),
            (server.ssd_capacity_bytes, needs.ssd_bytes),
        )
        slack = 0.0
        for budget, need in budgets:
            if budget > 0:
                slack += max(0.0, budget - need) / budget
        return slack


#: Scheduler registry, addressable from the CLI and experiments.
SCHEDULERS: dict[str, Callable[[], Scheduler]] = {
    "fifo": FifoScheduler,
    "sjf": SjfScheduler,
    "priority": PriorityScheduler,
    "binpack": BinPackScheduler,
}


def make_scheduler(spec: "str | Scheduler") -> Scheduler:
    """Resolve a scheduler by registry name (instances pass through)."""
    if isinstance(spec, Scheduler):
        return spec
    try:
        return SCHEDULERS[spec]()
    except KeyError:
        raise FleetError(
            f"unknown scheduler {spec!r}; choose from {sorted(SCHEDULERS)}"
        ) from None
