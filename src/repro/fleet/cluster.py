"""The fleet itself: a discrete-event loop over jobs, nodes and drift.

:class:`Fleet` is the client object the ISSUE's API names:
``submit`` enqueues a :class:`~repro.fleet.api.JobSpec`, ``run_until``
advances the fleet clock, ``drain`` runs the trace to completion and
returns a :class:`FleetOutcome` (per-job results, the event timeline,
and the makespan / P99-latency / utilization scorecard).

The loop is event-driven at *job* granularity: arrivals, completions
and degradations are heap events; between events the active
:class:`~repro.fleet.schedulers.Scheduler` dispatches queued jobs onto
free nodes, costed through the :class:`~repro.fleet.oracle.CostOracle`.
Iteration-level detail stays inside :meth:`OffloadPolicy.evaluate` —
the fleet trusts Algorithm 1's per-iteration time and multiplies by the
job's iteration budget, which is exactly the cost-model-as-scheduler
premise the ISSUE draws from GreedySnake.

**Drift escalation.**  A degradation (``inject``) flows node-first:
the :class:`~repro.fleet.node.Node` applies the new array state and
returns the typed drift events that state change raises; the fleet then
re-prices the running job on the degraded spec and either lets it
continue (re-timed), or — past ``MIGRATE_THRESHOLD`` or outright
infeasibility — requeues it so the scheduler can migrate it to a
healthy node.  Every decision lands in the run ledger as a
``kind="fleet"`` entry, so ``repro obs diff``/``html`` cover scheduling
runs the same way they cover evaluations.

**Crash safety.**  With a ``journal`` attached every transition is
write-ahead logged through :class:`~repro.fleet.journal.FleetJournal`,
and :meth:`Fleet.recover` rebuilds a live fleet from the journal after
``kill -9`` of the coordinator: terminal jobs stay terminal (exactly
once — never re-run, never double-counted), live jobs requeue at their
last checkpoint.  Unseating a job — preemption, migration off a
degraded node, node fail-stop, coordinator crash — rolls it back to its
last durable checkpoint (``JobSpec.checkpoint_every``; ``None`` means
full restart), because only checkpointed work survives losing the node.
Node fail-stop arrives via :meth:`inject_crash`; a node that crashes
``FLAP_THRESHOLD`` times inside ``FLAP_WINDOW_S`` seconds is quarantined
(anti-flap hysteresis) instead of thrashing migrations.
"""

from __future__ import annotations

import heapq
import logging
import math
from dataclasses import asdict, dataclass, replace
from typing import Any

from repro.obs import tracectx
from repro.obs.ledger import LedgerEntry, RunLedger

from .api import FleetError, FleetEvent, JobResult, JobSpec, percentile
from .journal import FleetJournal, JobState
from .node import Node
from .oracle import CostOracle
from .schedulers import Scheduler, make_scheduler

logger = logging.getLogger("repro.fleet")

#: Degraded/healthy iteration-time ratio past which a running job is
#: requeued off a degraded node instead of riding it out.
MIGRATE_THRESHOLD = 1.3
#: A node that crashes ``FLAP_THRESHOLD`` times within ``FLAP_WINDOW_S``
#: seconds is quarantined (anti-flap hysteresis).
FLAP_WINDOW_S = 3600.0
FLAP_THRESHOLD = 3


@dataclass
class FleetOutcome:
    """Everything a drained fleet run produced."""

    scheduler: str
    results: list[JobResult]
    events: list[FleetEvent]
    makespan: float
    n_nodes: int
    metrics: dict[str, Any]

    @property
    def completed(self) -> list[JobResult]:
        return [r for r in self.results if r.completed]

    def to_payload(self) -> dict[str, Any]:
        return {
            "scheduler": self.scheduler,
            "n_nodes": self.n_nodes,
            "makespan": self.makespan,
            "metrics": self.metrics,
            "results": [r.to_payload() for r in self.results],
            "events": [e.to_payload() for e in self.events],
        }


class Fleet:
    """A heterogeneous cluster under one scheduling policy.

    ``scheduler`` is a registry name (``fifo``/``sjf``/``priority``/
    ``binpack``) or a :class:`Scheduler` instance; ``oracle`` defaults
    to the shared-sweep :class:`CostOracle` (tests substitute stubs);
    ``ledger`` (path or :class:`RunLedger`) records every fleet decision
    as a ``kind="fleet"`` entry.  ``journal`` (path or
    :class:`FleetJournal`) write-ahead logs every transition so
    :meth:`recover` can rebuild the fleet after a coordinator crash.
    """

    def __init__(
        self,
        nodes: list[Node],
        scheduler: str | Scheduler = "sjf",
        *,
        oracle: CostOracle | None = None,
        ledger: str | RunLedger | None = None,
        journal: str | FleetJournal | None = None,
    ) -> None:
        if not nodes:
            raise FleetError("a fleet needs at least one node")
        names = [node.name for node in nodes]
        if len(set(names)) != len(names):
            raise FleetError(f"node names must be unique, got {names}")
        self.nodes = list(nodes)
        self._by_name = {node.name: node for node in nodes}
        self.scheduler = make_scheduler(scheduler)
        self.oracle = oracle if oracle is not None else CostOracle()
        self.ledger = RunLedger(ledger) if isinstance(ledger, str) else ledger
        self.journal = FleetJournal(journal) if isinstance(journal, str) else journal
        self.now = 0.0
        self.events: list[FleetEvent] = []
        self._jobs: dict[str, JobState] = {}
        self._queue: list[JobState] = []
        self._results: dict[str, JobResult] = {}
        self._heap: list[tuple[float, int, str, Any]] = []
        self._heap_seq = 0
        self._job_seq = 0

    # -- client surface --------------------------------------------------------

    def submit(self, spec: JobSpec) -> str:
        """Enqueue one job; arrival fires at ``spec.submit_at`` (or now).

        A spec submitted while a :mod:`repro.obs.tracectx` trace is
        ambient inherits its trace_id (an explicit one on the spec wins),
        so fleet events and ledger records stay linked to the request
        that caused the submission long after the ambient scope ends.
        """
        if spec.job_id in self._jobs:
            raise FleetError(f"duplicate job_id {spec.job_id!r}")
        if not spec.trace_id:
            ambient = tracectx.current_trace_id()
            if ambient:
                spec = replace(spec, trace_id=ambient)
        state = JobState(
            spec=spec,
            seq=self._job_seq,
            submitted_at=max(self.now, spec.submit_at),
            remaining_iterations=spec.iterations,
        )
        self._job_seq += 1
        self._jobs[spec.job_id] = state
        # Journal-first: the submit is durable before the arrival can
        # have any scheduling consequence.
        self._jrec(
            "submit",
            job=spec.to_payload(),
            seq=state.seq,
            submitted_at=state.submitted_at,
        )
        self._push(state.submitted_at, "arrive", spec.job_id)
        return spec.job_id

    def inject(
        self,
        at: float,
        node: str,
        *,
        failed_ssds: int | None = None,
        bw_sag: float | None = None,
        restore: bool = False,
    ) -> None:
        """Schedule a degradation (or restore) on one node."""
        if node not in self._by_name:
            raise FleetError(f"unknown node {node!r}")
        self._push(
            max(self.now, at),
            "degrade",
            {"node": node, "failed_ssds": failed_ssds, "bw_sag": bw_sag, "restore": restore},
        )

    def inject_crash(
        self, at: float, node: str, *, rejoin_after: float | None = None
    ) -> None:
        """Schedule a node fail-stop (optionally rejoining later).

        The crash unseats the node's running job — rolled back to its
        last checkpoint — and requeues it through the same escalation
        path degradations use.  ``rejoin_after`` seconds later the node
        comes back (still quarantined if the flap hysteresis tripped).
        """
        if node not in self._by_name:
            raise FleetError(f"unknown node {node!r}")
        if rejoin_after is not None and rejoin_after <= 0:
            raise FleetError(
                f"rejoin_after must be positive, got {rejoin_after}"
            )
        at = max(self.now, at)
        self._push(at, "node_crash", node)
        if rejoin_after is not None:
            self._push(at + rejoin_after, "node_rejoin", node)

    def inject_rejoin(self, at: float, node: str) -> None:
        """Schedule a crashed node's rejoin (no-op if it is alive)."""
        if node not in self._by_name:
            raise FleetError(f"unknown node {node!r}")
        self._push(max(self.now, at), "node_rejoin", node)

    def run_until(self, until: float) -> None:
        """Advance the fleet clock, processing every event up to ``until``."""
        self._pump(until)

    def drain(self) -> FleetOutcome:
        """Run to completion and return the scored outcome.

        The run ends here, so the journal's append handle is closed (a
        later append reopens it).
        """
        self._pump(None)
        # With the heap empty no completion can ever free capacity or
        # heal a node, so whatever is still queued can never start.
        for state in list(self._queue):
            self._reject(state, "no feasible node for this job")
        if self.journal is not None:
            self.journal.close()
        return self._outcome()

    def result(self, job_id: str) -> JobResult | None:
        """The terminal record for one job (``None`` while in flight)."""
        return self._results.get(job_id)

    # -- crash recovery --------------------------------------------------------

    @classmethod
    def recover(
        cls,
        journal: str | FleetJournal,
        nodes: list[Node],
        scheduler: str | Scheduler = "sjf",
        *,
        oracle: CostOracle | None = None,
        ledger: str | RunLedger | None = None,
    ) -> "Fleet":
        """Rebuild a live fleet from its write-ahead journal.

        Exactly-once accounting: the fold's :class:`JobState` records
        become the fleet's own.  Jobs the journal marks terminal stay
        terminal (their results are restored, never re-run); a running
        job is rolled back to its last durable checkpoint by the rule
        every unseat applies, and the fold replays at this recovery's
        ``recover`` record (work past it is lost with the crashed
        coordinator's memory).  The fleet clock resumes at the last
        journaled instant (so priority aging continues from real queue
        ages), and each node's health records — degradations,
        fail-stops, quarantines — replay in order through its own
        methods, flap-hysteresis crash history included (a degrade the
        node rejects is skipped with a warning).
        The journal's torn tail, if any, is repaired *before* the first
        post-recovery append; replay is idempotent, so recovering twice
        from the same journal yields identical fleets.

        ``nodes`` must be fresh instances of the same cluster (node
        state does not survive the coordinator; the journal is the
        authority on their health).
        """
        fj = FleetJournal(journal) if isinstance(journal, str) else journal
        fj.repair()
        fold = fj.fold()
        fleet = cls(
            nodes,
            scheduler,
            oracle=oracle,
            ledger=ledger,
            journal=fj,
        )
        fleet.now = fold.clock
        for name, records in fold.nodes.items():
            node = fleet._by_name.get(name)
            if node is None:
                continue
            for rec, t, failed_ssds, bw_sag in records:
                if rec == "degrade":
                    try:
                        node.degrade(failed_ssds=failed_ssds, bw_sag=bw_sag)
                    except FleetError as exc:  # the node is left as it was
                        logger.warning("skipping the degrade journaled at t=%s: %s", t, exc)
                elif rec == "restore":
                    node.restore()
                elif rec == "node_crash":
                    node.crash(t)
                elif rec == "node_rejoin":
                    node.rejoin()
                else:  # quarantine
                    node.quarantined = True
        # The crash unseated every running job along with the coordinator.
        fold.roll_back(fold.clock)
        fleet._jobs = fold.jobs
        for state in fold.jobs.values():
            if state.terminal:
                fleet._results[state.spec.job_id] = state.result()
            else:
                fleet._queue.append(state)
        requeued = len(fleet._queue)
        terminal = len(fold.jobs) - requeued
        fleet._job_seq = max((state.seq for state in fold.jobs.values()), default=-1) + 1
        fleet._jrec(
            "recover",
            jobs=len(fold.jobs),
            requeued=requeued,
            clock=fold.clock,
            truncated_tail=fold.truncated_tail,
            repaired_bytes=fj.repaired_bytes,
        )
        fleet._event(
            "recover",
            detail=(
                f"{requeued} live jobs requeued, "
                f"{terminal} terminal restored; "
                f"clock resumes at {fold.clock:.0f}s"
            ),
        )
        fleet._record(
            "recover",
            None,
            None,
            jobs=len(fold.jobs),
            requeued=requeued,
            terminal=terminal,
            clock=fold.clock,
            truncated_tail=fold.truncated_tail,
            duplicate_terminals=fold.duplicate_terminals,
        )
        return fleet

    def snapshot(self) -> dict[str, Any]:
        """Canonical fleet state (NaN-free) for equality comparisons —
        the replay-idempotency property compares recovered snapshots."""

        def clean(value: Any) -> Any:
            if isinstance(value, float) and math.isnan(value):
                return None
            if isinstance(value, dict):
                return {key: clean(val) for key, val in value.items()}
            if isinstance(value, (list, tuple)):
                return [clean(item) for item in value]
            return value

        return {
            "now": self.now,
            "scheduler": self.scheduler.name,
            "queue": sorted(state.spec.job_id for state in self._queue),
            "jobs": {
                job_id: clean({k: v for k, v in asdict(state).items() if k != "version"})
                for job_id, state in sorted(self._jobs.items())
            },
            "results": {
                job_id: clean(result.to_payload())
                for job_id, result in sorted(self._results.items())
            },
            "nodes": {
                node.name: {
                    "alive": node.alive,
                    "quarantined": node.quarantined,
                    "failed_ssds": node.failed_ssds,
                    "bw_sag": node.bw_sag,
                    "crash_times": list(node.crash_times),
                    "running": (
                        node.running.spec.job_id if node.running else None
                    ),
                }
                for node in self.nodes
            },
        }

    # -- event loop ------------------------------------------------------------

    def _push(self, time: float, kind: str, payload: Any) -> None:
        heapq.heappush(self._heap, (time, self._heap_seq, kind, payload))
        self._heap_seq += 1

    def _pump(self, until: float | None) -> None:
        # A recovered fleet starts with a populated queue and an empty
        # (or future-only) heap: dispatch once up front so requeued jobs
        # do not wait for the next event to start.
        self._dispatch()
        while self._heap:
            time = self._heap[0][0]
            if until is not None and time > until:
                break
            time, _, kind, payload = heapq.heappop(self._heap)
            self.now = max(self.now, time)
            if kind == "arrive":
                self._arrive(payload)
            elif kind == "finish":
                self._finish(*payload)
            elif kind == "degrade":
                self._degrade(payload)
            elif kind == "ckpt":
                self._checkpoint(*payload)
            elif kind == "node_crash":
                self._node_crash(payload)
            elif kind == "node_rejoin":
                self._node_rejoin(payload)
            else:  # pragma: no cover - internal invariant
                raise FleetError(f"unknown event kind {kind!r}")
            self._dispatch()
        if until is not None:
            self.now = max(self.now, until)

    def _arrive(self, job_id: str) -> None:
        state = self._jobs[job_id]
        self._event("submit", job_id=job_id)
        if not any(self.oracle.feasible(state.spec, node) for node in self.nodes):
            self._reject(state, "infeasible on every node", queued=False)
            return
        self._queue.append(state)

    def _finish(self, job_id: str, version: int) -> None:
        state = self._jobs[job_id]
        if state.version != version or state.state != "running":
            return  # stale: the job was preempted/repriced since this was scheduled
        assert state.node is not None and state.started_at is not None
        node = self._by_name[state.node]
        node.busy_s += self.now - state.started_at
        node.running = None
        self._apply(
            state,
            "finish",
            node=node.name,
            started_at=state.first_started_at,
            iteration_time=state.iter_time,
            preemptions=state.preemptions,
            migrations=state.migrations,
            lost=state.lost_iterations,
            nodes_visited=list(state.nodes_visited),
        )
        result = self._results[job_id] = state.result()
        self._event("complete", job_id=job_id, node=node.name)
        self._record(
            "complete",
            state,
            node.name,
            latency_s=result.latency_s,
            wait_s=result.wait_s,
            met_deadline=result.met_deadline,
        )

    def _degrade(self, payload: dict[str, Any]) -> None:
        node = self._by_name[payload["node"]]
        if payload.get("restore"):
            drift = node.restore()
            kind = "restore"
            detail = "healed to provisioned spec"
        else:
            drift = node.degrade(
                failed_ssds=payload.get("failed_ssds"), bw_sag=payload.get("bw_sag")
            )
            kind = "degrade"
            detail = "; ".join(str(event) for event in drift) or "no drift raised"
        self._jrec(
            kind, node=node.name, failed_ssds=node.failed_ssds, bw_sag=node.bw_sag
        )
        self._event(kind, node=node.name, detail=detail)
        self._record(
            kind,
            None,
            node.name,
            drift=[event.to_payload() for event in drift],
            failed_ssds=node.failed_ssds,
            bw_sag=node.bw_sag,
        )
        self._escalate(node, [event.to_payload() for event in drift])

    def _escalate(self, node: Node, drift: list[dict[str, Any]]) -> None:
        """Node-level drift becomes a fleet-level rescheduling decision.

        Past the migrate threshold the default is requeue — but a
        *resumable* job (``checkpoint_every`` set) is priced first:
        moving means rolling back to the last checkpoint, so the oracle
        compares staying (continuous credit at the degraded rate)
        against the best free node's service time from the checkpoint.
        When the lost-work delta makes moving dearer, the job rides the
        degradation out instead.  Jobs without checkpoints keep the
        plain threshold rule (moving always restarts them anyway).
        """
        state = node.running
        if state is None:
            return
        new_iter = self.oracle.iteration_time(state.spec, node)
        old_iter = state.iter_time
        if math.isnan(new_iter) or new_iter > old_iter * MIGRATE_THRESHOLD:
            pricing = self._resume_pricing(state, node, new_iter)
            if (
                not math.isnan(new_iter)
                and state.spec.checkpoint_every is not None
                and pricing["stay_s"] <= pricing["move_s"]
            ):
                self._reprice(state, node, new_iter, old_iter, drift, pricing)
                return
            reason = (
                "infeasible on degraded node"
                if math.isnan(new_iter)
                else f"degraded {new_iter / old_iter:.2f}x past "
                f"threshold {MIGRATE_THRESHOLD:.2f}x"
            )
            self._unseat(node, reason, drift=drift, resume_pricing=pricing)
        elif new_iter != old_iter:
            self._reprice(state, node, new_iter, old_iter, drift, None)

    def _reprice(
        self,
        state: JobState,
        node: Node,
        new_iter: float,
        old_iter: float,
        drift: list[dict[str, Any]],
        pricing: dict[str, Any] | None,
    ) -> None:
        """Ride it out, re-timed: fold completed iterations at the old
        rate, then reschedule the finish at the degraded rate."""
        assert state.started_at is not None
        node.busy_s += self.now - state.started_at
        self._apply(
            state,
            "reprice",
            node=node.name,
            iter_time=new_iter,
            remaining=state.spec.iterations - state.done_iterations(self.now),
        )
        state.version += 1
        self._schedule_finish(state)
        self._record(
            "reprice",
            state,
            node.name,
            iter_time_before=old_iter,
            iter_time_after=new_iter,
            drift=drift,
            **({"resume_pricing": pricing} if pricing is not None else {}),
        )

    def _resume_pricing(
        self, state: JobState, node: Node, new_iter: float
    ) -> dict[str, Any]:
        """Price stay-vs-move for an unseat decision, lost work included.

        Staying keeps continuous credit (memory is intact) at the
        degraded rate; moving rolls back to the last checkpoint and runs
        the resume remainder on the best *free* feasible node.  Both go
        through the CostOracle, so the delta is Algorithm 1's estimate
        of the work the migration would throw away.
        """
        total_done = state.done_iterations(self.now)
        continuous = state.spec.iterations - total_done
        resume = state.resume_iterations
        stay = continuous * new_iter if not math.isnan(new_iter) else math.inf
        move, target = math.inf, None
        for other in self.nodes:
            if other is node or not other.free:
                continue
            if not self.oracle.feasible(state.spec, other):
                continue
            service = self.oracle.service_time(state.spec, other, resume)
            if not math.isnan(service) and service < move:
                move, target = service, other.name
        return {
            "stay_s": stay,
            "move_s": move,
            "move_node": target,
            "resume_iterations": resume,
            "lost_iterations": max(0, total_done - state.checkpointed),
        }

    # -- checkpoints and node fail-stop ----------------------------------------

    def _arm_checkpoint(self, state: JobState) -> None:
        """Schedule the running job's next checkpoint instant.

        Checkpoints stay strictly below the job's finish line (the last
        useful one is at ``iterations - 1``), so a rollback always
        leaves at least one iteration to run — and the checkpoint event
        can never collide with the finish event.
        """
        every = state.spec.checkpoint_every
        if every is None or state.node is None:
            return
        if state.done_iterations(self.now) + every >= state.spec.iterations:
            return
        self._push(
            self.now + every * state.iter_time,
            "ckpt",
            (state.spec.job_id, state.version),
        )

    def _checkpoint(self, job_id: str, version: int) -> None:
        state = self._jobs.get(job_id)
        if state is None or state.version != version or state.state != "running":
            return  # stale: the job moved or repriced since this was armed
        done_total = min(state.done_iterations(self.now), state.spec.iterations - 1)
        if done_total > state.checkpointed:
            self._apply(state, "checkpoint", node=state.node, iterations=done_total)
            self._event(
                "checkpoint",
                job_id=job_id,
                node=state.node,
                detail=f"{done_total}/{state.spec.iterations} iterations durable",
            )
        self._arm_checkpoint(state)

    def _node_crash(self, name: str) -> None:
        node = self._by_name[name]
        if not node.alive:
            return  # double-crash injection: already down
        state = node.running
        node.crash(self.now)
        self._jrec("node_crash", node=name)
        self._event(
            "node_crash",
            node=name,
            detail=f"fail-stop (crash #{len(node.crash_times)})",
        )
        self._record("node_crash", None, name, crashes=len(node.crash_times))
        if state is not None:
            self._unseat(node, "node fail-stop", resume_from=state.checkpointed)
        recent = [t for t in node.crash_times if t >= self.now - FLAP_WINDOW_S]
        if len(recent) >= FLAP_THRESHOLD and not node.quarantined:
            node.quarantined = True
            self._jrec(
                "quarantine",
                node=name,
                crashes=len(recent),
                window_s=FLAP_WINDOW_S,
            )
            self._event(
                "quarantine",
                node=name,
                detail=(
                    f"flapping: {len(recent)} crashes within "
                    f"{FLAP_WINDOW_S:.0f}s"
                ),
            )
            self._record(
                "quarantine", None, name, crashes=len(recent), window_s=FLAP_WINDOW_S
            )

    def _node_rejoin(self, name: str) -> None:
        node = self._by_name[name]
        if node.alive:
            return
        node.rejoin()
        self._jrec("node_rejoin", node=name)
        self._event(
            "node_rejoin",
            node=name,
            detail="rejoined (quarantined)" if node.quarantined else "rejoined",
        )
        self._record("node_rejoin", None, name, quarantined=node.quarantined)

    # -- dispatch --------------------------------------------------------------

    def _dispatch(self) -> None:
        if not self._queue:
            return
        try:
            ordered = list(
                self.scheduler.order(self._queue, self.now, self.nodes, self.oracle)
            )
        except Exception as exc:  # noqa: BLE001 - containment boundary
            ordered = self._order_survivors(exc)
        leftover: list[JobState] = []
        for state in ordered:
            if state not in self._queue:
                continue  # quarantined while probing order()
            free = [node for node in self.nodes if node.free]
            if not free:
                leftover.append(state)
                continue
            try:
                node = self.scheduler.place(state, free, self.now, self.oracle)
            except Exception as exc:  # noqa: BLE001 - containment boundary
                self._quarantine(state, exc, "place")
                continue
            if node is None:
                leftover.append(state)
                continue
            self._queue.remove(state)
            self._assign(state, node)
        if self.scheduler.preemptive:
            for state in leftover:
                if state not in self._queue:
                    continue
                busy = [node for node in self.nodes if not node.free]
                try:
                    victim_node = self.scheduler.preempt_victim(
                        state, busy, self.now, self.oracle
                    )
                except Exception as exc:  # noqa: BLE001 - containment boundary
                    self._quarantine(state, exc, "preempt_victim")
                    continue
                if victim_node is None:
                    continue
                self._unseat(victim_node)
                self._queue.remove(state)
                self._assign(state, victim_node)

    def _order_survivors(self, exc: Exception) -> list[JobState]:
        """``order()`` raised on the full queue: find and quarantine offenders.

        Probes each queued job alone; jobs that individually make the
        scheduler raise are quarantined, the rest proceed in arrival
        order.  When no single job reproduces the failure (the exception
        needed the combination), nothing is quarantined and the whole
        queue falls back to arrival order — degraded scheduling beats a
        dead event loop.
        """
        logger.warning(
            "scheduler %s order() raised %s: %s; probing queue for offenders",
            self.scheduler.name,
            type(exc).__name__,
            exc,
        )
        survivors: list[JobState] = []
        quarantined = 0
        for state in list(self._queue):
            try:
                self.scheduler.order([state], self.now, self.nodes, self.oracle)
            except Exception as probe_exc:  # noqa: BLE001 - containment boundary
                self._quarantine(state, probe_exc, "order")
                quarantined += 1
            else:
                survivors.append(state)
        if not quarantined:
            self._event(
                "scheduler_error",
                detail=(
                    f"order: {type(exc).__name__}: {exc} "
                    "(no single offender; falling back to arrival order)"
                ),
            )
        return survivors

    def _quarantine(self, state: JobState, exc: Exception, where: str) -> None:
        """Contain a scheduler exception: evict the job that triggered it.

        The offending job is rejected (its result records why) and a
        ``scheduler_error`` event marks the timeline; every other job
        keeps flowing through the event loop.
        """
        detail = f"{where}: {type(exc).__name__}: {exc}"
        logger.warning(
            "scheduler %s raised on job %s (%s); quarantining the job",
            self.scheduler.name,
            state.spec.job_id,
            detail,
        )
        self._event("scheduler_error", job_id=state.spec.job_id, detail=detail)
        self._reject(state, f"quarantined after scheduler error ({detail})")

    def _assign(self, state: JobState, node: Node) -> None:
        iter_time = self.oracle.iteration_time(state.spec, node)
        if math.isnan(iter_time) or iter_time <= 0:
            raise FleetError(
                f"scheduler placed {state.spec.job_id} on {node.name} "
                "where it is infeasible"
            )
        migrated = bool(state.nodes_visited) and state.nodes_visited[-1] != node.name
        self._apply(
            state,
            "assign",
            node=node.name,
            iter_time=iter_time,
            remaining=state.remaining_iterations,
            migrated=migrated,
        )
        state.version += 1
        node.running = state
        self._schedule_finish(state)
        kind = "migrate" if migrated else "start"
        self._event(kind, job_id=state.spec.job_id, node=node.name)
        self._record(
            kind,
            state,
            node.name,
            iter_time=iter_time,
            remaining_iterations=state.remaining_iterations,
            resume_from=state.checkpointed,
        )

    def _schedule_finish(self, state: JobState) -> None:
        """Schedule the running job's finish at its current rate and arm
        its next checkpoint (both carry the job's current version)."""
        self._push(
            self.now + state.remaining_iterations * state.iter_time,
            "finish",
            (state.spec.job_id, state.version),
        )
        self._arm_checkpoint(state)

    def _unseat(self, node: Node, reason: str | None = None, **extra: Any) -> None:
        """Requeue ``node``'s running job, rolled back to its last checkpoint.

        Only checkpointed work survives losing the node — the runtime's
        optimizer state lives in that node's storage hierarchy, so
        whatever ran past the last durable checkpoint is redone.  A job
        with ``checkpoint_every=None`` restarts from scratch.  Without a
        ``reason`` the move is a ``preempt``; with one it is a
        ``requeue`` whose event, journal record and ledger decision
        carry it.  ``extra`` goes into the ledger decision only.
        """
        state = node.running
        assert state is not None and state.started_at is not None
        node.busy_s += self.now - state.started_at
        node.running = None
        kind, why = ("preempt", {}) if reason is None else ("requeue", {"reason": reason})
        rollback = state.roll_back(self.now)
        self._apply(state, kind, node=node.name, **rollback, **why)
        state.version += 1  # invalidate the scheduled finish + checkpoints
        self._queue.append(state)
        self._event(kind, job_id=state.spec.job_id, node=node.name, detail=reason or "")
        self._record(kind, state, node.name, lost_iterations=rollback["lost"], **why, **extra)

    def _reject(self, state: JobState, reason: str, *, queued: bool = True) -> None:
        if queued and state in self._queue:
            self._queue.remove(state)
        self._apply(
            state,
            "reject",
            reason=reason,
            preemptions=state.preemptions,
            migrations=state.migrations,
        )
        self._results[state.spec.job_id] = state.result()
        self._event("reject", job_id=state.spec.job_id, detail=reason)
        self._record("reject", state, None, reason=reason)

    # -- recording -------------------------------------------------------------

    def _apply(self, state: JobState, rec: str, **fields_: Any) -> None:
        """Apply one job record to ``state``, then journal it: the fold
        replays the same record through the same :meth:`JobState.apply`."""
        record = {"job_id": state.spec.job_id, **fields_}
        state.apply(rec, record, self.now)
        self._jrec(rec, **record)

    def _jrec(self, rec: str, **fields_: Any) -> None:
        """Append one transition to the write-ahead journal (never fatal)."""
        if self.journal is None:
            return
        try:
            self.journal.append(rec, self.now, **fields_)
        except OSError:
            logger.exception(
                "fleet journal append failed for %s (journal %s); continuing",
                rec,
                self.journal.path,
            )

    def _event(
        self,
        kind: str,
        *,
        job_id: str | None = None,
        node: str | None = None,
        detail: str = "",
    ) -> None:
        # Events about a known job carry the job's trace — the id follows
        # the job through preempt/requeue/migrate without the caller
        # having to thread it to every creation site.
        state = self._jobs.get(job_id) if job_id else None
        self.events.append(
            FleetEvent(
                time=self.now,
                kind=kind,
                job_id=job_id,
                node=node,
                detail=detail,
                trace_id=state.spec.trace_id if state is not None else "",
            )
        )

    def _record(
        self, decision: str, state: JobState | None, node_name: str | None, **extra: Any
    ) -> None:
        """Append one fleet decision to the run ledger (never fatal)."""
        if self.ledger is None:
            return
        spec = state.spec if state is not None else None
        node = self._by_name.get(node_name) if node_name else None
        payload: dict[str, Any] = {
            "decision": decision,
            "time": self.now,
            "scheduler": self.scheduler.name,
            **extra,
        }
        if spec is not None:
            payload["job"] = spec.to_payload()
        try:
            self.ledger.append(
                LedgerEntry(
                    label=(
                        f"fleet:{self.scheduler.name}/"
                        f"{spec.job_id if spec else 'node'}@{node_name or '-'}"
                    ),
                    policy=node.policy.name if node is not None else "-",
                    model=spec.model if spec else "-",
                    batch_size=spec.batch_size if spec else None,
                    server=node.server.name if node is not None else "-",
                    feasible=True,
                    metrics={"decision": payload},
                    kind="fleet",
                    source="fleet",
                    # Explicit: fleet decisions usually land after the
                    # submitting request's ambient scope has ended.
                    trace_id=spec.trace_id if spec is not None else "",
                )
            )
        except OSError:
            logger.exception(
                "fleet ledger append failed for %s (ledger %s); continuing",
                decision, self.ledger.path,
            )

    # -- scoring ---------------------------------------------------------------

    def _outcome(self) -> FleetOutcome:
        results = [self._results[job_id] for job_id in self._jobs if job_id in self._results]
        completed = [r for r in results if r.completed]
        latencies = [r.latency_s for r in completed]
        waits = [r.wait_s for r in completed if not math.isnan(r.wait_s)]
        if completed:
            first_submit = min(r.submitted_at for r in results)
            last_finish = max(r.finished_at for r in completed if r.finished_at is not None)
            makespan = last_finish - first_submit
        else:
            makespan = 0.0
        busy = sum(node.busy_s for node in self.nodes)
        utilization = busy / (len(self.nodes) * makespan) if makespan > 0 else 0.0
        deadlines = [r for r in results if r.met_deadline is not None]
        metrics: dict[str, Any] = {
            "scheduler": self.scheduler.name,
            "jobs": len(self._jobs),
            "completed": len(completed),
            "rejected": sum(1 for r in results if r.state == "rejected"),
            "makespan_s": makespan,
            "p99_latency_s": percentile(latencies, 0.99),
            "p50_latency_s": percentile(latencies, 0.50),
            "mean_latency_s": sum(latencies) / len(latencies) if latencies else math.nan,
            "mean_wait_s": sum(waits) / len(waits) if waits else math.nan,
            "utilization": utilization,
            "preemptions": sum(r.preemptions for r in results),
            "migrations": sum(r.migrations for r in results),
            "requeues": sum(1 for e in self.events if e.kind == "requeue"),
            "degradations": sum(1 for e in self.events if e.kind == "degrade"),
            "deadlines_met": sum(1 for r in deadlines if r.met_deadline),
            "deadlines_total": len(deadlines),
            "lost_iterations": sum(r.lost_iterations for r in results),
            "checkpoints": sum(1 for e in self.events if e.kind == "checkpoint"),
            "node_crashes": sum(1 for e in self.events if e.kind == "node_crash"),
            "quarantines": sum(1 for e in self.events if e.kind == "quarantine"),
        }
        return FleetOutcome(
            scheduler=self.scheduler.name,
            results=results,
            events=list(self.events),
            makespan=makespan,
            n_nodes=len(self.nodes),
            metrics=metrics,
        )
