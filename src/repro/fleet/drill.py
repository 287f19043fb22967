"""The fleet crash drill: coordinator kill -9 at a hot moment.

:func:`run_crash_drill` is the robustness stack's fleet-level canary
(the analogue of ``repro serve --selftest`` for the planner service).
One run stages the worst plausible afternoon:

1. the bursty trace arrives (every scheduler loaded with work);
2. the standard mid-trace degradation hits the 4090 box;
3. ``box-4080`` fail-stops (its job rolls back to checkpoint and
   requeues) and ``box-3090`` starts to *flap*, crashing at 900 s and
   1,260 s.  Its third crash would fall at 1,620 s, after the kill, and
   the recovered coordinator re-arms only rejoins, so no drill mode
   trips the anti-flap quarantine;
4. at ``KILL_AT_S`` — degraded node, two nodes with crash history, and
   a half-run queue in flight — the coordinator dies mid-append: the
   fleet object is abandoned and a torn half-record is glued onto the
   journal tail, exactly the damage ``kill -9`` leaves;
5. :meth:`~repro.fleet.cluster.Fleet.recover` rebuilds the fleet from
   the repaired journal on fresh node objects, the operator re-arms the
   heal/rejoin actions the dead coordinator's heap was holding, and the
   run drains to completion.

The :class:`CrashDrillReport` scores what the paper's days-long-run
framing actually cares about: **no job lost** (every submitted job
reaches exactly one terminal state), **no job double-completed** (the
journal holds at most one terminal record per job), and **bounded
redone work** (iterations re-executed because they ran past the last
checkpoint).  Three modes make the frontier measurable:

* ``resume``     — journal on, jobs checkpoint every few iterations;
* ``restart``    — journal on, no checkpoints: recovery requeues jobs
  from iteration zero, so redone work is strictly worse than resume;
* ``no-journal`` — nothing on disk: the crash simply *loses* every
  non-terminal job, which is the baseline the tentpole exists to kill.

``ext_fleet_crash`` tabulates the three; CI's fleet-crash-smoke job
asserts the resume mode's invariants on every push.
"""

from __future__ import annotations

import math
import os
import tempfile
from dataclasses import dataclass, field
from typing import Any

from repro.faults.nodes import NodeCrash, NodeFaultSchedule, NodeFlap
from repro.obs import tracectx
from repro.obs.ledger import RunLedger

from .api import FleetError
from .cluster import Fleet, FleetOutcome
from .node import Node
from .oracle import CostOracle
from .trace import (
    RESTORE_AT_S,
    bursty_trace,
    standard_degradations,
    standard_fleet_nodes,
)

#: When the coordinator is killed (mid-run: after the degradation, the
#: fail-stop and the flap's first two crashes, with jobs running and
#: more still to arrive — so a journal-less crash demonstrably loses
#: work).
KILL_AT_S = 1400.0

#: The fail-stop node and its outage window.
FAILSTOP_AT_S = 700.0
FAILSTOP_NODE = "box-4080"
FAILSTOP_OUTAGE_S = 500.0

#: The flapping node: a crash every 360 s from ``FLAP_AT_S``.  Three
#: inside the flap window would trip quarantine; the kill comes first.
FLAP_AT_S = 900.0
FLAP_NODE = "box-3090"

#: Checkpoint cadence of the resume mode's jobs (iterations).
CHECKPOINT_EVERY = 3

#: Operator grace before re-arming rejoins the dead coordinator lost.
REJOIN_GRACE_S = 300.0

MODES = ("resume", "restart", "no-journal")


@dataclass
class CrashDrillReport:
    """The scorecard of one crash drill run."""

    scheduler: str
    mode: str
    submitted: int
    #: Jobs with exactly one terminal state after recovery + drain.
    accounted: int
    completed: int
    rejected: int
    #: Submitted jobs with *no* terminal state — must be 0 with a journal.
    lost_jobs: int
    #: Jobs with more than one terminal journal record — must always be 0.
    duplicated_jobs: int
    #: Iterations executed then rolled back (redone work) across the run.
    lost_iterations: int
    checkpoints: int
    #: Node crashes and quarantines the *recovered* coordinator recorded;
    #: those before the kill died with the old coordinator's event log.
    node_crashes: int
    quarantines: int
    pre_crash_completed: int
    recovered_requeued: int
    makespan_s: float
    journal_records: int
    journal_repaired_bytes: int
    events: list[str] = field(default_factory=list)

    @property
    def passed(self) -> bool:
        """The crash-safety contract: nothing lost, nothing doubled."""
        ok = self.duplicated_jobs == 0
        if self.mode != "no-journal":
            ok = ok and self.lost_jobs == 0
        return ok

    def to_payload(self) -> dict[str, Any]:
        return {
            "scheduler": self.scheduler,
            "mode": self.mode,
            "submitted": self.submitted,
            "accounted": self.accounted,
            "completed": self.completed,
            "rejected": self.rejected,
            "lost_jobs": self.lost_jobs,
            "duplicated_jobs": self.duplicated_jobs,
            "lost_iterations": self.lost_iterations,
            "checkpoints": self.checkpoints,
            "node_crashes": self.node_crashes,
            "quarantines": self.quarantines,
            "pre_crash_completed": self.pre_crash_completed,
            "recovered_requeued": self.recovered_requeued,
            "makespan_s": self.makespan_s,
            "journal_records": self.journal_records,
            "journal_repaired_bytes": self.journal_repaired_bytes,
            "passed": self.passed,
        }


def run_crash_drill(
    scheduler: str = "sjf",
    *,
    mode: str = "resume",
    n_jobs: int = 24,
    seed: int = 7,
    journal_path: str | None = None,
    ledger: str | RunLedger | None = None,
    oracle: CostOracle | None = None,
    nodes: list[Node] | None = None,
    kill_at: float = KILL_AT_S,
) -> CrashDrillReport:
    """Run the standard crash drill under one scheduler and mode.

    ``nodes`` (two *fresh* clusters are needed — pass ``None`` to use
    the standard fleet) and ``oracle`` let tests drive the drill with
    stubs.  ``journal_path`` defaults to a temp file that is cleaned up
    afterwards.
    """
    if mode not in MODES:
        raise FleetError(f"unknown crash-drill mode {mode!r}; choose from {MODES}")
    cleanup = False
    if journal_path is None:
        handle, journal_path = tempfile.mkstemp(
            prefix="fleet_journal_", suffix=".jsonl"
        )
        os.close(handle)
        os.unlink(journal_path)
        cleanup = True
    try:
        with tracectx.activate(tracectx.new_trace()):
            return _drill(
                scheduler,
                mode=mode,
                n_jobs=n_jobs,
                seed=seed,
                journal_path=journal_path,
                ledger=ledger,
                oracle=oracle,
                nodes=nodes,
                kill_at=kill_at,
            )
    finally:
        if cleanup and os.path.exists(journal_path):
            os.unlink(journal_path)


def _drill(
    scheduler: str,
    *,
    mode: str,
    n_jobs: int,
    seed: int,
    journal_path: str,
    ledger: str | RunLedger | None,
    oracle: CostOracle | None,
    nodes: list[Node] | None,
    kill_at: float,
) -> CrashDrillReport:
    journaled = mode != "no-journal"
    checkpoint_every = None if mode == "restart" else CHECKPOINT_EVERY
    if journaled and os.path.exists(journal_path):
        os.unlink(journal_path)

    # -- phase 1: the hot afternoon -------------------------------------------
    fleet = Fleet(
        _fresh_nodes(nodes, 0),
        scheduler,
        oracle=oracle,
        ledger=ledger,
        journal=journal_path if journaled else None,
    )
    for spec in bursty_trace(n_jobs, seed, checkpoint_every=checkpoint_every):
        fleet.submit(spec)
    for injection in standard_degradations():
        fleet.inject(
            injection["at"],
            injection["node"],
            failed_ssds=injection.get("failed_ssds"),
            bw_sag=injection.get("bw_sag"),
            restore=injection.get("restore", False),
        )
    NodeFaultSchedule(
        (
            NodeCrash(
                at=FAILSTOP_AT_S, node=FAILSTOP_NODE, rejoin_after=FAILSTOP_OUTAGE_S
            ),
            NodeFlap(at=FLAP_AT_S, node=FLAP_NODE, cycles=3, down_s=120.0, up_s=240.0),
        )
    ).install(fleet)
    fleet.run_until(kill_at)
    pre_crash_completed = sum(
        1 for job_id in fleet._order if fleet.result(job_id) is not None
    )
    events = [str(event) for event in fleet.events]

    # -- phase 2: kill -9 ------------------------------------------------------
    # The coordinator process dies mid-append: its heap, queue and node
    # objects vanish, and the journal is left with a torn half-record
    # (exactly what a SIGKILL between write() and the trailing newline
    # leaves in the page cache).
    if journaled:
        assert fleet.journal is not None
        fleet.journal.close()
        with open(journal_path, "ab") as handle:
            handle.write(b'{"rec": "assign", "job_id": "job-')
    del fleet

    if not journaled:
        # Nothing on disk: every non-terminal job is simply gone.
        accounted = pre_crash_completed
        return CrashDrillReport(
            scheduler=scheduler,
            mode=mode,
            submitted=n_jobs,
            accounted=accounted,
            completed=accounted,
            rejected=0,
            lost_jobs=n_jobs - accounted,
            duplicated_jobs=0,
            lost_iterations=0,
            checkpoints=0,
            node_crashes=0,
            quarantines=0,
            pre_crash_completed=pre_crash_completed,
            recovered_requeued=0,
            makespan_s=math.nan,
            journal_records=0,
            journal_repaired_bytes=0,
            events=events[-20:],
        )

    # -- phase 3: recover and drain -------------------------------------------
    recovered = Fleet.recover(
        journal_path,
        _fresh_nodes(nodes, 1),
        scheduler,
        oracle=oracle,
        ledger=ledger,
    )
    recovered_requeued = len(recovered._queue)
    # The dead coordinator's heap held the future heal/rejoin events;
    # re-arming them is the operator's first post-recovery action.
    if recovered.now < RESTORE_AT_S:
        recovered.inject(RESTORE_AT_S, "box-4090", restore=True)
    for node in recovered.nodes:
        if not node.alive:
            recovered.inject_rejoin(recovered.now + REJOIN_GRACE_S, node.name)
    outcome = recovered.drain()
    events.append("--- kill -9 / recover ---")
    events.extend(str(event) for event in recovered.events)

    return _score(
        scheduler,
        mode,
        n_jobs,
        outcome,
        recovered,
        pre_crash_completed,
        recovered_requeued,
        events,
    )


def _fresh_nodes(nodes: list[Node] | None, generation: int) -> list[Node]:
    """A fresh cluster per fleet generation (node state dies with the
    coordinator; the journal is the authority on health)."""
    if nodes is None:
        return standard_fleet_nodes()
    if generation == 0:
        return nodes
    return [
        Node(
            node.name,
            node.server,
            node.policy,
            hardware_class=node.hardware_class,
        )
        for node in nodes
    ]


def _score(
    scheduler: str,
    mode: str,
    submitted: int,
    outcome: FleetOutcome,
    recovered: Fleet,
    pre_crash_completed: int,
    recovered_requeued: int,
    events: list[str],
) -> CrashDrillReport:
    journal = recovered.journal
    assert journal is not None
    terminal_counts: dict[str, int] = {}
    submits = 0
    records = 0
    for record in journal.records():
        records += 1
        if record.get("rec") == "submit":
            submits += 1
        elif record.get("rec") in ("finish", "reject"):
            job_id = record.get("job_id", "")
            terminal_counts[job_id] = terminal_counts.get(job_id, 0) + 1
    duplicated = sum(1 for count in terminal_counts.values() if count > 1)
    accounted = len(
        [r for r in outcome.results if r.state in ("completed", "rejected")]
    )
    return CrashDrillReport(
        scheduler=scheduler,
        mode=mode,
        submitted=submitted,
        accounted=accounted,
        completed=outcome.metrics["completed"],
        rejected=outcome.metrics["rejected"],
        lost_jobs=submitted - accounted,
        duplicated_jobs=duplicated,
        lost_iterations=outcome.metrics["lost_iterations"],
        checkpoints=outcome.metrics["checkpoints"],
        node_crashes=outcome.metrics["node_crashes"],
        quarantines=outcome.metrics["quarantines"],
        pre_crash_completed=pre_crash_completed,
        recovered_requeued=recovered_requeued,
        makespan_s=outcome.makespan,
        journal_records=records,
        journal_repaired_bytes=journal.repaired_bytes,
        events=events[-40:],
    )
