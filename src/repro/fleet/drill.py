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
   trips the anti-flap quarantine.  Both faults are armed through
   :meth:`~repro.fleet.cluster.Fleet.inject_crash`;
4. at ``KILL_AT_S`` — degraded node, two nodes with crash history, and
   a half-run queue in flight — the coordinator dies mid-append: the
   fleet object is abandoned and a torn half-record is glued onto the
   journal tail, exactly the damage ``kill -9`` leaves;
5. :meth:`~repro.fleet.cluster.Fleet.recover` rebuilds the fleet from
   the repaired journal on fresh node objects, the operator re-arms the
   heal/rejoin actions the dead coordinator's heap was holding, and the
   run drains to completion.

A :class:`CrashDrillReport` counts what the paper's days-long-run
framing actually cares about: lost jobs (submitted jobs with no
terminal state), double-completed jobs (more than one terminal journal
record) and redone work (iterations re-executed because they ran past
the last checkpoint).  Three modes make the frontier measurable:

* ``resume``     — journal on, jobs checkpoint every few iterations;
* ``restart``    — journal on, no checkpoints: recovery requeues jobs
  from iteration zero, so redone work is strictly worse than resume;
* ``no-journal`` — nothing on disk: the crash simply *loses* every
  non-terminal job, which is the baseline the journal exists to kill.

:func:`crash_contract` is the one pass/fail rule over those reports;
``ext_fleet_crash``, CI's fleet-crash-smoke job and the tests all call
it.
"""

from __future__ import annotations

import math
import os
import tempfile
from collections import Counter
from collections.abc import Iterable
from dataclasses import dataclass

from repro.obs import tracectx
from repro.obs.ledger import RunLedger

from .api import FleetError
from .cluster import Fleet
from .node import Node
from .oracle import CostOracle
from .trace import RESTORE_AT_S, bursty_fleet, standard_fleet_nodes

#: When the coordinator is killed (mid-run: after the degradation, the
#: fail-stop and the flap's first two crashes, with jobs running and
#: more still to arrive — so a journal-less crash demonstrably loses
#: work).
KILL_AT_S = 1400.0

#: The fail-stop node and its outage window.
FAILSTOP_AT_S = 700.0
FAILSTOP_NODE = "box-4080"
FAILSTOP_OUTAGE_S = 500.0

#: The flapping node: ``FLAP_CYCLES`` crashes, one every
#: ``FLAP_PERIOD_S`` from ``FLAP_AT_S``, each down for ``FLAP_DOWN_S``.
#: Three inside the flap window would trip quarantine; the kill comes
#: first.
FLAP_AT_S = 900.0
FLAP_NODE = "box-3090"
FLAP_CYCLES = 3
FLAP_PERIOD_S = 360.0
FLAP_DOWN_S = 120.0

#: Checkpoint cadence of the resume mode's jobs (iterations).
CHECKPOINT_EVERY = 3

#: Operator grace before re-arming rejoins the dead coordinator lost.
REJOIN_GRACE_S = 300.0

MODES = ("resume", "restart", "no-journal")


@dataclass
class CrashDrillReport:
    """The counts of one crash drill run (:func:`crash_contract` judges them)."""

    scheduler: str
    mode: str
    submitted: int
    #: Submitted jobs with *no* terminal state.
    lost_jobs: int
    pre_crash_completed: int
    #: Jobs with more than one terminal journal record.
    duplicated_jobs: int = 0
    #: Iterations executed then rolled back (redone work) across the run.
    lost_iterations: int = 0
    checkpoints: int = 0
    #: Quarantines the *recovered* coordinator recorded; those before the
    #: kill died with the old coordinator's event log.
    quarantines: int = 0
    recovered_requeued: int = 0
    makespan_s: float = math.nan
    journal_records: int = 0
    journal_repaired_bytes: int = 0


def crash_contract(reports: Iterable[CrashDrillReport]) -> list[str]:
    """The crash-safety contract over drill runs: its violations (empty = pass).

    Journaled modes lose no job, no mode completes a job twice, resume
    redoes strictly less work than restart, and no-journal loses jobs
    (else the drill never put the journal to the test).  The
    resume-vs-restart rule applies when both modes are among
    ``reports``.
    """
    by_mode = {report.mode: report for report in reports}
    violations = []
    for mode, report in by_mode.items():
        if report.duplicated_jobs:
            violations.append(
                f"exactly-once violated: {mode} mode double-completed "
                f"{report.duplicated_jobs} jobs"
            )
        if mode == "no-journal":
            if not report.lost_jobs:
                violations.append("the journal-less baseline lost no jobs")
        elif report.lost_jobs:
            violations.append(
                f"crash-safety violated: {mode} mode lost "
                f"{report.lost_jobs} of {report.submitted} jobs"
            )
    resume, restart = by_mode.get("resume"), by_mode.get("restart")
    if resume and restart and not resume.lost_iterations < restart.lost_iterations:
        violations.append(
            "checkpoint-aware resume should redo strictly less work than "
            f"restart-from-zero, got resume={resume.lost_iterations} "
            f"vs restart={restart.lost_iterations} iterations"
        )
    return violations


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
    stubs.  ``journal_path`` defaults to a file in a temp directory
    that is removed afterwards.
    """
    if mode not in MODES:
        raise FleetError(f"unknown crash-drill mode {mode!r}; choose from {MODES}")
    journaled = mode != "no-journal"
    with (
        tempfile.TemporaryDirectory(prefix="fleet_journal_") as scratch,
        tracectx.activate(tracectx.new_trace()),
    ):
        journal_path = journal_path or os.path.join(scratch, "journal.jsonl")
        if journaled and os.path.exists(journal_path):
            os.unlink(journal_path)

        # -- phase 1: the hot afternoon ---------------------------------------
        fleet = bursty_fleet(
            scheduler,
            n_jobs=n_jobs,
            seed=seed,
            ledger=ledger,
            oracle=oracle,
            nodes=nodes,
            journal=journal_path if journaled else None,
            checkpoint_every=None if mode == "restart" else CHECKPOINT_EVERY,
        )
        fleet.inject_crash(
            FAILSTOP_AT_S, FAILSTOP_NODE, rejoin_after=FAILSTOP_OUTAGE_S
        )
        for cycle in range(FLAP_CYCLES):
            fleet.inject_crash(
                FLAP_AT_S + cycle * FLAP_PERIOD_S, FLAP_NODE, rejoin_after=FLAP_DOWN_S
            )
        fleet.run_until(kill_at)
        pre_crash_completed = sum(
            1 for job_id in fleet._jobs if fleet.result(job_id) is not None
        )
        if not journaled:
            # Nothing on disk: every non-terminal job dies with the fleet.
            return CrashDrillReport(
                scheduler,
                mode,
                submitted=n_jobs,
                lost_jobs=n_jobs - pre_crash_completed,
                pre_crash_completed=pre_crash_completed,
            )

        # -- phase 2: kill -9 -------------------------------------------------
        # The coordinator process dies mid-append: its heap, queue and node
        # objects vanish, and the journal is left with a torn half-record
        # (exactly what a SIGKILL between write() and the trailing newline
        # leaves in the page cache).
        assert fleet.journal is not None
        fleet.journal.close()
        with open(journal_path, "ab") as handle:
            handle.write(b'{"rec": "assign", "job_id": "job-')
        del fleet

        # -- phase 3: recover and drain ---------------------------------------
        recovered = Fleet.recover(
            journal_path,
            _fresh_nodes(nodes),
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

        journal = recovered.journal
        assert journal is not None
        records = journal.records()
        terminals = Counter(
            record.get("job_id", "")
            for record in records
            if record.get("rec") in ("finish", "reject")
        )
        accounted = sum(
            1 for result in outcome.results if result.state in ("completed", "rejected")
        )
        metrics = outcome.metrics
        return CrashDrillReport(
            scheduler,
            mode,
            submitted=n_jobs,
            lost_jobs=n_jobs - accounted,
            pre_crash_completed=pre_crash_completed,
            duplicated_jobs=sum(1 for count in terminals.values() if count > 1),
            lost_iterations=metrics["lost_iterations"],
            checkpoints=metrics["checkpoints"],
            quarantines=metrics["quarantines"],
            recovered_requeued=recovered_requeued,
            makespan_s=outcome.makespan,
            journal_records=len(records),
            journal_repaired_bytes=journal.repaired_bytes,
        )


def _fresh_nodes(nodes: list[Node] | None) -> list[Node]:
    """A fresh cluster for the recovered coordinator (node state dies
    with the old one; the journal is the authority on health)."""
    if nodes is None:
        return standard_fleet_nodes()
    return [
        Node(
            node.name,
            node.server,
            node.policy,
            hardware_class=node.hardware_class,
        )
        for node in nodes
    ]
