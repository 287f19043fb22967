"""Extension: crash-fault tolerance of the fleet coordinator.

A fleet scheduling days-long fine-tunes *will* lose its coordinator —
the process that holds the queue, the event heap and every node's
health.  This extension runs :func:`repro.fleet.run_crash_drill` (the
standard hot afternoon: mid-trace degradation, a fail-stop node, a
flapping node, then ``kill -9`` of the coordinator mid-append with a
torn journal tail) in three modes and tabulates what each recovery
posture costs.  The flap's third crash would come after the kill, so
the quarantine column reads 0 in every mode:

* ``resume``     — write-ahead journal + per-job checkpoints: recovery
  requeues live jobs at their last durable checkpoint;
* ``restart``    — journal but no checkpoints: nothing is lost, but
  every recovered job restarts from iteration zero, so redone work is
  strictly worse than resume;
* ``no-journal`` — the baseline the tentpole exists to kill: the crash
  silently loses every non-terminal job.

The experiment *asserts* the crash-safety contract
(:func:`repro.fleet.crash_contract`) rather than merely reporting it,
so a regression in the journal/recover path fails the experiment run,
not just CI.
"""

from __future__ import annotations

import math

from repro.analysis.report import ExperimentResult
from repro.fleet import crash_contract, run_crash_drill
from repro.fleet.drill import KILL_AT_S, MODES

SCHEDULER = "sjf"
N_JOBS = 24
SEED = 7


def run(n_jobs: int = N_JOBS, seed: int = SEED) -> list[ExperimentResult]:
    """Score the three recovery postures on the standard crash drill."""
    reports = {
        mode: run_crash_drill(SCHEDULER, mode=mode, n_jobs=n_jobs, seed=seed)
        for mode in MODES
    }
    violations = crash_contract(reports.values())
    if violations:
        raise AssertionError("; ".join(violations))

    table = ExperimentResult(
        experiment="ext_fleet_crash",
        title=(
            f"coordinator kill -9 at t={KILL_AT_S:.0f}s: {n_jobs} jobs, "
            f"{SCHEDULER} scheduler, fail-stop + flapping nodes"
        ),
        columns=[
            "mode", "lost jobs", "dup jobs", "redone iters", "checkpoints",
            "quarantines", "makespan (s)", "journal recs", "torn bytes",
        ],
    )
    for mode in MODES:
        report = reports[mode]
        table.add_row(
            mode,
            report.lost_jobs,
            report.duplicated_jobs,
            report.lost_iterations,
            report.checkpoints,
            report.quarantines,
            "-" if math.isnan(report.makespan_s) else f"{report.makespan_s:.0f}",
            report.journal_records,
            report.journal_repaired_bytes,
        )
    resume, restart, bare = (
        reports["resume"], reports["restart"], reports["no-journal"],
    )
    table.note(
        f"without a journal the crash silently loses {bare.lost_jobs} of "
        f"{bare.submitted} jobs; with one, recovery repairs the torn tail "
        "and requeues every live job exactly once — and checkpointing "
        f"cuts redone work from {restart.lost_iterations} iterations "
        f"(restart from zero) to {resume.lost_iterations} (resume from "
        "the last durable checkpoint)"
    )
    return [table]
