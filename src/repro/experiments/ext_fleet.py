"""Extension: fleet scheduling of concurrent fine-tuning jobs.

The paper plans *one* job on *one* box.  This extension asks the
operator's question: given a heterogeneous fleet (3090 / 4080 / 4090
consumer boxes running Ratel plus a DGX running Megatron-LM) and a
bursty queue of mixed fine-tuning requests, how much does scheduling
with Algorithm 1's iteration-time model as a cost oracle actually buy?

Every policy in :data:`repro.fleet.SCHEDULERS` runs the same
deterministic bursty trace (:func:`repro.fleet.bursty_trace`) with the
same mid-trace node fault, and is scored on makespan, P99/P50 job
latency and fleet utilization.  FIFO is the control: it dispatches in
arrival order onto the *first* feasible node, so the burst's long 30B
head lands on the slow 3090 box and every short job queued behind it
eats the delay.  The oracle-guided policies (``sjf``, ``binpack``,
``priority``) price each (job, node) pair through
:meth:`OffloadPolicy.evaluate` — memoized by the shared sweep, so the
whole experiment costs a handful of simulations — and place work where
the model says it finishes fastest.

The second table is the drift-escalation audit trail from the SJF run:
the 4090 box loses 10 of 12 drives mid-trace, the node reads the
drive/bandwidth drift off its new state, and the fleet re-prices the
running job on the degraded spec and migrates it — the node-to-fleet
escalation path, recorded to the run ledger as ``kind="fleet"``
decisions.
"""

from __future__ import annotations

from repro.analysis.report import ExperimentResult
from repro.fleet import SCHEDULERS, FleetOutcome, run_bursty_drill

#: Trace size: enough bursts that the 4090 box is busy when the fault
#: lands and P99 reflects the queue's tail, small enough to stay quick.
N_JOBS = 40
SEED = 7

#: Event kinds shown in the escalation timeline table.
_TIMELINE_KINDS = ("degrade", "requeue", "migrate", "preempt", "restore", "reject")


def run(n_jobs: int = N_JOBS, seed: int = SEED) -> list[ExperimentResult]:
    """Score every fleet scheduler on the standard bursty drill."""
    outcomes: dict[str, FleetOutcome] = {
        name: run_bursty_drill(name, n_jobs=n_jobs, seed=seed, degrade=True)
        for name in sorted(SCHEDULERS)
    }

    scoreboard = ExperimentResult(
        experiment="ext_fleet",
        title=(
            f"fleet schedulers on the bursty trace: {n_jobs} jobs, "
            f"{outcomes['fifo'].n_nodes} nodes, mid-trace 4090 degradation"
        ),
        columns=[
            "scheduler", "makespan (s)", "P99 lat (s)", "P50 lat (s)",
            "mean wait (s)", "util", "migr+requeue", "deadlines",
        ],
    )
    for name in ("fifo", "sjf", "binpack", "priority"):
        metrics = outcomes[name].metrics
        deadlines = (
            f"{metrics['deadlines_met']}/{metrics['deadlines_total']}"
            if metrics["deadlines_total"]
            else "-"
        )
        scoreboard.add_row(
            name,
            metrics["makespan_s"],
            metrics["p99_latency_s"],
            metrics["p50_latency_s"],
            metrics["mean_wait_s"],
            f"{metrics['utilization']:.0%}",
            metrics["migrations"] + metrics["requeues"],
            deadlines,
        )
    fifo_p99 = outcomes["fifo"].metrics["p99_latency_s"]
    sjf_p99 = outcomes["sjf"].metrics["p99_latency_s"]
    scoreboard.note(
        "fifo is class-unaware (first feasible node, arrival order): the "
        "burst's 30B head claims a slow box and the tail queues behind it; "
        "the oracle-guided policies place each job on the node Algorithm 1 "
        f"prices fastest — P99 {fifo_p99:.0f} s -> {sjf_p99:.0f} s "
        f"({fifo_p99 / sjf_p99:.1f}x) under the same trace and fault"
    )

    timeline = ExperimentResult(
        experiment="ext_fleet",
        title="drift-to-rescheduling escalation (sjf run, non-routine events)",
        columns=["t (s)", "event", "job", "node", "detail"],
    )
    for event in outcomes["sjf"].events:
        if event.kind not in _TIMELINE_KINDS:
            continue
        timeline.add_row(
            f"{event.time:.0f}",
            event.kind,
            event.job_id or "-",
            event.node or "-",
            event.detail[:72],
        )
    timeline.note(
        "each node reads drive-count and bandwidth drift off its own state; "
        "the fleet re-prices the running job on the degraded spec and "
        "requeues it when the new estimate blows past the migrate "
        "threshold — every decision lands in the run ledger as kind=fleet"
    )
    return [scoreboard, timeline]
