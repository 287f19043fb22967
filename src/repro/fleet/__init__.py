"""``repro.fleet`` — a multi-tenant scheduler over simulated servers.

Ratel plans *one* fine-tuning job on *one* consumer-GPU server; the
ROADMAP's north star is a service running many such jobs for many users.
This package closes that gap in simulation: a heterogeneous cluster of
:class:`Node` objects (composed from the ``repro.hardware`` presets), a
job queue of :class:`JobSpec` requests, and pluggable
:class:`~repro.fleet.schedulers.Scheduler` policies — all costed through
:meth:`OffloadPolicy.evaluate` via the shared sweep cache, so Algorithm
1's iteration-time model does the same admission/placement work here
that it does for single-job planning.

Quick start::

    from repro.fleet import Fleet, JobSpec, standard_fleet_nodes

    fleet = Fleet(standard_fleet_nodes(), scheduler="sjf",
                  ledger="benchmarks/results/fleet_ledger.jsonl")
    fleet.submit(JobSpec("mine", model="13B", batch_size=16, iterations=20))
    fleet.inject(600.0, "box-4090", failed_ssds=10, bw_sag=0.6)
    outcome = fleet.drain()
    outcome.metrics["p99_latency_s"], outcome.metrics["utilization"]

Node-level drift escalates to fleet-level rescheduling: a node's
``degrade``/``restore`` returns the typed ``repro.adapt`` drift events
its state change raises, and the degraded node's running job is
re-priced on the degraded spec and requeued/migrated when it blows past
the migrate threshold, with every decision recorded to the run ledger
as a ``kind="fleet"`` entry.

Crash safety: pass ``journal=PATH`` and every transition is write-ahead
logged; after a coordinator crash, :meth:`Fleet.recover` rebuilds the
fleet from the journal with exactly-once job accounting, requeueing
live jobs at their last checkpoint (``JobSpec.checkpoint_every``).
:func:`run_crash_drill` stages the whole scenario — degradation, node
fail-stop, a flapping node, coordinator ``kill -9`` with a torn journal
tail — and :func:`crash_contract` judges its reports: zero lost, zero
duplicated, resume cheaper than restart.
"""

from .api import (
    EVENT_KINDS,
    FleetError,
    FleetEvent,
    JobResult,
    JobSpec,
    percentile,
)
from .cluster import Fleet, FleetOutcome
from .drill import CrashDrillReport, crash_contract, run_crash_drill
from .journal import FleetJournal, JobState, JournalFold
from .node import Node
from .oracle import CostOracle
from .schedulers import (
    SCHEDULERS,
    BinPackScheduler,
    FifoScheduler,
    PriorityScheduler,
    Scheduler,
    SjfScheduler,
    make_scheduler,
)
from .trace import (
    bursty_fleet,
    bursty_trace,
    run_bursty_drill,
    standard_degradations,
    standard_fleet_nodes,
)

__all__ = [
    "EVENT_KINDS",
    "FleetError",
    "FleetEvent",
    "JobResult",
    "JobSpec",
    "percentile",
    "Fleet",
    "FleetOutcome",
    "JobState",
    "Node",
    "CostOracle",
    "CrashDrillReport",
    "crash_contract",
    "FleetJournal",
    "JournalFold",
    "run_crash_drill",
    "SCHEDULERS",
    "BinPackScheduler",
    "FifoScheduler",
    "PriorityScheduler",
    "Scheduler",
    "SjfScheduler",
    "make_scheduler",
    "bursty_fleet",
    "bursty_trace",
    "run_bursty_drill",
    "standard_degradations",
    "standard_fleet_nodes",
]
