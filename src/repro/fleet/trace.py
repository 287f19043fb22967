"""The standard fleet, the bursty arrival trace, and the drill harness.

The fleet composes the repo's existing hardware presets into four node
classes the scheduler must reason about:

* ``box-3090`` — RTX 3090, 256 GiB DRAM, 8 SSDs (the slow consumer box);
* ``box-4080`` — RTX 4080, 256 GiB DRAM, 6 SSDs;
* ``box-4090`` — the paper's Table-III evaluation server (768 GiB, 12
  SSDs) — the fast consumer box;
* ``dgx-a100`` — the Table-VII DGX comparison machine running
  Megatron-LM (no SSD array, so Ratel is unsupported there and the node
  advertises the ``dgx`` hardware class).

Node order is slowest-first on purpose: a class-unaware policy (FIFO's
"first feasible node") keeps landing work on the slow boxes, which is
precisely the placement mistake the oracle-guided policies avoid — the
heterogeneity gap, not queue order alone, is where the cost model earns
its P99 win.

:func:`bursty_trace` generates a deterministic open-loop arrival
process: bursts of mixed job shapes (a long 30B head followed by medium
13B and short 6B requests) every ``BURST_EVERY_S`` seconds — the
head-of-line pattern that punishes FIFO.  :func:`standard_degradations`
injects the PR-2-style fault mid-trace (the 4090 box loses most of its
array plus a thermal sag, healing later), which exercises the
drift-to-rescheduling escalation path.  :func:`bursty_fleet` wires the
three together into a fleet ready to run; :func:`run_bursty_drill`
drains it (the CLI, ``ext_fleet`` and CI's fleet-smoke job all call
it), and the crash drill runs it up to the coordinator kill.
"""

from __future__ import annotations

import random

from repro.baselines.megatron import MegatronPolicy
from repro.core import RatelPolicy
from repro.hardware import DGX_A100, GiB, RTX_3090, RTX_4080, evaluation_server
from repro.obs.ledger import RunLedger

from .api import JobSpec
from .cluster import Fleet, FleetOutcome
from .node import Node
from .oracle import CostOracle

#: Burst cadence of the standard trace (seconds of fleet time).
BURST_EVERY_S = 600.0

#: When the standard drill degrades / heals the 4090 box.  The fault
#: lands mid-way through the second burst, when every scheduler has work
#: running on the box — so the escalation path always has a job to move.
DEGRADE_AT_S = 640.0
RESTORE_AT_S = 2400.0


def standard_fleet_nodes(optimizer_mode: str | None = None) -> list[Node]:
    """The four-node heterogeneous cluster (fresh instances every call).

    ``optimizer_mode`` (``sync``/``async``/``overlap``) swaps every
    Ratel-family node policy for the stall-free variant — the DGX keeps
    Megatron, which has no out-of-core optimizer to overlap.
    """

    def ratel():
        if optimizer_mode is None:
            return RatelPolicy()
        from repro.baselines.overlap import policy_for_mode

        return policy_for_mode(optimizer_mode)

    return [
        Node(
            "box-3090",
            evaluation_server(gpu=RTX_3090, main_memory_bytes=256 * GiB, n_ssds=8),
            ratel(),
            hardware_class="3090",
        ),
        Node(
            "box-4080",
            evaluation_server(gpu=RTX_4080, main_memory_bytes=256 * GiB, n_ssds=6),
            ratel(),
            hardware_class="4080",
        ),
        Node(
            "box-4090",
            evaluation_server(),
            ratel(),
            hardware_class="4090",
        ),
        Node(
            "dgx-a100",
            DGX_A100,
            MegatronPolicy(),
            hardware_class="dgx",
        ),
    ]


#: The job shapes bursts draw from: (model, batch, iteration range).
_SHAPES = (
    ("30B", 32, (18, 30)),  # long: dominates a slow box for ~an hour
    ("13B", 16, (10, 20)),  # medium
    ("6B", 8, (6, 14)),  # short: the latency-sensitive tail
)


def bursty_trace(
    n_jobs: int = 40,
    seed: int = 7,
    *,
    checkpoint_every: int | None = None,
) -> list[JobSpec]:
    """A deterministic bursty arrival trace of ``n_jobs`` mixed requests.

    Each burst opens with a long job followed by mediums and shorts
    (arrival order is what FIFO dispatches on), with small intra-burst
    jitter, random priorities, a deadline on some of the short jobs, and
    an occasional job pinned to the ``dgx`` class.  ``checkpoint_every``
    (a constant, so the RNG draw sequence — and with it every other
    field of the trace — is identical to the no-checkpoint trace) makes
    every job resumable at that iteration cadence.
    """
    rng = random.Random(seed)
    specs: list[JobSpec] = []
    burst = 0
    while len(specs) < n_jobs:
        base = burst * BURST_EVERY_S
        offset = 0.0
        for slot in range(6):
            if len(specs) >= n_jobs:
                break
            # Slot 0 is the burst's long head; the rest skew short.
            if slot == 0:
                shape = _SHAPES[0]
            else:
                shape = _SHAPES[1] if rng.random() < 0.4 else _SHAPES[2]
            model, batch, (lo, hi) = shape
            job_id = f"job-{len(specs):03d}"
            hardware_class = None
            if model == "13B" and rng.random() < 0.15:
                hardware_class = "dgx"
            deadline = None
            if model == "6B" and rng.random() < 0.5:
                deadline = BURST_EVERY_S * rng.uniform(2.0, 4.0)
            specs.append(
                JobSpec(
                    job_id=job_id,
                    model=model,
                    batch_size=batch,
                    iterations=rng.randint(lo, hi),
                    priority=rng.randint(0, 5),
                    deadline_s=deadline,
                    hardware_class=hardware_class,
                    submit_at=base + offset,
                    checkpoint_every=checkpoint_every,
                )
            )
            offset += rng.uniform(1.0, 20.0)
        burst += 1
    return specs


def standard_degradations() -> list[dict]:
    """The mid-trace fault: the 4090 box loses 10 of 12 drives + a sag.

    Severe enough that any offloading job's iteration time blows past
    the fleet's migrate threshold, forcing the running job off the node
    (the escalation path under test); the box heals at ``RESTORE_AT_S``.
    """
    return [
        {"at": DEGRADE_AT_S, "node": "box-4090", "failed_ssds": 10, "bw_sag": 0.6},
        {"at": RESTORE_AT_S, "node": "box-4090", "restore": True},
    ]


def bursty_fleet(
    scheduler: str = "sjf",
    *,
    n_jobs: int = 40,
    seed: int = 7,
    ledger: str | RunLedger | None = None,
    degrade: bool = True,
    oracle: CostOracle | None = None,
    nodes: list[Node] | None = None,
    optimizer_mode: str | None = None,
    journal: str | None = None,
    checkpoint_every: int | None = None,
) -> Fleet:
    """A fleet with the bursty trace submitted and the standard fault armed.

    ``optimizer_mode`` selects the stall-free optimizer variant on the
    Ratel nodes (ignored when explicit ``nodes`` are given).
    ``journal`` write-ahead logs every scheduler transition so the run
    can be recovered after a coordinator crash; ``checkpoint_every``
    makes the trace's jobs resumable at that iteration cadence.
    """
    fleet = Fleet(
        nodes if nodes is not None else standard_fleet_nodes(optimizer_mode),
        scheduler,
        oracle=oracle,
        ledger=ledger,
        journal=journal,
    )
    for spec in bursty_trace(n_jobs, seed, checkpoint_every=checkpoint_every):
        fleet.submit(spec)
    if degrade:
        for injection in standard_degradations():
            fleet.inject(**injection)
    return fleet


def run_bursty_drill(
    scheduler: str = "sjf",
    *,
    n_jobs: int = 40,
    seed: int = 7,
    ledger: str | RunLedger | None = None,
    degrade: bool = True,
    oracle: CostOracle | None = None,
    nodes: list[Node] | None = None,
    optimizer_mode: str | None = None,
    journal: str | None = None,
    checkpoint_every: int | None = None,
) -> FleetOutcome:
    """Drain :func:`bursty_fleet`: the bursty trace plus the standard
    fault under one policy (same parameters)."""
    return bursty_fleet(
        scheduler,
        n_jobs=n_jobs,
        seed=seed,
        ledger=ledger,
        degrade=degrade,
        oracle=oracle,
        nodes=nodes,
        optimizer_mode=optimizer_mode,
        journal=journal,
        checkpoint_every=checkpoint_every,
    ).drain()
