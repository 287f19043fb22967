"""The four seeded workloads: op lists, the timed op, and the answer checks.

Every workload is a closed loop with one caller: the next op starts when
the previous one returns.  Op lists come from the workload seed alone, so
every run of one seed times the same ops in the same order.  Ops are
drawn in balanced blocks: each block holds every stratum the workload
names (system, model preset, capacity question, scheduler) exactly once,
and the attributes that drive cost (batch, GPU, DRAM, SSDs) are a seeded
shuffle of a fixed multiset.  Seeds therefore change which point gets
which server, not how much work a run holds, which keeps the run-to-run
spread across seeds small.

Only public APIs are used: ``Sweep``/``SweepPoint``, the policy classes,
the public methods of ``Fleet``, ``Node``, ``CostOracle`` and
``FleetJournal``, and the Fig. 4 runtime API.  Nodes, job traces and
token batches are built here from the seed.
"""

from __future__ import annotations

import contextlib
import inspect
import math
import random
import shutil
from dataclasses import dataclass
from pathlib import Path
from typing import Any

import numpy as np

from repro.baselines import (
    ColossalAIPolicy,
    FlashNeuronPolicy,
    GreedySnakePolicy,
    MegatronPolicy,
    ZenFlowPolicy,
    ZeroInfinityPolicy,
    ZeroOffloadPolicy,
)
from repro.core import EvalOutcome, RatelPolicy, max_batch_size, max_trainable_params
from repro.fleet import CostOracle, Fleet, FleetJournal, JobSpec, Node
from repro.hardware import DGX_A100, GiB, RTX_3090, RTX_4080, RTX_4090, evaluation_server
from repro.models import llm, profile_model, synthetic_llm
from repro.runner import Sweep, SweepPoint
from repro.runtime import (
    NVME,
    CrossEntropyLoss,
    GPTModel,
    RatelOptimizer,
    ratel_hook,
    ratel_init,
)

#: The nine systems the CLI's ``sweep --systems`` accepts.
SYSTEMS = {
    "ratel": RatelPolicy,
    "ratel-naive": lambda: RatelPolicy("naive"),
    "ratel-zero": lambda: RatelPolicy("zero"),
    "zero-infinity": ZeroInfinityPolicy,
    "zero-offload": ZeroOffloadPolicy,
    "colossal-ai": ColossalAIPolicy,
    "flashneuron": FlashNeuronPolicy,
    "zenflow": ZenFlowPolicy,
    "greedysnake": GreedySnakePolicy,
}

#: Systems that plan with Algorithm 1.
RATEL_FAMILY = ("ratel", "ratel-naive", "ratel-zero", "zenflow", "greedysnake")

GPUS = {"4090": RTX_4090, "3090": RTX_3090, "4080": RTX_4080}


def balanced(rng: random.Random, values: tuple | list, n: int) -> list:
    """``n`` draws covering ``values`` as evenly as possible, in seeded order."""
    out = [values[i % len(values)] for i in range(n)]
    rng.shuffle(out)
    return out


def latin(rng: random.Random, values: tuple, rows: int, cols: int) -> list[list]:
    """A ``rows x cols`` grid of ``values`` balanced along every row and column.

    Cell ``(i, j)`` takes ``values[(a[i] + b[j]) % len(values)]`` with
    seeded, balanced offsets ``a`` and ``b``, so each row (a system) and
    each column (a preset or question kind) sees every value about
    equally often; the seed decides which cell gets which value.
    """
    a = balanced(rng, range(len(values)), rows)
    b = balanced(rng, range(len(values)), cols)
    return [[values[(a[i] + b[j]) % len(values)] for j in range(cols)] for i in range(rows)]


def _server(gpu: str, mem_gib: int, n_ssds: int):
    return evaluation_server(gpu=GPUS[gpu], main_memory_bytes=mem_gib * GiB, n_ssds=n_ssds)


class Workload:
    """One workload: seeded op list, set-up, timed op and answer check.

    ``make_block`` draws one balanced block of ops; ``block_s`` is a
    block's normalised duration on the reference host, so a run of
    ``seconds`` holds ``max(1, round(seconds / block_s))`` blocks.
    """

    name = ""
    block_s = 1.0
    #: The traced run's :class:`~perfbench.tracing.Tracer` while it runs.
    tracer = None

    def __init__(self, workdir: Path) -> None:
        self.workdir = workdir

    def n_blocks(self, seconds: float) -> int:
        return max(1, round(seconds / self.block_s))

    def make_ops(self, seed: int, seconds: float) -> list:
        rng = random.Random(f"{self.name}/{seed}")
        ops: list = []
        for _ in range(self.n_blocks(seconds)):
            ops.extend(self.make_block(rng, ops))
        return ops

    def make_block(self, rng: random.Random, earlier: list) -> list:
        raise NotImplementedError

    def setup(self, seed: int) -> None:
        """Warm-up before the first timed op (may run more than once)."""

    def prepare(self, op: Any) -> Any:
        """Untimed per-op preparation; returns the timed op's argument."""
        return op

    def run(self, prepared: Any) -> Any:
        raise NotImplementedError

    def check(self, op: Any, prepared: Any, result: Any) -> bool:
        raise NotImplementedError

    def digest(self, op: Any, prepared: Any, result: Any) -> dict[str, float]:
        """Output quantities that must repeat exactly for one seed."""
        return {}

    def close(self) -> None:
        shutil.rmtree(self.workdir, ignore_errors=True)


# -- cold_whatif ----------------------------------------------------------------


@dataclass(frozen=True)
class WhatIf:
    system: str
    preset: str
    batch: int
    gpu: str
    mem_gib: int
    n_ssds: int


class ColdWhatIf(Workload):
    """One cold what-if per op: every system on every preset, per block."""

    name = "cold_whatif"
    presets = ("6B", "13B", "30B", "70B", "135B", "175B")
    batches = (4, 8, 16, 32, 64)
    mems = (256, 384, 512, 640, 768)
    ssds = tuple(range(6, 13))
    block_s = 5.2

    def make_block(self, rng: random.Random, earlier: list) -> list[WhatIf]:
        shape = (len(SYSTEMS), len(self.presets))
        grids = [latin(rng, values, *shape) for values in (self.batches, tuple(GPUS), self.mems, self.ssds)]
        cells = [(i, j) for i in range(shape[0]) for j in range(shape[1])]
        rng.shuffle(cells)
        seen = set(earlier)
        ops = []
        for i, j in cells:
            batch, gpu, mem, n_ssds = (grid[i][j] for grid in grids)
            op = WhatIf(list(SYSTEMS)[i], self.presets[j], batch, gpu, mem, n_ssds)
            while op in seen:  # every op is a distinct point
                n_ssds = self.ssds[(self.ssds.index(op.n_ssds) + 1) % len(self.ssds)]
                op = WhatIf(op.system, op.preset, batch, gpu, mem, n_ssds)
            seen.add(op)
            ops.append(op)
        return ops

    def prepare(self, op: WhatIf) -> SweepPoint:
        profile_model.cache_clear()
        server = _server(op.gpu, op.mem_gib, op.n_ssds)
        return SweepPoint.evaluate(SYSTEMS[op.system](), llm(op.preset), op.batch, server)

    def run(self, point: SweepPoint) -> EvalOutcome:
        return Sweep().run_point(point)

    def check(self, op: WhatIf, point: SweepPoint, outcome: Any) -> bool:
        return whatif_ok(op, outcome)

    def digest(self, op: WhatIf, point: SweepPoint, outcome: EvalOutcome) -> dict[str, float]:
        return {
            "planner.a_g2m_gb": outcome.plan.a_g2m / 1e9 if outcome.plan else 0.0,
            "sim.simulated_s": outcome.iteration_time if outcome.feasible else 0.0,
        }


def whatif_ok(op: WhatIf, outcome: Any) -> bool:
    """A what-if answer is self-consistent.

    Feasible: finite positive tokens/s with ``tokens_per_s * iteration_time
    == batch * seq_len``.  Infeasible: a non-empty reason.  Ratel family:
    ``A_interBlock <= a_g2m <= A_all``.
    """
    if not isinstance(outcome, EvalOutcome):
        return False
    config = llm(op.preset)
    if outcome.feasible:
        tps, t_iter = outcome.tokens_per_s, outcome.iteration_time
        if not (math.isfinite(tps) and tps > 0 and math.isfinite(t_iter) and t_iter > 0):
            return False
        if not math.isclose(tps * t_iter, op.batch * config.seq_len, rel_tol=1e-9):
            return False
    elif not outcome.reason:
        return False
    if op.system in RATEL_FAMILY:
        if outcome.plan is None:
            return False
        profile = profile_model(config, op.batch)
        lo = profile.inter_block_bytes * (1 - 1e-12)
        hi = profile.activation_bytes_total * (1 + 1e-12)
        if not lo <= outcome.plan.a_g2m <= hi:
            return False
    return True


# -- capacity_search --------------------------------------------------------------


@dataclass(frozen=True)
class Capacity:
    system: str
    kind: str  # "max_trainable" or "max_batch"
    gpu: str
    mem_gib: int
    n_ssds: int
    batch: int | None = None  # max_trainable's batch size
    preset: str | None = None  # max_batch's model


def _default(fn, name: str) -> Any:
    return inspect.signature(fn).parameters[name].default


class CapacitySearch(Workload):
    """One cold capacity question per op, on a 128-256 GiB server."""

    name = "capacity_search"
    kinds = ("max_trainable", "max_batch")
    mems = (128, 160, 192, 224, 256)
    ssds = tuple(range(6, 13))
    trainable_batches = (1, 2, 4, 8)
    batch_presets = ("6B", "13B", "30B")
    block_s = 7.0

    def make_block(self, rng: random.Random, earlier: list) -> list[Capacity]:
        shape = (len(RATEL_FAMILY), len(self.kinds))
        gpus, mems, ssds = (latin(rng, values, *shape) for values in (tuple(GPUS), self.mems, self.ssds))
        batches = balanced(rng, self.trainable_batches, shape[0])
        presets = balanced(rng, self.batch_presets, shape[0])
        ops = []
        for i, system in enumerate(RATEL_FAMILY):
            for j, kind in enumerate(self.kinds):
                server = (gpus[i][j], mems[i][j], ssds[i][j])
                if kind == "max_trainable":
                    ops.append(Capacity(system, kind, *server, batch=batches[i]))
                else:
                    ops.append(Capacity(system, kind, *server, preset=presets[i]))
        rng.shuffle(ops)
        return ops

    def prepare(self, op: Capacity) -> SweepPoint:
        profile_model.cache_clear()
        policy = SYSTEMS[op.system]()
        server = _server(op.gpu, op.mem_gib, op.n_ssds)
        if op.kind == "max_trainable":
            return SweepPoint.max_trainable(policy, server, batch_size=op.batch)
        return SweepPoint.max_batch(policy, llm(op.preset), server)

    def run(self, point: SweepPoint) -> Any:
        return Sweep().run_point(point)

    def check(self, op: Capacity, point: SweepPoint, answer: Any) -> bool:
        return capacity_ok(op, answer)

    def digest(self, op: Capacity, point: SweepPoint, answer: Any) -> dict[str, float]:
        key = "capacity.max_trainable_b" if op.kind == "max_trainable" else "capacity.max_batch"
        return {key: answer / 1e9 if op.kind == "max_trainable" else answer}


def capacity_ok(op: Capacity, answer: Any) -> bool:
    """The answer lies on the promised frontier (probed with a fresh policy).

    ``max_trainable``: feasible at the answer and infeasible one bisection
    tolerance above it.  ``max_batch``: feasible at the answer and
    infeasible at the next candidate batch.  A zero answer must be
    infeasible at the smallest candidate.
    """
    policy = SYSTEMS[op.system]()
    server = _server(op.gpu, op.mem_gib, op.n_ssds)
    if op.kind == "max_trainable":
        if not isinstance(answer, float) or answer < 0:
            return False

        def fits(n_params: float) -> bool:
            return policy.feasible(profile_model(synthetic_llm(n_params), op.batch), server)

        if answer == 0:
            return not fits(_default(max_trainable_params, "lo"))
        if not fits(answer):
            return False
        ceiling = float(synthetic_llm(_default(max_trainable_params, "hi")).n_params)
        if answer >= ceiling:
            return True
        return not fits(answer * (1 + _default(max_trainable_params, "tolerance")))

    candidates = _default(max_batch_size, "candidates")
    config = llm(op.preset)

    def fits_batch(batch: int) -> bool:
        return policy.feasible(profile_model(config, batch), server)

    if answer == 0:
        return not fits_batch(candidates[0])
    if answer not in candidates or not fits_batch(answer):
        return False
    above = [b for b in candidates if b > answer]
    return not above or not fits_batch(above[0])


# -- train_step ---------------------------------------------------------------------

#: The GPT of ``benchmarks/bench_runtime.py``: 256 tokens per step.
VOCAB, DIM, LAYERS, HEADS, SEQ, BATCH = 101, 32, 4, 4, 32, 8
GB = 1e9
#: Tier pairs whose per-step traffic is reported.
BYTE_LINKS = (("gpu", "host"), ("host", "gpu"), ("host", "nvme"), ("nvme", "host"))


class TrainStep(Workload):
    """One ``RatelRuntime.train_step`` per op on NVMe-tier states."""

    name = "train_step"
    block_s = 0.137

    def __init__(self, workdir: Path) -> None:
        super().__init__(workdir)
        self._stack = contextlib.ExitStack()
        self.loss_fn = CrossEntropyLoss()
        self.reference: dict | None = None

    def make_block(self, rng: random.Random, earlier: list) -> list:
        ids = np.random.default_rng(rng.getrandbits(64)).integers(0, VOCAB, size=(BATCH, SEQ))
        return [(ids, np.roll(ids, -1, axis=1))]

    def setup(self, seed: int) -> None:
        """Build the model under ``ratel_init`` and run the first step."""
        self._stack.close()
        spill = self.workdir / "nvme"
        spill.mkdir(parents=True, exist_ok=True)
        context = self._stack.enter_context(
            ratel_init(
                gpu_capacity=GB,
                host_capacity=GB,
                nvme_capacity=8 * GB,
                checkpoint_tier=NVME,
                states_tier=NVME,
                active_offload=True,
                spill_dir=str(spill),
            )
        )
        self.manager = context.manager
        self.model = GPTModel(VOCAB, DIM, LAYERS, HEADS, SEQ, np.random.default_rng(seed))
        self.runtime = ratel_hook(self.model)
        RatelOptimizer(self.model, self.runtime, lr=1e-3)
        warm = self.make_block(random.Random(f"{self.name}/warm/{seed}"), [])[0]
        self.runtime.train_step(self.prepare(warm))
        self.reference = None
        self._moved = dict(self.manager.moved_bytes)

    def prepare(self, op: tuple) -> Any:
        ids, targets = op

        def forward() -> Any:
            return self.loss_fn(self.model(ids), targets)

        return self.tracer.wrap("runtime.forward", forward) if self.tracer else forward

    def run(self, loss_closure: Any) -> float:
        return self.runtime.train_step(loss_closure)

    def _delta(self) -> dict:
        moved = dict(self.manager.moved_bytes)
        delta = {link: moved[link] - self._moved.get(link, 0.0) for link in moved}
        self._moved = moved
        return delta

    def check(self, op: tuple, closure: Any, loss: Any) -> bool:
        delta = self._delta()
        self.last_delta = delta
        if self.reference is None:
            self.reference = delta
        return step_ok(loss, delta, self.reference)

    def digest(self, op: tuple, closure: Any, loss: float) -> dict[str, float]:
        return {
            f"runtime.bytes_{src}_{dst}": nbytes
            for (src, dst), nbytes in self.last_delta.items()
            if (src, dst) in BYTE_LINKS
        }

    def close(self) -> None:
        self._stack.close()
        super().close()


def step_ok(loss: Any, delta: dict, reference: dict) -> bool:
    """A finite loss, and exactly the first timed step's bytes per tier pair."""
    return isinstance(loss, float) and math.isfinite(loss) and delta == reference


# -- fleet_replay ---------------------------------------------------------------------

SCHEDULER_ROTATION = ("fifo", "sjf", "priority", "binpack")

#: Job shapes: (model, batch, iteration counts); each burst opens with the long job.
LONG = ("30B", 32, (18, 22, 26, 30))
MEDIUM = ("13B", 16, (10, 12, 14, 16, 18, 20))
SHORT = ("6B", 8, (6, 8, 10, 12, 14))
BURSTS, BURST_EVERY_S = 4, 600.0
BURST_TAIL = (MEDIUM, MEDIUM, SHORT, SHORT, SHORT)
CHECKPOINT_EVERY = 3
#: The standard node classes: (name, GPU, DRAM GiB, SSDs), plus the DGX.
CLUSTER = (("box-3090", "3090", 256, 8), ("box-4080", "4080", 256, 6), ("box-4090", "4090", 768, 12))
DEGRADE = {"failed_ssds": 10, "bw_sag": 0.6}
RESTORE_AT_S = 2400.0
REJOIN_GRACE_S = 300.0
#: Half a record, as ``kill -9`` between ``write()`` and the newline leaves it.
TORN_TAIL = b'{"rec": "assign", "job_id": "job-'


@dataclass(frozen=True)
class FleetPlan:
    """One block's seeded bursty trace and fault instants."""

    trace: tuple[JobSpec, ...]
    degrade_at: float
    failstop_at: float
    flap_at: float
    kill_at: float


def fleet_plan(seed: int, block: int) -> FleetPlan:
    """Build one block's seeded bursty trace and fault instants.

    Each burst is a long head plus a shuffled tail of two medium and three
    short jobs.  Iteration counts, priorities, deadlines (half the short
    jobs) and the one ``dgx``-pinned medium job are seeded shuffles of
    fixed multisets, so every seed carries the same amount of work.
    """
    rng = random.Random(f"fleet_replay/{seed}/{block}")
    shapes = []
    for _ in range(BURSTS):
        tail = list(BURST_TAIL)
        rng.shuffle(tail)
        shapes.extend([LONG, *tail])
    iterations = {
        shape: iter(balanced(rng, shape[2], sum(s is shape for s in shapes)))
        for shape in (LONG, MEDIUM, SHORT)
    }
    priorities = balanced(rng, range(6), len(shapes))
    shorts = [i for i, shape in enumerate(shapes) if shape is SHORT]
    deadlines = set(rng.sample(shorts, len(shorts) // 2))
    pinned = rng.choice([i for i, shape in enumerate(shapes) if shape is MEDIUM])
    specs, offset = [], 0.0
    for i, shape in enumerate(shapes):
        model, batch, _ = shape
        if shape is LONG:  # a new burst opens
            offset = len(specs) // (1 + len(BURST_TAIL)) * BURST_EVERY_S
        specs.append(
            JobSpec(
                job_id=f"job-{i:03d}",
                model=model,
                batch_size=batch,
                iterations=next(iterations[shape]),
                priority=priorities[i],
                deadline_s=BURST_EVERY_S * rng.uniform(2.0, 4.0) if i in deadlines else None,
                hardware_class="dgx" if i == pinned else None,
                submit_at=offset,
                checkpoint_every=CHECKPOINT_EVERY,
            )
        )
        offset += rng.uniform(1.0, 20.0)
    return FleetPlan(
        trace=tuple(specs),
        degrade_at=rng.uniform(600.0, 680.0),
        failstop_at=rng.uniform(690.0, 760.0),
        flap_at=rng.uniform(850.0, 950.0),
        kill_at=rng.uniform(1350.0, 1450.0),
    )


@dataclass
class Drill:
    """A prepared crash drill: plan, scheduler, fresh node sets, log paths."""

    plan: FleetPlan
    scheduler: str
    nodes: list[Node]
    recover_nodes: list[Node]
    journal: Path
    ledger: Path


@dataclass
class DrillResult:
    outcome: Any
    pre_crash_events: list
    recovered_events: list


class FleetReplay(Workload):
    """One crash drill per op, rotating fifo -> sjf -> priority -> binpack.

    Each block of four drills replays its own seeded trace, so a run
    averages over several traces instead of resting on one.
    """

    name = "fleet_replay"
    block_s = 1.52

    def make_ops(self, seed: int, seconds: float) -> list[tuple[FleetPlan, str]]:
        return [
            (fleet_plan(seed, block), scheduler)
            for block in range(self.n_blocks(seconds))
            for scheduler in SCHEDULER_ROTATION
        ]

    def nodes(self) -> list[Node]:
        """A fresh cluster: new node objects and policies every call."""
        boxes = [
            Node(name, _server(gpu, mem, n_ssds), RatelPolicy(), hardware_class=gpu)
            for name, gpu, mem, n_ssds in CLUSTER
        ]
        return [*boxes, Node("dgx-a100", DGX_A100, MegatronPolicy(), hardware_class="dgx")]

    def setup(self, seed: int) -> None:
        """Warm one shared oracle on every (job shape, node state) pair."""
        self.workdir.mkdir(parents=True, exist_ok=True)
        profile_model.cache_clear()
        self.oracle = CostOracle(Sweep())
        shapes = [JobSpec(f"warm-{model}", model, batch, 1) for model, batch, _ in (LONG, MEDIUM, SHORT)]
        nodes = self.nodes()
        for spec in shapes:
            for node in nodes:
                self.oracle.outcome(spec, node)
        box = next(node for node in nodes if node.name == "box-4090")
        box.degrade(**DEGRADE)
        for spec in shapes:
            self.oracle.outcome(spec, box)

    def prepare(self, op: tuple[FleetPlan, str]) -> Drill:
        journal, ledger = self.workdir / "journal.jsonl", self.workdir / "ledger.jsonl"
        journal.unlink(missing_ok=True)
        ledger.unlink(missing_ok=True)
        return Drill(*op, self.nodes(), self.nodes(), journal, ledger)

    def run(self, drill: Drill) -> DrillResult:
        plan = drill.plan
        fleet = Fleet(
            drill.nodes,
            drill.scheduler,
            oracle=self.oracle,
            ledger=str(drill.ledger),
            journal=str(drill.journal),
        )
        for spec in plan.trace:
            fleet.submit(spec)
        fleet.inject(plan.degrade_at, "box-4090", **DEGRADE)
        fleet.inject(RESTORE_AT_S, "box-4090", restore=True)
        fleet.inject_crash(plan.failstop_at, "box-4080", rejoin_after=500.0)
        for cycle in range(3):  # a flapping node: three crashes inside the flap window
            fleet.inject_crash(plan.flap_at + cycle * 180.0, "box-3090", rejoin_after=60.0)
        fleet.run_until(plan.kill_at)
        fleet.journal.close()
        with open(drill.journal, "ab") as handle:
            handle.write(TORN_TAIL)
        recovered = Fleet.recover(
            str(drill.journal),
            drill.recover_nodes,
            drill.scheduler,
            oracle=self.oracle,
            ledger=str(drill.ledger),
        )
        if recovered.now < RESTORE_AT_S:
            recovered.inject(RESTORE_AT_S, "box-4090", restore=True)
        for node in recovered.nodes:
            if not node.alive:
                recovered.inject_rejoin(recovered.now + REJOIN_GRACE_S, node.name)
        outcome = recovered.drain()
        recovered.journal.close()
        return DrillResult(outcome, fleet.events, recovered.events)

    def check(self, op: tuple, drill: Drill, result: Any) -> bool:
        self._records = FleetJournal(str(drill.journal)).records()
        return drill_ok([s.job_id for s in drill.plan.trace], result.outcome.results, self._records)

    def digest(self, op: tuple, drill: Drill, result: DrillResult) -> dict[str, float]:
        events = [*result.pre_crash_events, *result.recovered_events]
        records = self._records
        return {
            "fleet.events": len(events),
            "fleet.quarantines": sum(1 for e in events if e.kind == "quarantine"),
            "fleet.requeued": sum(r.get("requeued", 0) for r in records if r.get("rec") == "recover"),
            "fleet.lost_iterations": result.outcome.metrics["lost_iterations"],
        }


def drill_ok(submitted: list[str], results: list, records: list[dict]) -> bool:
    """Every submitted job is terminal exactly once, in the outcome and the journal."""
    terminal = [r.spec.job_id for r in results if r.state in ("completed", "rejected")]
    if sorted(terminal) != sorted(submitted):
        return False
    counts: dict[str, int] = {}
    for record in records:
        if record.get("rec") in ("finish", "reject"):
            job_id = record.get("job_id", "")
            counts[job_id] = counts.get(job_id, 0) + 1
    return all(counts.get(job_id) == 1 for job_id in submitted) and set(counts) == set(submitted)


WORKLOADS = {w.name: w for w in (ColdWhatIf, CapacitySearch, TrainStep, FleetReplay)}
