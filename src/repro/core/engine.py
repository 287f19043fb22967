"""Discrete-event execution of one training iteration.

:func:`run_iteration` executes an :class:`~repro.core.schedule.IterationSchedule`
on a simulated :class:`~repro.sim.Machine` and returns an
:class:`IterationResult` with the timeline, stage windows and the derived
metrics the paper reports (tokens/s, achieved TFLOPS, GPU busy fraction,
per-stage PCIe utilization).

The engine realises the overlap structure of Fig. 1/3:

* a bounded-depth parameter prefetcher feeds the GPU in both stages;
* forward activations drain to main memory and (overflow) to SSD while
  later blocks compute;
* backward interleaves recomputation, activation fetches and gradient
  offload;
* the optimizer runs per the schedule's mode — actively during backward
  (Ratel) or as a separate stage (ZeRO-family, G10).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING

from repro.hardware.spec import ServerSpec, gpu_occupancy
from repro.sim.engine import Event
from repro.sim.resources import Machine, RateChannel, Semaphore
from repro.sim.trace import Trace

from .schedule import (
    DECOUPLED_MODES,
    BlockTask,
    IterationSchedule,
    OptimizerMode,
    StatesLocation,
)

if TYPE_CHECKING:  # import would cycle: faults.chaos imports core.policy
    from repro.faults import FaultSchedule

#: GPU FLOPs per parameter for an in-core (GPU) Adam step.  Adam is
#: memory-bound; this value makes a 13B update cost ~0.1 s on a 4090,
#: matching the paper's G10 analysis ("0.1-second GPU computation").
GPU_ADAM_FLOPS_PER_PARAM = 1.3

#: How many blocks of model states the active-optimizer reader may hold
#: in main memory ahead of the CPU worker (double buffering).
STATE_READ_WINDOW = 2


class _Labels(dict):
    """Transfer labels by (kind, block index): ``_LABELS["fwd_b", 3] == "fwd_b3"``.

    Every simulation labels its transfers with the same few hundred
    strings, so the process keeps one of each instead of formatting one
    per transfer.  Safe under concurrent simulations (the serve's worker
    threads): ``setdefault`` keeps the first string stored for a key, and
    a thread that loses the race formats an equal one.
    """

    def __missing__(self, key: tuple[str, int]) -> str:
        kind, index = key
        return self.setdefault(key, f"{kind}{index}")


_LABELS = _Labels()


@dataclass
class IterationResult:
    """Timeline and metrics of one simulated iteration."""

    schedule: IterationSchedule
    server: ServerSpec
    trace: Trace
    stage_windows: dict[str, tuple[float, float]]
    #: Drives still alive in the SSD array when the run ended (fewer than
    #: ``server.n_ssds`` after a mid-iteration dropout).
    remaining_ssds: int
    #: Seconds of the optimizer stage hidden under the *adjacent*
    #: iteration's compute (decoupled modes only).  The stage windows
    #: keep the raw, un-overlapped timeline; the steady-state iteration
    #: time subtracts this credit.
    hidden_s: float = 0.0

    @property
    def iteration_time(self) -> float:
        """Steady-state seconds per iteration.

        For the synchronous modes this is simply the end of the last
        stage.  For the decoupled modes (``ASYNC_BOUNDED`` /
        ``OVERLAP_STEP``) the optimizer stage overlaps the adjacent
        iteration, so the credit computed by the engine is subtracted —
        steady state ``max(compute, optimizer)`` for async, forward-hidden
        for step-overlap.
        """
        return max(end for _start, end in self.stage_windows.values()) - self.hidden_s

    def stage_time(self, stage: str) -> float:
        """Duration of one stage window (0 if the stage is absent)."""
        if stage not in self.stage_windows:
            return 0.0
        start, end = self.stage_windows[stage]
        return end - start

    @property
    def forward_time(self) -> float:
        """Forward-stage seconds."""
        return self.stage_time("forward")

    @property
    def backward_time(self) -> float:
        """Backward-stage seconds (includes active-optimizer drain)."""
        return self.stage_time("backward")

    @property
    def optimizer_time(self) -> float:
        """Separate optimizer-stage seconds (0 under active offloading)."""
        return self.stage_time("optimizer")

    @property
    def tokens_per_s(self) -> float:
        """Training throughput in tokens/second (the paper's Fig. 5 metric)."""
        return self.schedule.model.tokens_per_iteration / self.iteration_time

    @property
    def samples_per_s(self) -> float:
        """Sequences (LLM) or images (DiT) per second — Fig. 12's metric."""
        return self.schedule.model.samples_per_iteration / self.iteration_time

    @property
    def achieved_tflops(self) -> float:
        """Useful model FLOPs per second (fwd + bwd, excluding recompute).

        This is the paper's Fig. 5c metric: recomputation is overhead, so
        only the 3x forward FLOPs of the model count as useful work.
        """
        useful = self.schedule.model.forward_flops + self.schedule.model.backward_flops
        return useful / self.iteration_time / 1e12

    @property
    def gpu_busy_fraction(self) -> float:
        """Fraction of the iteration the GPU executes kernels (Fig. 2b)."""
        iteration_time = self.iteration_time
        return self.trace.busy_time("gpu0", 0.0, iteration_time) / iteration_time

    @property
    def optimizer_fraction(self) -> float:
        """Separate optimizer stage as a fraction of the iteration (Fig. 2c)."""
        return self.optimizer_time / self.iteration_time

    def utilization(self, resource: str, stage: str) -> float:
        """Busy fraction of ``resource`` within one stage window (Fig. 1)."""
        if stage not in self.stage_windows:
            return 0.0
        start, end = self.stage_windows[stage]
        return self.trace.utilization(resource, start, end)

    def summary(self) -> str:
        """A human-readable Fig.-1-style report of this iteration."""
        lines = [
            f"{self.schedule.name}: {self.iteration_time:.1f} s/iteration, "
            f"{self.tokens_per_s:.0f} token/s, {self.achieved_tflops:.0f} TFLOPS, "
            f"GPU busy {100 * self.gpu_busy_fraction:.0f}%"
        ]
        for stage in ("forward", "backward", "optimizer"):
            if stage not in self.stage_windows:
                continue
            utils = ", ".join(
                f"{resource}={100 * self.utilization(resource, stage):.0f}%"
                for resource in ("gpu0", "pcie_m2g0", "pcie_g2m0", "ssd")
                if self.utilization(resource, stage) > 0.005
            )
            lines.append(f"  {stage:9s} {self.stage_time(stage):6.1f} s  ({utils})")
        return "\n".join(lines)


def run_iteration(
    server: ServerSpec,
    schedule: IterationSchedule,
    faults: FaultSchedule | None = None,
) -> IterationResult:
    """Simulate one iteration of ``schedule`` on ``server``.

    ``faults`` (a :class:`repro.faults.FaultSchedule`, duck-typed to
    keep ``core`` free of the dependency) injects timed SSD dropouts,
    bandwidth sags and latency stalls into the machine mid-iteration.
    The result's ``remaining_ssds`` reports the drives the run ended
    with, so a caller sees a mid-iteration dropout without reaching
    into the machine.
    """
    machine = Machine(server, faults=faults)
    run = _IterationRun(machine, schedule)
    machine.sim.process(run.main())
    machine.run()
    return IterationResult(
        schedule=schedule,
        server=server,
        trace=machine.trace,
        stage_windows=run.stage_windows,
        remaining_ssds=max(server.n_ssds - machine.failed_ssds, 0),
        hidden_s=run.hidden_s,
    )


class _IterationRun:
    """One iteration's worth of coroutine processes on a machine."""

    def __init__(
        self,
        machine: Machine,
        schedule: IterationSchedule,
        gpu: int = 0,
        *,
        run_optimizer: bool = True,
        state_reads_from_ssd: bool = True,
    ) -> None:
        self.machine = machine
        self.sim = machine.sim
        self.schedule = schedule
        #: Data-parallel workers set this False: one shared optimizer
        #: instance updates the model for all GPUs.
        self.run_optimizer = run_optimizer
        #: In multi-GPU runs only one worker reads each P16 block from
        #: SSD; the others hit the host page cache (PCIe cost remains).
        self.state_reads_from_ssd = state_reads_from_ssd
        self.gpu: RateChannel = machine.gpus[gpu]
        self.m2g: RateChannel = machine.pcie_m2g[gpu]
        self.g2m: RateChannel = machine.pcie_g2m[gpu]
        self.ssd: RateChannel = machine.ssd
        self.cpu_adam = machine.cpu_adam
        self.stage_windows: dict[str, tuple[float, float]] = {}
        #: Optimizer seconds the decoupled modes hide under the adjacent
        #: iteration (0 for the synchronous modes).
        self.hidden_s = 0.0
        n = schedule.n_blocks
        self.grad_arrived: list[Event] = [self.sim.event() for _ in range(n)]
        self.states_ready: list[Event] = [self.sim.event() for _ in range(n)]
        self.updated: list[Event] = [self.sim.event() for _ in range(n)]
        self._bwd_ready: list[Event] = [self.sim.event() for _ in range(n)]
        self._bwd_window = Semaphore(self.sim, schedule.prefetch_depth)
        self._gpu_eff = gpu_occupancy(
            schedule.model.tokens_per_iteration,
            machine.server.gpu.saturation_tokens,
        )

    # -- efficiency-aware transfer helpers ------------------------------------

    def _ssd_read(self, nbytes: float, label: str) -> Event:
        """SSD read at this system's achieved I/O efficiency."""
        return self.ssd.use(nbytes, label, self.schedule.ssd_efficiency)

    def _ssd_write(self, nbytes: float, label: str) -> Event:
        """SSD write at this system's achieved I/O efficiency."""
        return self.ssd.use(nbytes, label, self.schedule.ssd_efficiency, write=True)

    def _m2g(self, nbytes: float, label: str) -> Event:
        """Host -> GPU PCIe transfer at this system's achieved efficiency."""
        return self.m2g.use(nbytes, label, self.schedule.pcie_efficiency)

    def _g2m(self, nbytes: float, label: str) -> Event:
        """GPU -> host PCIe transfer at this system's achieved efficiency."""
        return self.g2m.use(nbytes, label, self.schedule.pcie_efficiency)

    # -- top level -----------------------------------------------------------

    def main(self):
        """Forward, backward (+active optimizer), optional optimizer stage."""
        start = self.sim.now
        yield self._stage_forward()
        fwd_end = self.sim.now
        self.stage_windows["forward"] = (start, fwd_end)

        mode = self.schedule.optimizer_mode
        active = mode in (
            OptimizerMode.ACTIVE_OPTIMIZED,
            OptimizerMode.ACTIVE_NAIVE,
        )
        overlap = mode is OptimizerMode.OVERLAP_STEP
        backward_procs = [self.sim.process(self._backward_compute())]
        backward_procs.append(self.sim.process(self._backward_prefetcher()))
        if active and self.run_optimizer:
            backward_procs.extend(self._spawn_active_optimizer())
        overlap_procs: list[Event] = []
        if overlap and self.run_optimizer:
            # GreedySnake keeps Ratel's per-gradient start during
            # backward, but the backward barrier no longer waits for the
            # optimizer: the drain tail hides under the next forward.
            overlap_procs = self._spawn_pipelined_cpu_optimizer(wait_grads=True)
        yield self.sim.all_of(backward_procs)
        bwd_end = self.sim.now
        self.stage_windows["backward"] = (fwd_end, bwd_end)

        if overlap and self.run_optimizer:
            yield self.sim.all_of(overlap_procs)
            tail = self.sim.now - bwd_end
            if tail > 0:
                self.stage_windows["optimizer"] = (bwd_end, self.sim.now)
            # The tail overlaps the *next* iteration's forward: updated
            # states arrive just before each block's forward reads them.
            self.hidden_s = min(tail, fwd_end - start)
        elif not active and self.run_optimizer:
            yield self.sim.all_of(self._spawn_deferred_optimizer())
            self.stage_windows["optimizer"] = (bwd_end, self.sim.now)
            if mode is OptimizerMode.ASYNC_BOUNDED:
                # Fully decoupled: the CPU optimizer hides under the whole
                # next fwd+bwd, so steady state is max(GPU pipeline, CPU
                # optimizer pipeline).
                opt_time = self.sim.now - bwd_end
                self.hidden_s = min(opt_time, bwd_end - start)

    # -- forward ---------------------------------------------------------------

    def _stage_forward(self) -> Event:
        """All forward work: prefetch, compute, activation drain."""
        n = self.schedule.n_blocks
        ready = [self.sim.event() for _ in range(n)]
        window = Semaphore(self.sim, self.schedule.prefetch_depth)
        offloads: list[Event] = []

        def prefetcher():
            for block in self.schedule.blocks:
                yield window.acquire()
                yield from self._fetch_params(block, "fwd_p16_ssd_b", "fwd_p16_b")
                ready[block.index].succeed()

        def compute():
            for block in self.schedule.blocks:
                yield ready[block.index]
                yield self.gpu.use(block.fwd_flops, _LABELS["fwd_b", block.index], self._gpu_eff)
                if self.schedule.sync_overhead_per_block > 0:
                    yield self.sim.timeout(self.schedule.sync_overhead_per_block)
                window.release()
                if block.act_swapped > 0:
                    offloads.append(self.sim.process(self._offload_acts(block)))

        compute_proc = self.sim.process(compute())
        prefetch_proc = self.sim.process(prefetcher())

        def barrier():
            yield self.sim.all_of([compute_proc, prefetch_proc])
            if offloads:
                yield self.sim.all_of(offloads)

        return self.sim.process(barrier())

    def _offload_acts(self, block: BlockTask):
        """Drain one block's swapped activations: GPU -> main -> (SSD)."""
        yield self._g2m(block.act_swapped, _LABELS["act_out_b", block.index])
        if block.act_to_ssd > 0:
            yield self._ssd_write(block.act_to_ssd, _LABELS["act_spill_b", block.index])

    def _fetch_params(self, block: BlockTask, ssd_kind: str, pcie_kind: str):
        """Bring one block's fp16 parameters to the GPU (labels by kind)."""
        if block.p16_bytes <= 0:
            return
        if self.schedule.states_location is StatesLocation.GPU:
            return
        if self.schedule.states_location is StatesLocation.SSD and self.state_reads_from_ssd:
            yield self._ssd_read(block.p16_bytes, _LABELS[ssd_kind, block.index])
        yield self._m2g(block.p16_bytes, _LABELS[pcie_kind, block.index])

    # -- backward ----------------------------------------------------------------

    def _backward_prefetcher(self):
        """Fetch params + swapped activations for blocks in reverse order."""
        window = self._bwd_window
        for block in reversed(self.schedule.blocks):
            yield window.acquire()
            if block.act_to_ssd > 0:
                yield self._ssd_read(block.act_to_ssd, _LABELS["act_back_ssd_b", block.index])
            yield from self._fetch_params(block, "bwd_p16_ssd_b", "bwd_p16_b")
            if block.act_swapped > 0:
                yield self._m2g(block.act_swapped, _LABELS["act_back_b", block.index])
            self._bwd_ready[block.index].succeed()

    def _backward_compute(self):
        """Backward GPU work, gradient offload, recomputation."""
        grads: list[Event] = []
        critical = (
            self.schedule.critical_frac
            if self.schedule.optimizer_mode is OptimizerMode.ASYNC_BOUNDED
            else 0.0
        )
        for block in reversed(self.schedule.blocks):
            yield self._bwd_ready[block.index]
            flops = block.bwd_flops + block.recompute_flops
            if critical > 0:
                # ZenFlow's importance-prioritized top-k: the critical
                # slice updates synchronously on the GPU, right after the
                # block's backward produced its gradient.
                flops += GPU_ADAM_FLOPS_PER_PARAM * critical * block.opt_params
            yield self.gpu.use(flops, _LABELS["bwd_b", block.index], self._gpu_eff)
            if self.schedule.sync_overhead_per_block > 0:
                yield self.sim.timeout(self.schedule.sync_overhead_per_block)
            self._bwd_window.release()
            if block.grad_bytes > 0:
                grads.append(self.sim.process(self._offload_grad(block)))
            else:
                self.grad_arrived[block.index].succeed()
        if grads:
            yield self.sim.all_of(grads)

    def _offload_grad(self, block: BlockTask):
        """Move one block's G16 to main memory; signals the optimizer."""
        yield self._g2m(block.grad_bytes, _LABELS["grad_b", block.index])
        self.grad_arrived[block.index].succeed()

    # -- optimizer -----------------------------------------------------------------

    def _spawn_active_optimizer(self) -> list[Event]:
        """Start the active-gradient-offloading handlers (Fig. 3)."""
        if self.schedule.optimizer_mode is OptimizerMode.ACTIVE_NAIVE:
            return [self.sim.process(self._optimizer_serial(wait_grads=True))]
        return self._spawn_pipelined_cpu_optimizer(wait_grads=True)

    def _spawn_deferred_optimizer(self) -> list[Event]:
        """Start the separate optimizer stage for deferred/decoupled modes."""
        mode = self.schedule.optimizer_mode
        if mode is OptimizerMode.DEFERRED_CPU:
            return self._spawn_pipelined_cpu_optimizer(wait_grads=False)
        if mode is OptimizerMode.DEFERRED_CPU_SERIAL:
            return [self.sim.process(self._optimizer_serial(wait_grads=False))]
        if mode is OptimizerMode.DEFERRED_GPU:
            return [self.sim.process(self._optimizer_gpu())]
        if mode in DECOUPLED_MODES:
            # The critical fraction already updated on the GPU during
            # backward; the decoupled CPU workers handle the rest.
            return self._spawn_pipelined_cpu_optimizer(
                wait_grads=False, scale=1.0 - self.schedule.critical_frac
            )
        raise ValueError(f"unexpected deferred optimizer mode {mode}")

    def _spawn_pipelined_cpu_optimizer(
        self, *, wait_grads: bool, scale: float = 1.0
    ) -> list[Event]:
        """Reader / CPU / writer workers over blocks in backward order.

        This is Fig. 3b: the SSD reads of block (i-1) overlap the CPU
        compute of block i, and the writes of block i overlap the CPU
        compute of block (i-1); a small window keeps the reader from
        racing arbitrarily far ahead (memory for in-flight states).
        """
        on_ssd = self.schedule.states_location is StatesLocation.SSD
        window = Semaphore(self.sim, STATE_READ_WINDOW)

        def reader():
            for block in reversed(self.schedule.blocks):
                if block.opt_params <= 0 or scale <= 0:
                    self.states_ready[block.index].succeed()
                    continue
                yield window.acquire()
                if on_ssd:
                    yield self._ssd_read(
                        scale * block.state_read_bytes, _LABELS["opt_read_b", block.index]
                    )
                self.states_ready[block.index].succeed()

        def cpu_worker():
            for block in reversed(self.schedule.blocks):
                if block.opt_params <= 0 or scale <= 0:
                    self.updated[block.index].succeed()
                    continue
                waits = [self.states_ready[block.index]]
                if wait_grads:
                    waits.append(self.grad_arrived[block.index])
                yield self.sim.all_of(waits)
                yield self.cpu_adam.use(
                    scale * block.opt_params, _LABELS["adam_b", block.index]
                )
                window.release()
                self.updated[block.index].succeed()

        def writer():
            for block in reversed(self.schedule.blocks):
                if block.opt_params <= 0 or scale <= 0:
                    continue
                yield self.updated[block.index]
                if on_ssd:
                    yield self._ssd_write(
                        scale * block.state_write_bytes, _LABELS["opt_write_b", block.index]
                    )

        return [
            self.sim.process(reader()),
            self.sim.process(cpu_worker()),
            self.sim.process(writer()),
        ]

    def _optimizer_serial(self, *, wait_grads: bool):
        """Fig. 3a: one handler serialising read -> compute -> write."""
        on_ssd = self.schedule.states_location is StatesLocation.SSD
        for block in reversed(self.schedule.blocks):
            if block.opt_params <= 0:
                continue
            if wait_grads:
                yield self.grad_arrived[block.index]
            if on_ssd:
                yield self._ssd_read(block.state_read_bytes, _LABELS["opt_read_b", block.index])
            yield self.cpu_adam.use(block.opt_params, _LABELS["adam_b", block.index])
            if on_ssd:
                yield self._ssd_write(block.state_write_bytes, _LABELS["opt_write_b", block.index])

    def _optimizer_gpu(self):
        """G10/FlashNeuron: Adam on the GPU, states streamed when offloaded.

        Per block: states travel SSD -> (main) -> GPU, the GPU updates,
        and the fresh states travel back.  Chunks pipeline because each
        leg is its own process chain; with GPU-resident states
        (FlashNeuron) only the compute remains.
        """
        resident = self.schedule.states_location is StatesLocation.GPU
        on_ssd = self.schedule.states_location is StatesLocation.SSD
        procs = []

        def per_block(block: BlockTask):
            if not resident:
                if on_ssd:
                    yield self._ssd_read(
                        block.state_read_bytes, _LABELS["opt_read_b", block.index]
                    )
                yield self._m2g(block.state_read_bytes, _LABELS["opt_in_b", block.index])
            yield self.gpu.use(
                GPU_ADAM_FLOPS_PER_PARAM * max(block.opt_params, self._resident_params(block)),
                _LABELS["opt_gpu_b", block.index],
                self._gpu_eff,
            )
            if not resident:
                yield self._g2m(block.state_write_bytes, _LABELS["opt_out_b", block.index])
                if on_ssd:
                    yield self._ssd_write(
                        block.state_write_bytes, _LABELS["opt_write_b", block.index]
                    )

        for block in reversed(self.schedule.blocks):
            if block.opt_params <= 0 and not resident:
                continue
            procs.append(self.sim.process(per_block(block)))
        if procs:
            yield self.sim.all_of(procs)

    def _resident_params(self, block: BlockTask) -> float:
        """Parameter count for GPU-resident optimizers (opt_params is 0 then)."""
        if self.schedule.states_location is StatesLocation.GPU:
            return self.schedule.model.n_params / self.schedule.n_blocks
        return 0.0
