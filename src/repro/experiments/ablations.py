"""Ablations over Ratel's design choices (beyond the paper's figures).

DESIGN.md calls out four calibrated/structural decisions; each gets a
sweep quantifying its effect:

* ``prefetch_depth``       — how far the parameter prefetcher runs ahead
  of compute (Ratel uses 3; ZeRO-family effectively 1).
* ``ssd_efficiency``       — the achieved fraction of the array's line
  rate (Ratel's io_uring-style engine ~1.0 vs DeepSpeed's aio ~0.5).
* ``optimizer window``     — how many blocks of model states the active
  optimizer keeps in flight in main memory: more window costs DRAM
  (shrinking the max trainable size) without helping steady-state
  throughput once the pipeline is full.
* ``GPU occupancy model``  — the saturating-kernel assumption behind the
  batch-size effects in Figs. 5/12.

The schedule knobs are exposed through :class:`_TunedRatel`, a policy
subclass whose public attributes participate in the runner's content
keys, so every ablation point is cached like any other sweep point.
"""

from __future__ import annotations

from dataclasses import replace

from repro.analysis.report import ExperimentResult
from repro.core import RatelPolicy
from repro.core.memory_model import ResourceNeeds, active_offload_main_overhead, gpu_working_set
from repro.hardware import GiB, evaluation_server
from repro.hardware.spec import gpu_occupancy
from repro.models import llm, profile_model
from repro.runner import SweepPoint

from .common import default_sweep, evaluate_grid, evaluate_point


class _TunedRatel(RatelPolicy):
    """Ratel with overridable schedule knobs (prefetch depth, SSD efficiency).

    A set knob shadows the class-level schedule constant as a public
    instance attribute, so two differently-tuned instances get distinct
    cache keys in the runner.
    """

    def __init__(
        self,
        *,
        prefetch_depth: int | None = None,
        ssd_efficiency: float | None = None,
    ) -> None:
        super().__init__("optimized")
        knobs = []
        if prefetch_depth is not None:
            self.prefetch_depth = prefetch_depth
            knobs.append(f"depth={prefetch_depth}")
        if ssd_efficiency is not None:
            self.ssd_efficiency = ssd_efficiency
            knobs.append(f"ssd_eff={ssd_efficiency}")
        self.name = f"Ratel({', '.join(knobs)})" if knobs else self.name


def run_prefetch_depth(batches=(8, 32)) -> ExperimentResult:
    """Iteration time vs prefetch depth (13B on the evaluation server)."""
    server = evaluation_server()
    config = llm("13B")
    depths = (1, 2, 3, 4, 6)
    result = ExperimentResult(
        experiment="ablation_prefetch",
        title="Ratel iteration time (s) vs parameter-prefetch depth, 13B",
        columns=["depth"] + [f"bsz={batch}" for batch in batches],
    )
    points = [
        SweepPoint.evaluate(
            _TunedRatel(prefetch_depth=depth),
            config,
            batch,
            server,
            simulate_infeasible=True,
        )
        for depth in depths
        for batch in batches
    ]
    outcomes = evaluate_grid(points)
    for row_index, depth in enumerate(depths):
        row = outcomes[row_index * len(batches) : (row_index + 1) * len(batches)]
        result.add_row(depth, *(o.iteration_time for o in row))
    result.note("deep prefetch hides fetch latency; returns diminish past ~3")
    return result


def run_ssd_efficiency() -> ExperimentResult:
    """Throughput vs achieved SSD efficiency (the I/O-engine choice)."""
    server = evaluation_server()
    config = llm("70B")
    result = ExperimentResult(
        experiment="ablation_ssd_eff",
        title="Ratel 70B throughput (token/s) vs achieved SSD efficiency",
        columns=["efficiency", "token/s"],
    )
    for efficiency in (0.4, 0.5, 0.7, 0.85, 1.0):
        outcome = evaluate_point(
            _TunedRatel(ssd_efficiency=efficiency),
            config,
            16,
            server,
            simulate_infeasible=True,
        )
        result.add_row(efficiency, outcome.tokens_per_s)
    result.note("DeepSpeed's aio path sits near 0.5; a full-rate engine nearly doubles 70B throughput")
    return result


def run_optimizer_window() -> ExperimentResult:
    """Max trainable size vs the active-offload state window (256 GB)."""
    server = evaluation_server(main_memory_bytes=256 * GiB)
    sweep = default_sweep()
    result = ExperimentResult(
        experiment="ablation_window",
        title="Max trainable size (B) vs in-flight state window, 256 GB DRAM",
        columns=["window_blocks", "max_size_B", "window_use_at_175B_GB"],
    )
    profile_175 = profile_model(llm("175B"), 1)
    for window in (2, 4, 7, 10, 14):
        policy = _WindowedRatel(window)
        best = sweep.max_trainable(policy, server) / 1e9
        overhead = active_offload_main_overhead(profile_175, window_blocks=window) / 1e9
        result.add_row(window, best, overhead)
    result.note("a deeper window buys pipeline slack but eats the DRAM that bounds model size")
    return result


def run_occupancy_model() -> ExperimentResult:
    """Achieved TFLOPS vs batch with and without the occupancy model.

    Uses the GPU-only Fast-DiT workload (0.67B DiT) where compute is the
    sole bottleneck — on offloaded LLM runs, transfers mask the effect at
    small batches.  Without the saturating-kernel model, a batch-2 run
    would implausibly sustain peak FLOPS, erasing the batch-size effects
    behind Figs. 5 and 12.
    """
    from repro.baselines import FastDiTPolicy
    from repro.models import dit

    server = evaluation_server()
    flat_gpu = replace(server.gpu, saturation_tokens=1e-9)
    flat_server = server.with_gpu(flat_gpu)
    policy = FastDiTPolicy()
    config = dit("0.67B")
    result = ExperimentResult(
        experiment="ablation_occupancy",
        title="Fast-DiT 0.67B achieved TFLOPS: saturating-kernel model vs flat peak",
        columns=["batch", "with occupancy", "flat peak", "occupancy"],
    )
    for batch in (1, 2, 4, 8):
        profile = profile_model(config, batch)
        with_occ = evaluate_point(
            policy, config, batch, server, simulate_infeasible=True
        ).achieved_tflops
        without = evaluate_point(
            policy, config, batch, flat_server, simulate_infeasible=True
        ).achieved_tflops
        occ = gpu_occupancy(profile.tokens_per_iteration, server.gpu.saturation_tokens)
        result.add_row(batch, with_occ, without, occ)
    result.note("without the occupancy model, tiny batches would implausibly hit peak FLOPS")
    return result


class _WindowedRatel(RatelPolicy):
    """Ratel with a configurable active-offload state window."""

    def __init__(self, window_blocks: int) -> None:
        super().__init__("optimized")
        self.window_blocks = window_blocks
        self.name = f"Ratel(w={window_blocks})"

    def needs_for_split(self, profile, to_main, to_ssd):
        overhead = active_offload_main_overhead(
            profile, window_blocks=self.window_blocks
        )
        return ResourceNeeds(
            gpu_bytes=gpu_working_set(profile),
            main_bytes=overhead + to_main,
            ssd_bytes=profile.states.total + to_ssd,
        )


def run() -> list[ExperimentResult]:
    """All four ablations."""
    return [
        run_prefetch_depth(),
        run_ssd_efficiency(),
        run_optimizer_window(),
        run_occupancy_model(),
    ]
