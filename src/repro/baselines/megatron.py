"""Megatron-LM on a DGX-A100 (paper §V-I, Fig. 13).

Megatron-LM shards each layer across the 8 NVLink-connected A100s with
tensor parallelism and keeps everything in device memory — no offloading
at all.  Per-GPU memory must hold 1/8 of the model states plus the
activations of its shard, which caps the DGX at the 30B model (the
largest the paper fine-tunes with it).

Simulation: tensor parallelism makes the 8 GPUs act as one device with
aggregated FLOPs discounted by a parallel efficiency (all-reduce after
every attention/MLP, kernel-shape inefficiency).  We therefore compile a
GPU-resident schedule and run it on a synthesized single-"GPU" server
whose device aggregates the eight A100s; the efficiency constant is
calibrated so a 30B fine-tune lands near the paper's implied ~5000
tokens/s (Fig. 13's ~25 token/s per $1k at a $200k server).
"""

from __future__ import annotations

from dataclasses import replace

from repro.hardware.spec import GPUSpec, ServerSpec
from repro.hardware.units import GB
from repro.models.profile import ModelProfile

from repro.core.engine import IterationResult, run_iteration
from repro.core.memory_model import ACT_LIVE_FRACTION, ResourceNeeds
from repro.core.policy import SplitPolicy
from repro.core.schedule import OptimizerMode, StatesLocation

#: Fraction of aggregate peak FLOPs tensor parallelism sustains (MFU
#: including all-reduce stalls), calibrated against Fig. 13.
TP_EFFICIENCY = 0.42


class MegatronPolicy(SplitPolicy):
    """Tensor-parallel in-memory training across one server's GPUs."""

    name = "Megatron-LM"
    states_location = StatesLocation.GPU
    optimizer_mode = OptimizerMode.DEFERRED_GPU
    prefetch_depth = 1

    def __init__(self, tp_efficiency: float = TP_EFFICIENCY) -> None:
        if not 0 < tp_efficiency <= 1:
            raise ValueError(f"tp_efficiency must be in (0, 1], got {tp_efficiency}")
        self.tp_efficiency = tp_efficiency

    def memory_needs(self, profile: ModelProfile, server: ServerSpec) -> ResourceNeeds:
        """Per-GPU bytes: a 1/n shard of states + activations, no host use.

        Megatron recomputes intra-block activations (selective
        checkpointing), so the resident set is the sharded model states,
        the sharded checkpoints, and one block's live activations.
        """
        n = server.n_gpus
        shard = (
            profile.states.total
            + profile.inter_block_bytes
            + ACT_LIVE_FRACTION * profile.block.activation_bytes
        ) / n
        return ResourceNeeds(gpu_bytes=shard, main_bytes=0.0, ssd_bytes=0.0)

    def activation_split(
        self, profile: ModelProfile, server: ServerSpec
    ) -> tuple[float, float, float]:
        return 0.0, 0.0, profile.recompute_flops_for(profile.inter_block_bytes)

    def aggregate_server(self, server: ServerSpec) -> ServerSpec:
        """Fold the server's GPUs into one tensor-parallel virtual device."""
        gpu = server.gpu
        virtual = GPUSpec(
            name=f"{server.n_gpus}x {gpu.name} (tensor parallel)",
            memory_bytes=server.n_gpus * gpu.memory_bytes,
            peak_fp16_flops=server.n_gpus * gpu.peak_fp16_flops * self.tp_efficiency,
            price_usd=server.n_gpus * gpu.price_usd,
            supports_gpudirect=gpu.supports_gpudirect,
            reserved_bytes=server.n_gpus * 1.5 * GB,
        )
        return replace(server, gpu=virtual, n_gpus=1)

    def simulate(
        self, profile: ModelProfile, server: ServerSpec, *, check: bool = True
    ) -> IterationResult:
        """Run on the aggregated tensor-parallel device."""
        if check:
            self.require_feasible(profile, server)
        aggregate = self.aggregate_server(server)
        return run_iteration(aggregate, self.compile(profile, aggregate))
