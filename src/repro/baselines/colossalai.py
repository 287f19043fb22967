"""Colossal-AI (Gemini memory manager) baseline (paper §III-B, §V-A).

As evaluated by the paper (Colossal-AI 0.3.5 with Gemini):

* inter-block activations stay in *GPU* memory (not offloaded at all),
  intra-block activations are recomputed;
* model states are chunk-managed across main memory and NVMe;
* the optimizer stage is poorly pipelined on NVMe — the paper measures
  only 12% GPU busy time, against ZeRO-Infinity's 36% — which we model
  as a serial (non-pipelined) chunked optimizer plus a larger per-block
  synchronisation bubble from Gemini's chunk state machine.
"""

from __future__ import annotations

from repro.hardware.spec import ServerSpec
from repro.models.profile import ModelProfile

from repro.core.memory_model import (
    COLOSSAL_HOST_BYTES_PER_PARAM,
    PINNED_BASE_BYTES,
    ResourceNeeds,
    gpu_working_set,
)
from repro.core.policy import SplitPolicy
from repro.core.schedule import OptimizerMode


class ColossalAIPolicy(SplitPolicy):
    """Colossal-AI with the Gemini chunk manager on NVMe."""

    name = "Colossal-AI"
    optimizer_mode = OptimizerMode.DEFERRED_CPU_SERIAL
    prefetch_depth = 1
    sync_overhead_per_block = 0.45
    ssd_efficiency = 0.4
    pcie_efficiency = 0.6

    def supported_on(self, server: ServerSpec) -> bool:
        """Gemini's NVMe tier needs an SSD array."""
        return server.n_ssds >= 1

    def memory_needs(self, profile: ModelProfile, server: ServerSpec) -> ResourceNeeds:
        return ResourceNeeds(
            gpu_bytes=gpu_working_set(profile, inter_block_resident=True),
            main_bytes=PINNED_BASE_BYTES
            + COLOSSAL_HOST_BYTES_PER_PARAM * profile.n_params,
            ssd_bytes=profile.states.total,
        )

    def activation_split(
        self, profile: ModelProfile, server: ServerSpec
    ) -> tuple[float, float, float]:
        # Checkpoints never leave the GPU: nothing is swapped, everything
        # intra-block is recomputed.
        return 0.0, 0.0, profile.recompute_flops_for(profile.inter_block_bytes)
