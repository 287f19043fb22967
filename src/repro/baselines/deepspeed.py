"""DeepSpeed baselines: ZeRO-Infinity and ZeRO-Offload (paper §III-B, §V).

Both systems, as evaluated by the paper (DeepSpeed 0.9.3, one-step
delayed update disabled):

* swap only the inter-transformer-block activations to main memory and
  recompute every intra-block activation;
* run the CPU Adam as a *separate* stage after backward (no overlap with
  GPU compute);
* fetch parameters block-by-block with shallow prefetch and noticeable
  per-block synchronisation (the all-gather/release protocol), which the
  paper's Fig. 1a shows as 14 s of forward for 5.3 s of GPU compute.

ZeRO-Infinity keeps model states on NVMe; ZeRO-Offload keeps them in
main memory (and therefore needs ~16 bytes/param of DRAM but no SSDs).

Calibrated constants (documented in DESIGN.md §4/§5):

* ``sync_overhead_per_block`` = 0.21 s reproduces the Fig. 1a stage
  stretch (forward 14 s, backward 26 s for 13B/bs32 on the 4090);
* ZeRO-Infinity's ``ssd_efficiency`` = 0.5: DeepSpeed's aio engine
  sustains about half the array's line rate, which yields the 23 s
  optimizer stage.
"""

from __future__ import annotations

from repro.hardware.spec import ServerSpec
from repro.models.profile import ModelProfile

from repro.core.memory_model import (
    PINNED_BASE_BYTES,
    ZERO_INFINITY_HOST_BYTES_PER_PARAM,
    ResourceNeeds,
    gpu_working_set,
)
from repro.core.policy import SplitPolicy
from repro.core.schedule import OptimizerMode, StatesLocation


class _ZeroFamily(SplitPolicy):
    """The ZeRO-family static activation plan: boundaries to host, rest recomputed."""

    optimizer_mode = OptimizerMode.DEFERRED_CPU
    prefetch_depth = 1
    sync_overhead_per_block = 0.21
    pcie_efficiency = 0.8

    def activation_split(
        self, profile: ModelProfile, server: ServerSpec
    ) -> tuple[float, float, float]:
        boundaries = profile.inter_block_bytes
        return boundaries, 0.0, profile.recompute_flops_for(boundaries)


class ZeroInfinityPolicy(_ZeroFamily):
    """ZeRO-Infinity: model states on NVMe, optimizer as a serial stage."""

    name = "ZeRO-Infinity"
    ssd_efficiency = 0.5

    def supported_on(self, server: ServerSpec) -> bool:
        """Needs an SSD array for the model states."""
        return server.n_ssds >= 1

    def memory_needs(self, profile: ModelProfile, server: ServerSpec) -> ResourceNeeds:
        host = (
            PINNED_BASE_BYTES
            + ZERO_INFINITY_HOST_BYTES_PER_PARAM * profile.n_params
            + profile.inter_block_bytes
        )
        return ResourceNeeds(
            gpu_bytes=gpu_working_set(profile),
            main_bytes=host,
            ssd_bytes=profile.states.total,
        )


class ZeroOffloadPolicy(_ZeroFamily):
    """ZeRO-Offload: model states in main memory; no SSD involvement."""

    name = "ZeRO-Offload"
    states_location = StatesLocation.MAIN

    def memory_needs(self, profile: ModelProfile, server: ServerSpec) -> ResourceNeeds:
        host = (
            PINNED_BASE_BYTES
            + profile.states.total  # all 16 bytes/param live in DRAM
            + profile.inter_block_bytes
        )
        return ResourceNeeds(
            gpu_bytes=gpu_working_set(profile),
            main_bytes=host,
            ssd_bytes=0.0,
        )
