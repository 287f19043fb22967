"""Fast-DiT baseline (paper §V-H, Fig. 12).

Fast-DiT is the state-of-the-art open-source trainer for DiT diffusion
models.  It keeps parameters, optimizer states *and* activations in GPU
memory — no offloading, no recomputation — which makes it quick for the
sizes it fits but out-of-memory beyond ~1.4B parameters on a 24 GB card,
and forces tiny batch sizes as the model grows (the paper's two Fig. 12
observations).
"""

from __future__ import annotations

from repro.hardware.spec import ServerSpec
from repro.hardware.units import GB
from repro.models.profile import ModelProfile

from repro.core.memory_model import ResourceNeeds
from repro.core.policy import SplitPolicy
from repro.core.schedule import OptimizerMode, StatesLocation

#: cuDNN/cuBLAS workspaces and the training loop's transient buffers.
WORKSPACE_BYTES = 1 * GB


class FastDiTPolicy(SplitPolicy):
    """Everything-in-GPU DiT training."""

    name = "Fast-DiT"
    states_location = StatesLocation.GPU
    optimizer_mode = OptimizerMode.DEFERRED_GPU
    prefetch_depth = 1

    def memory_needs(self, profile: ModelProfile, server: ServerSpec) -> ResourceNeeds:
        gpu = (
            profile.states.total
            + profile.activation_bytes_total
            + WORKSPACE_BYTES
        )
        return ResourceNeeds(gpu_bytes=gpu, main_bytes=0.0, ssd_bytes=0.0)

    def activation_split(
        self, profile: ModelProfile, server: ServerSpec
    ) -> tuple[float, float, float]:
        return 0.0, 0.0, 0.0
