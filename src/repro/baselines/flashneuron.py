"""FlashNeuron baseline (paper §III-A).

FlashNeuron offloads *only activations* to NVMe SSDs and keeps every
model state (16 bytes/param) in GPU memory, with the optimizer running
on-GPU.  That makes it fast for models that fit — no parameter or
optimizer traffic at all — but caps the trainable size around 1.5B
parameters on a 24 GB card, which is why the paper's prototype "even
fails to fine-tune a 6B model".

The paper's prototype replaces GPUDirect with the POSIX file API
(activations bounce through main memory), which is what our schedule
does too: activation swaps cross the GPU<->host link and then the SSD
array.
"""

from __future__ import annotations

from repro.hardware.spec import ServerSpec
from repro.hardware.units import GB
from repro.models.profile import ModelProfile

from repro.core.memory_model import ResourceNeeds, gpu_working_set
from repro.core.policy import SplitPolicy
from repro.core.schedule import OptimizerMode, StatesLocation

#: Host-side staging for the POSIX-path activation bounce buffers.
STAGING_BYTES = 4 * GB


class FlashNeuronPolicy(SplitPolicy):
    """Activations to SSD, model states resident on the GPU."""

    name = "FlashNeuron"
    states_location = StatesLocation.GPU
    optimizer_mode = OptimizerMode.DEFERRED_GPU
    prefetch_depth = 2

    def supported_on(self, server: ServerSpec) -> bool:
        """Needs an SSD array for the activations."""
        return server.n_ssds >= 1

    def memory_needs(self, profile: ModelProfile, server: ServerSpec) -> ResourceNeeds:
        return ResourceNeeds(
            gpu_bytes=gpu_working_set(profile, states_resident=True),
            main_bytes=STAGING_BYTES,
            ssd_bytes=profile.activation_bytes_total,
        )

    def activation_split(
        self, profile: ModelProfile, server: ServerSpec
    ) -> tuple[float, float, float]:
        # All activations stream to the SSDs; nothing is recomputed.
        return 0.0, profile.activation_bytes_total, 0.0
