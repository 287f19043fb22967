"""G10 baseline (paper §III-C).

G10 unifies main memory and NVMe into one tensor pool and migrates both
model states and activations there, relying on GPUDirect Storage.  Its
three issues, all visible in our schedule:

1. the Adam optimizer runs on the *GPU*, so every step streams 12 + 14
   bytes/param of model states across PCIe and the SSD array while the
   GPU idles (Fig. 1b: 0.1 s of compute waiting on 13 s of transfer);
2. it offloads (almost) all activations without recomputation — ~213 GB
   for the 13B/bs32 workload — throttling the forward stage;
3. GPUDirect does not exist on consumer GPUs, so the real system cannot
   run there at all.  The paper *simulates* G10 on the 4090 assuming
   GPUDirect and perfect pipelining; ``assume_gpudirect=True`` mirrors
   that setup.
"""

from __future__ import annotations

from repro.hardware.spec import ServerSpec
from repro.hardware.units import GB
from repro.models.profile import ModelProfile

from repro.core.hwprofile import profile_hardware
from repro.core.memory_model import (
    ResourceNeeds,
    active_offload_main_overhead,
    gpu_working_set,
)
from repro.core.policy import SplitPolicy
from repro.core.schedule import OptimizerMode

#: Host pool bookkeeping for the unified-memory runtime.
POOL_BASE_BYTES = 8 * GB


class G10ActivationPolicy(SplitPolicy):
    """"Ratel+G10" (§V-E): G10's activation plan on Ratel's state engine.

    G10 ranks tensors by inactive time; on a transformer chain, every
    activation's inactive period spans the rest of forward plus most of
    backward, so effectively *all* activations migrate (main memory
    first, SSD overflow) and nothing is recomputed.  Model states stay on
    SSD with Ratel's active gradient offloading, which is what the
    paper's ablation holds fixed.
    """

    name = "Ratel+G10"

    def supported_on(self, server: ServerSpec) -> bool:
        """Model states and activation overflow live on the SSD array."""
        return server.n_ssds >= 1

    def activation_split(
        self, profile: ModelProfile, server: ServerSpec
    ) -> tuple[float, float, float]:
        hw = profile_hardware(server, main_memory_overhead=active_offload_main_overhead(profile))
        to_main = min(profile.activation_bytes_total, hw.mem_avail_main)
        return to_main, profile.activation_bytes_total - to_main, 0.0


class G10Policy(SplitPolicy):
    """Unified main/NVMe tensor pool with a GPU-resident optimizer."""

    name = "G10"
    optimizer_mode = OptimizerMode.DEFERRED_GPU
    use_gpudirect = True

    def __init__(self, assume_gpudirect: bool = False) -> None:
        self.assume_gpudirect = assume_gpudirect

    def supported_on(self, server: ServerSpec) -> bool:
        """Requires GPUDirect (or the paper's simulation assumption) + SSDs."""
        if server.n_ssds < 1:
            return False
        return server.gpu.supports_gpudirect or self.assume_gpudirect

    def activation_split(
        self, profile: ModelProfile, server: ServerSpec
    ) -> tuple[float, float, float]:
        """All activations offload; main memory first, SSD overflow, no recompute."""
        hw = profile_hardware(server, main_memory_overhead=POOL_BASE_BYTES)
        to_main = min(profile.activation_bytes_total, hw.mem_avail_main)
        return to_main, profile.activation_bytes_total - to_main, 0.0

    def needs_for_split(
        self, profile: ModelProfile, to_main: float, to_ssd: float
    ) -> ResourceNeeds:
        return ResourceNeeds(
            gpu_bytes=gpu_working_set(profile),
            main_bytes=POOL_BASE_BYTES + to_main,
            ssd_bytes=profile.states.total + to_ssd,
        )
