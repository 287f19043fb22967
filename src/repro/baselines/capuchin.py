"""Capuchin activation management grafted onto Ratel ("Ratel+Cap", §V-E).

Capuchin (ASPLOS'20) decides swap-vs-recompute per tensor by profiling
swap time against recompute time, but its cost model predates holistic
offloading: it sees only the GPU compute of backward propagation and the
GPU<->main-memory PCIe link, assuming gradients/parameters/model states
never move.  When model states *do* stream over the same links (as they
must for a 70B model), Capuchin's plan overcommits the PCIe budget and
underuses the SSDs — exactly the gap Fig. 9a shows.

Implementation: Algorithm-1-style benefit-ordered search, but the
objective is Capuchin's partial view (GPU compute vs activation PCIe
transfers only), and the destination is main memory exclusively.
"""

from __future__ import annotations

from repro.hardware.spec import ServerSpec
from repro.models.profile import ModelProfile

from repro.core.hwprofile import profile_hardware
from repro.core.memory_model import active_offload_main_overhead
from repro.core.policy import SplitPolicy


class CapuchinPolicy(SplitPolicy):
    """Ratel's engine driven by Capuchin's swap/recompute decisions."""

    name = "Ratel+Cap"

    def supported_on(self, server: ServerSpec) -> bool:
        """Model states still live on the SSD array (70B+ models)."""
        return server.n_ssds >= 1

    def plan_swap_bytes(self, profile: ModelProfile, server: ServerSpec) -> float:
        """Capuchin's chosen A_G2M: maximize hidden swaps, main-memory only.

        Sweeps the benefit-ordered segments minimizing Capuchin's partial
        objective ``max(T_gpu_bwd(A), T_pcie(A))`` — no SSD, no optimizer
        traffic in view — then clamps to what main memory can hold.
        """
        hw = profile_hardware(server, main_memory_overhead=active_offload_main_overhead(profile))
        floor = profile.inter_block_bytes
        best_a, best_t = floor, float("inf")
        a = 0.0
        for segment in profile.segments_by_benefit():
            a += segment.nbytes
            if a < floor:
                continue
            gpu_time = (
                profile.backward_flops + profile.recompute_flops_for(a)
            ) / hw.thp_gpu
            pcie_time = (profile.states.p16 + a) / hw.bw_gpu
            objective = max(gpu_time, pcie_time)
            if objective < best_t:
                best_t = objective
                best_a = a
        return min(best_a, max(floor, hw.mem_avail_main))

    def activation_split(
        self, profile: ModelProfile, server: ServerSpec
    ) -> tuple[float, float, float]:
        a_g2m = self.plan_swap_bytes(profile, server)
        return a_g2m, 0.0, profile.recompute_flops_for(a_g2m)
