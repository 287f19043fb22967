"""Checkmate activation management grafted onto Ratel ("Ratel+CM", §V-E).

Checkmate (MLSys'20) computes the cost-optimal rematerialization/offload
plan with a MILP over the computation graph, minimizing recomputation
under a memory budget.  Two consequences when used for 70B-scale
offloaded fine-tuning:

* its objective is *compute*, so it swaps as much as the main-memory
  budget allows (swapping is "free" in its cost model relative to
  recompute) and never uses the SSDs — it was designed assuming the rest
  of training state stays on the GPU;
* when the budget cannot even hold the inter-block checkpoints the MILP
  is infeasible and the system fails outright, which the paper's Table V
  reports as "Failed" at 128 GB.

We solve Checkmate's optimization exactly: on a homogeneous chain of
transformer blocks, the MILP's optimum is the benefit-ordered greedy
prefix that fills the memory budget (the LP matroid structure makes
greedy optimal for this family), so no MILP solver is required offline.
"""

from __future__ import annotations

from repro.hardware.spec import ServerSpec
from repro.models.profile import ModelProfile

from repro.core.hwprofile import profile_hardware
from repro.core.memory_model import active_offload_main_overhead
from repro.core.policy import SplitPolicy


#: Minimum main-memory activation budget under which the MILP at
#: 70B-scale (hundreds of blocks x segments of variables) fails to
#: produce a plan — the paper's Table V reports "Failed" for Ratel+CM on
#: the 128 GB configuration, where the budget left after the model-state
#: window is below this.
MIN_SOLVER_BUDGET_BYTES = 24e9


class CheckmatePolicy(SplitPolicy):
    """Ratel's engine driven by Checkmate's MILP-optimal offload plan."""

    name = "Ratel+CM"

    def supported_on(self, server: ServerSpec) -> bool:
        """Model states still live on the SSD array (70B+ models)."""
        return server.n_ssds >= 1

    def plan_swap_bytes(self, profile: ModelProfile, server: ServerSpec) -> float:
        """Checkmate's A_G2M: fill the main-memory budget, minimize recompute.

        Returns the swapped byte count; raises nothing here — an
        inadequate budget (< inter-block floor) surfaces as an infeasible
        :meth:`memory_needs`, the planner's "Failed" case.
        """
        hw = profile_hardware(server, main_memory_overhead=active_offload_main_overhead(profile))
        floor = profile.inter_block_bytes
        budget = hw.mem_avail_main
        if budget < max(floor, MIN_SOLVER_BUDGET_BYTES):
            # MILP infeasible (checkpoints do not fit, or the budget is
            # below the solver's working minimum).  Report an amount that
            # cannot fit so memory_needs exceeds the server and the
            # capacity planner records the failure.
            return max(floor, MIN_SOLVER_BUDGET_BYTES)
        return min(profile.activation_bytes_total, budget)

    def activation_split(
        self, profile: ModelProfile, server: ServerSpec
    ) -> tuple[float, float, float]:
        a_g2m = self.plan_swap_bytes(profile, server)
        return a_g2m, 0.0, profile.recompute_flops_for(a_g2m)
