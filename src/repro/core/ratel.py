"""The Ratel policy and its ablation variants (paper §IV, §V-D/E).

Variants map onto the paper's ablation bars:

* ``optimized`` — full Ratel: Algorithm-1 activation plan with SSD
  overflow, optimized active gradient offloading (Fig. 3b).
* ``naive``     — same plan, serialized gradient handlers (Fig. 3a).
* ``zero``      — "Ratel+ZeRO": same plan, but the optimizer runs as a
  separate stage after backward, like ZeRO-Infinity.
* ``cpuact``    — "Ratel+CpuAct": activations swap only to main memory;
  the optimizer is still actively offloaded.
"""

from __future__ import annotations

from dataclasses import replace

from repro.hardware.spec import ServerSpec
from repro.models.profile import ModelProfile

from .activation_swap import SwapPlan, plan_activation_swapping
from .hwprofile import HardwareProfile, profile_hardware
from .iteration_model import IterationTimeModel
from .memory_model import active_offload_main_overhead
from .policy import SplitPolicy
from .schedule import OptimizerMode

_VARIANT_NAMES = {
    "optimized": "Ratel",
    "naive": "Ratel Naive",
    "zero": "Ratel+ZeRO",
    "cpuact": "Ratel+CpuAct",
}

_VARIANT_OPTIMIZER = {
    "optimized": OptimizerMode.ACTIVE_OPTIMIZED,
    "naive": OptimizerMode.ACTIVE_NAIVE,
    "zero": OptimizerMode.DEFERRED_CPU,
    "cpuact": OptimizerMode.ACTIVE_OPTIMIZED,
}


class RatelPolicy(SplitPolicy):
    """Holistic data-movement management on a single consumer GPU."""

    def __init__(self, variant: str = "optimized") -> None:
        if variant not in _VARIANT_NAMES:
            raise ValueError(
                f"unknown Ratel variant {variant!r}; choose from {sorted(_VARIANT_NAMES)}"
            )
        self.variant = variant
        self.name = _VARIANT_NAMES[variant]
        #: Memoized Algorithm-1 plans keyed by (config, batch, server).
        #: ``evaluate()`` consults the plan for feasibility, the schedule
        #: and the outcome summary; without this memo each point would
        #: re-run the planner three times.
        self._plan_cache: dict = {}

    @property
    def optimizer_mode(self) -> OptimizerMode:
        """How this variant runs the optimizer (active offloading by default)."""
        return _VARIANT_OPTIMIZER[self.variant]

    def supported_on(self, server: ServerSpec) -> bool:
        """Ratel offloads model states to NVMe, so it needs an SSD array."""
        return server.n_ssds >= 1

    # -- planning ------------------------------------------------------------

    def hardware_profile(self, profile: ModelProfile, server: ServerSpec) -> HardwareProfile:
        """§IV-B profiling output, minus this policy's own main-memory use."""
        overhead = active_offload_main_overhead(profile)
        hw = profile_hardware(server, main_memory_overhead=overhead)
        if self.variant == "cpuact":
            # Activations never continue to SSD: the planner sees an
            # unbounded main-memory activation budget and the capacity
            # check later enforces that the chosen amount actually fits.
            hw = replace(hw, mem_avail_main=float("inf"))
        return hw

    def plan(self, profile: ModelProfile, server: ServerSpec) -> SwapPlan:
        """Run the holistic activation-swapping manager (Algorithm 1).

        Plans are memoized per (model config, batch, server): the planner
        is deterministic in those inputs, and one evaluation point asks
        for its plan from ``memory_needs``, ``compile`` and the outcome
        summary alike.
        """
        key = (profile.config, profile.batch_size, server)
        cached = self._plan_cache.get(key)
        if cached is not None:
            return cached
        model = IterationTimeModel(profile, self.hardware_profile(profile, server))
        plan = plan_activation_swapping(model)
        if len(self._plan_cache) >= 128:  # bound the per-instance memo
            self._plan_cache.pop(next(iter(self._plan_cache)))
        self._plan_cache[key] = plan
        return plan

    def activation_split(
        self, profile: ModelProfile, server: ServerSpec
    ) -> tuple[float, float, float]:
        """Algorithm 1's main/SSD split and the recomputation it leaves."""
        plan = self.plan(profile, server)
        return plan.a_to_main, plan.a_to_ssd, plan.estimate.recompute_flops
