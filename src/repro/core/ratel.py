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
from .memory_model import ResourceNeeds, active_offload_main_overhead
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

    def needs_bounds(
        self, profile: ModelProfile, server: ServerSpec
    ) -> tuple[ResourceNeeds, ResourceNeeds] | None:
        """The needs at ``A_G2M = A_interBlock`` and at ``A_G2M = A_all``.

        Each extreme is split as the plan's own ``A_G2M`` is
        (:meth:`IterationTimeModel.a_to_ssd`) and priced by
        :meth:`needs_for_split`.  Every plan's needs lie between the two,
        tier by tier:

        1. *The plan's* ``A_G2M`` *lies in* ``[A_interBlock, A_all]``.
           Algorithm 1 chooses ``max(a_g2m[best], A_interBlock)``, where
           ``a_g2m`` holds the byte prefix sums of the benefit order.
           Segment sizes are products of integer dimensions, so while
           ``A_all < 2**53`` every prefix sum is exact and the last one
           is ``A_all`` itself.
        2. *The split fills main memory first.*  With ``m`` the
           activation budget ``MEM^avail_M``, the SSD part is
           ``max(0, a - m)`` and the main part ``a - max(0, a - m)``.
           When ``a`` and ``m`` are integers below ``2**53`` both
           subtractions are exact, so the parts are ``max(0, a - m)``
           and ``min(a, m)``, each non-decreasing in ``a``.  The
           ``cpuact`` variant has ``m = inf``: nothing spills and the
           main part is ``a``.
        3. *Every* :meth:`needs_for_split` *is monotone in both parts.*
           Ratel's adds a constant to each part (the pipeline overhead
           to the main part, the model states to the SSD part); ZenFlow
           and GreedySnake add 2 B/param of host gradients to the main
           part, and the window ablation swaps in its own overhead.  A
           rounded sum with a constant is non-decreasing in the other
           term, and the GPU need does not depend on the split.

        So a fitting upper bound means the plan fits, and a failing
        lower bound means it does not (``fits`` compares each tier with
        ``<=``).  The verdict has to be exact, not within a tolerance:
        once activations spill, Ratel's main-memory need is usable DRAM
        to the byte (30B at batch 32 on a 4090 with 128 GiB leaves
        0.0 B of slack, for the plan and for the upper bound alike).
        Hence the integer conditions are checked here rather than
        assumed: ``m`` comes from the server's DRAM, which is fractional
        on some data-parallel per-GPU views (``per_gpu_view`` divides it
        by the GPU count), and then this returns ``None`` and the probe
        plans.
        """
        model = IterationTimeModel(profile, self.hardware_profile(profile, server))
        budget = model.hardware.mem_avail_main
        total = profile.activation_bytes_total
        sizes = [seg.nbytes for seg in profile.block.segments]
        if not _whole_bytes(total, profile.embedding_activation_bytes, *sizes):
            return None
        if budget != float("inf") and not _whole_bytes(budget):
            return None

        def needs_at(a_g2m: float) -> ResourceNeeds:
            to_ssd = model.a_to_ssd(a_g2m)
            return self.needs_for_split(profile, a_g2m - to_ssd, to_ssd)

        return needs_at(profile.inter_block_bytes), needs_at(total)


def _whole_bytes(*values: float) -> bool:
    """Whether each value is an integer that a float64 holds exactly."""
    return all(0 <= value < 2**53 and float(value).is_integer() for value in values)
