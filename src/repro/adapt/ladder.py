"""The graceful-degradation ladder (tentpole part 2, ISSUE 5).

When drift makes the replanned Algorithm-1 optimum infeasible — or the
fresh plan still misses its deadline — the controller walks a ladder of
increasingly conservative *rungs*, each trading throughput for a smaller
resource footprint:

====  ===============  ====================================================
rung  name             what it gives up
====  ===============  ====================================================
0     planned          nothing: the Algorithm-1 optimum on current rates
1     recompute        swap only ``A_interBlock``, recompute the rest
2     spill            rung 1, but half the swap set continues to SSD
3     microbatch       rung 0 at half the micro-batch
4     sync_optimizer   rung 3 with the optimizer as a separate CPU stage
====  ===============  ====================================================

Every rung compiles to a full :class:`~repro.core.schedule.IterationSchedule`
through :meth:`RatelPolicy.schedule_for <repro.core.policy.SplitPolicy.schedule_for>`,
so a swapped-in plan is indistinguishable from a planned-from-scratch one
to the sim engine and the runtime.  Rung comparisons use
seconds-per-*token*, not raw iteration time, so the micro-batch rungs
stay commensurable with the full-batch ones.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

from repro.hardware.spec import ServerSpec
from repro.models.profile import ModelProfile, profile_model

from repro.core.activation_swap import plan_activation_swapping
from repro.core.hwprofile import HardwareProfile
from repro.core.iteration_model import IterationEstimate, IterationTimeModel
from repro.core.policy import ratel_needs
from repro.core.ratel import RatelPolicy
from repro.core.schedule import IterationSchedule, OptimizerMode

from .health import AdaptError


@dataclass(frozen=True)
class LadderRung:
    """One step of the degradation ladder.

    ``floor_swap`` pins ``A_G2M`` to the ``A_interBlock`` floor (maximum
    recomputation) instead of running Algorithm 1; ``ssd_spill_share``
    forces that fraction of the swap set past main memory onto the SSD
    array (shrinking the activation budget the planner sees);
    ``batch_scale`` multiplies the micro-batch; ``optimizer_mode``
    overrides active gradient offloading (``None`` keeps it).
    """

    name: str
    description: str
    floor_swap: bool = False
    ssd_spill_share: float | None = None
    batch_scale: float = 1.0
    optimizer_mode: OptimizerMode | None = None

    def __post_init__(self) -> None:
        if not 0 < self.batch_scale <= 1:
            raise AdaptError(f"batch_scale must be in (0, 1], got {self.batch_scale}")
        if self.ssd_spill_share is not None and not 0 <= self.ssd_spill_share < 1:
            raise AdaptError(
                f"ssd_spill_share must be in [0, 1), got {self.ssd_spill_share}"
            )


DEFAULT_LADDER: tuple[LadderRung, ...] = (
    LadderRung("planned", "Algorithm-1 optimum on current rates"),
    LadderRung("recompute", "swap only A_interBlock, recompute the rest", floor_swap=True),
    LadderRung(
        "spill",
        "floor swap with half the set pushed to SSD",
        floor_swap=True,
        ssd_spill_share=0.5,
    ),
    LadderRung("microbatch", "Algorithm-1 plan at half micro-batch", batch_scale=0.5),
    LadderRung(
        "sync_optimizer",
        "half micro-batch, optimizer as a separate CPU stage",
        batch_scale=0.5,
        optimizer_mode=OptimizerMode.DEFERRED_CPU,
    ),
)


@dataclass(frozen=True)
class RungPlan:
    """A rung compiled against one hardware profile: plan + schedule."""

    rung: LadderRung
    profile: ModelProfile
    hardware: HardwareProfile
    a_g2m: float
    estimate: IterationEstimate
    schedule: IterationSchedule

    @property
    def seconds_per_token(self) -> float:
        """Predicted iteration seconds per token — the ladder's metric."""
        return self.estimate.total / self.profile.tokens_per_iteration

    @property
    def a_to_main(self) -> float:
        """Swapped bytes that main memory absorbs."""
        return self.a_g2m - self.estimate.a_to_ssd

    @property
    def a_to_ssd(self) -> float:
        """Swapped bytes overflowing to the SSD array."""
        return self.estimate.a_to_ssd


def compile_rung(
    rung: LadderRung,
    profile: ModelProfile,
    hardware: HardwareProfile,
    *,
    name: str = "Ratel",
) -> RungPlan:
    """Compile one ladder rung into a runnable schedule.

    Ratel's schedule for the split the rung's knobs pick: the micro-batch
    is rescaled first, then ``A_G2M`` comes from the floor or from
    Algorithm 1, then an explicit spill share shrinks ``mem_avail_main``
    so the overflow lands on the SSD array.
    """
    if rung.batch_scale != 1.0:
        batch = max(1, round(profile.batch_size * rung.batch_scale))
        profile = profile_model(profile.config, batch)

    model = IterationTimeModel(profile, hardware)
    if rung.floor_swap:
        a_g2m = profile.inter_block_bytes
    else:
        a_g2m = plan_activation_swapping(model).a_g2m

    if rung.ssd_spill_share is not None:
        budget = min(hardware.mem_avail_main, (1 - rung.ssd_spill_share) * a_g2m)
        hardware = replace(hardware, mem_avail_main=budget)
        model = IterationTimeModel(profile, hardware)

    estimate = model.estimate(a_g2m)
    schedule = RatelPolicy().schedule_for(
        profile, a_g2m - estimate.a_to_ssd, estimate.a_to_ssd, estimate.recompute_flops
    )
    schedule = replace(
        schedule,
        name=f"{name} [{rung.name}]",
        optimizer_mode=rung.optimizer_mode or schedule.optimizer_mode,
    )
    return RungPlan(
        rung=rung,
        profile=profile,
        hardware=hardware,
        a_g2m=a_g2m,
        estimate=estimate,
        schedule=schedule,
    )


def rung_shortfalls(plan: RungPlan, server: ServerSpec) -> dict[str, float]:
    """Bytes missing per memory tier for this rung (empty when feasible).

    Same accounting as :meth:`RatelPolicy.memory_needs`
    (:func:`~repro.core.policy.ratel_needs`).
    """
    return ratel_needs(plan.profile, plan.a_to_main, plan.a_to_ssd).shortfalls(server)
