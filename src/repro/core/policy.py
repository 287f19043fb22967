"""The offloading-policy interface.

Ratel and every baseline implement :class:`OffloadPolicy`: given a model
profile and a server, a policy (a) states its memory requirements per
tier, and (b) compiles an :class:`~repro.core.schedule.IterationSchedule`
for the discrete-event engine.  The capacity planner and all experiment
harnesses work purely against this interface.

Every system in the reproduction builds its schedule the same way, so
they all derive from :class:`SplitPolicy`: a system declares only its
activation split (bytes swapped to main memory, bytes to SSD, recompute
FLOPs) plus class-level schedule constants, and the one
:meth:`SplitPolicy.compile` spreads the split over the blocks.

:meth:`OffloadPolicy.evaluate` is the preferred entry point for
experiment code: it answers feasibility, planning and simulation in one
pass and returns a single :class:`~repro.core.evaluation.EvalOutcome`.
The split :meth:`feasible` / :meth:`simulate` pair remains for callers
that need only one half (and as the substrate ``evaluate`` builds on),
but new sweep-style code should go through ``evaluate`` — directly or,
better, via :mod:`repro.runner`, which adds caching and fan-out.
"""

from __future__ import annotations

import abc

from repro.hardware.spec import ServerSpec
from repro.models.profile import ModelProfile

from .engine import IterationResult, run_iteration
from .evaluation import EvalOutcome, PlanSummary, collect_metrics
from .memory_model import (
    InfeasibleError,
    ResourceNeeds,
    active_offload_main_overhead,
    gpu_working_set,
)
from .schedule import IterationSchedule, OptimizerMode, StatesLocation, build_blocks


class OffloadPolicy(abc.ABC):
    """One tensor-offloading system (Ratel or a baseline)."""

    #: Human-readable system name, as used in the paper's figures.
    name: str = "abstract"

    def supported_on(self, server: ServerSpec) -> bool:
        """Whether the system can run on this hardware at all.

        Policies override this for hard requirements (G10 needs
        GPUDirect; SSD-offloading systems need SSDs).
        """
        return True

    @abc.abstractmethod
    def memory_needs(self, profile: ModelProfile, server: ServerSpec) -> ResourceNeeds:
        """Per-tier byte requirements for this workload."""

    @abc.abstractmethod
    def compile(self, profile: ModelProfile, server: ServerSpec) -> IterationSchedule:
        """Build the iteration schedule the engine will execute."""

    def needs_bounds(
        self, profile: ModelProfile, server: ServerSpec
    ) -> tuple[ResourceNeeds, ResourceNeeds] | None:
        """``(lower, upper)`` needs that bound :meth:`memory_needs`, tier by tier.

        A policy whose needs come out of a plan may return needs that
        every plan's needs lie between, so that :meth:`feasible` can
        skip the plan when the bounds already decide.  ``None`` (the
        default) means no bounds: every probe plans.
        """
        return None

    def feasible(self, profile: ModelProfile, server: ServerSpec) -> bool:
        """True when the workload fits this server under this policy.

        A fitting upper bound or a failing lower bound
        (:meth:`needs_bounds`) answers without building the plan.
        """
        if not self.supported_on(server):
            return False
        bounds = self.needs_bounds(profile, server)
        if bounds is not None:
            lower, upper = bounds
            if upper.fits(server):
                return True
            if not lower.fits(server):
                return False
        return self.memory_needs(profile, server).fits(server)

    def simulate(
        self, profile: ModelProfile, server: ServerSpec, *, check: bool = True
    ) -> IterationResult:
        """Run one simulated iteration (checking feasibility first).

        Pass ``check=False`` to time a workload that would not actually
        fit — used only by the motivation experiments that quantify *why*
        a configuration fails.
        """
        if check:
            self.require_feasible(profile, server)
        return run_iteration(server, self.compile(profile, server))

    def require_feasible(self, profile: ModelProfile, server: ServerSpec) -> None:
        """Raise :class:`InfeasibleError` with a tier-by-tier explanation."""
        reason = self._infeasible_reason(profile, server)
        if reason is not None:
            raise InfeasibleError(reason)

    def evaluate(
        self,
        profile: ModelProfile,
        server: ServerSpec,
        *,
        simulate_infeasible: bool = False,
    ) -> EvalOutcome:
        """Feasibility + plan + simulation as one rich :class:`EvalOutcome`.

        The feasibility verdict is computed exactly once (no repeated
        ``memory_needs`` round-trips); policies that expose a ``plan()``
        method (the Ratel family) get their Algorithm-1 plan summarised
        into the outcome.  The iteration is simulated when the point is
        feasible — or unconditionally on supported hardware with
        ``simulate_infeasible=True``, the ``simulate(check=False)``
        analogue used by the motivation studies that time workloads which
        would not actually fit.
        """
        supported = self.supported_on(server)
        reason = self._infeasible_reason(profile, server)
        feasible = reason is None

        plan = None
        estimate = None
        if supported:
            planner = getattr(self, "plan", None)
            if callable(planner):
                raw_plan = planner(profile, server)
                plan = PlanSummary.from_plan(raw_plan)
                # The Ratel family's SwapPlan carries the Algorithm-1
                # IterationEstimate; it seeds the predicted-vs-actual
                # comparison in the attribution metrics.
                estimate = getattr(raw_plan, "estimate", None)

        result = None
        metrics: dict = {}
        if supported and (feasible or simulate_infeasible):
            # Through simulate() (not run_iteration directly) so policies
            # that override it — Megatron's tensor-parallel aggregation —
            # keep their semantics; feasibility was already decided above.
            result = self.simulate(profile, server, check=False)
            metrics = collect_metrics(result, estimate=estimate)

        return EvalOutcome(
            policy=self.name,
            model=profile.config.name,
            batch_size=profile.batch_size,
            server=server.name,
            feasible=feasible,
            supported=supported,
            reason=reason,
            plan=plan,
            metrics=metrics,
            result=result,
        )

    def _infeasible_reason(self, profile: ModelProfile, server: ServerSpec) -> str | None:
        """Why this workload does not fit, or ``None`` when it does."""
        if not self.supported_on(server):
            return (
                f"{self.name} is not supported on {server.name!r} "
                f"(hardware requirement not met)"
            )
        shortfalls = self.memory_needs(profile, server).shortfalls(server)
        if shortfalls:
            detail = ", ".join(
                f"{tier}: {missing / 1e9:.1f} GB short" for tier, missing in shortfalls.items()
            )
            return (
                f"{self.name} cannot fit {profile.config.name} "
                f"(batch {profile.batch_size}) on {server.name!r}: {detail}"
            )
        return None


def ratel_needs(profile: ModelProfile, to_main: float, to_ssd: float) -> ResourceNeeds:
    """Ratel's engine accounting for an activation split.

    The GPU streaming working set; the active-offload pipeline's
    main-memory window plus the main-resident activations; the model
    states plus the activations that continue to the SSD array.
    """
    return ResourceNeeds(
        gpu_bytes=gpu_working_set(profile),
        main_bytes=active_offload_main_overhead(profile) + to_main,
        ssd_bytes=profile.states.total + to_ssd,
    )


class SplitPolicy(OffloadPolicy):
    """A system on the shared engine, told apart by its activation split.

    Subclasses implement :meth:`activation_split` and override the
    class-level schedule constants below (class attributes or
    properties, so they stay out of the runner's content keys).
    :meth:`memory_needs` prices the split through :meth:`needs_for_split`,
    which is Ratel's engine accounting (:func:`ratel_needs`) unless a
    system stages extra host buffers; systems whose needs do not follow
    from the split (model states elsewhere) override ``memory_needs``.
    """

    states_location: StatesLocation = StatesLocation.SSD
    optimizer_mode: OptimizerMode = OptimizerMode.ACTIVE_OPTIMIZED
    prefetch_depth: int = 3
    sync_overhead_per_block: float = 0.0
    use_gpudirect: bool = False
    ssd_efficiency: float = 1.0
    pcie_efficiency: float = 1.0
    stale_k: int = 0
    critical_frac: float = 0.0

    @abc.abstractmethod
    def activation_split(
        self, profile: ModelProfile, server: ServerSpec
    ) -> tuple[float, float, float]:
        """(bytes swapped to main memory, bytes to SSD, recompute FLOPs)."""

    def memory_needs(self, profile: ModelProfile, server: ServerSpec) -> ResourceNeeds:
        to_main, to_ssd, _ = self.activation_split(profile, server)
        return self.needs_for_split(profile, to_main, to_ssd)

    def needs_for_split(
        self, profile: ModelProfile, to_main: float, to_ssd: float
    ) -> ResourceNeeds:
        """This system's needs for an explicit activation split.

        Every override must be monotone non-decreasing in both parts:
        :meth:`RatelPolicy.needs_bounds` prices the extreme splits here.
        """
        return ratel_needs(profile, to_main, to_ssd)

    def compile(self, profile: ModelProfile, server: ServerSpec) -> IterationSchedule:
        return self.schedule_for(profile, *self.activation_split(profile, server))

    def schedule_for(
        self, profile: ModelProfile, to_main: float, to_ssd: float, recompute_flops: float
    ) -> IterationSchedule:
        """This system's schedule for an explicit activation split."""
        blocks = build_blocks(
            profile,
            act_to_main_total=to_main,
            act_to_ssd_total=to_ssd,
            recompute_flops_total=recompute_flops,
            states_offloaded=self.states_location is not StatesLocation.GPU,
        )
        return IterationSchedule(
            name=self.name,
            model=profile,
            blocks=blocks,
            states_location=self.states_location,
            optimizer_mode=self.optimizer_mode,
            prefetch_depth=self.prefetch_depth,
            sync_overhead_per_block=self.sync_overhead_per_block,
            use_gpudirect=self.use_gpudirect,
            ssd_efficiency=self.ssd_efficiency,
            pcie_efficiency=self.pcie_efficiency,
            stale_k=self.stale_k,
            critical_frac=self.critical_frac,
        )
