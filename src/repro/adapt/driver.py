"""The fault-drill harness: stale vs replan-once vs adaptive postures.

A *drill* is a sequence of :class:`DrillStep`\\ s, each one simulated
iteration on a (possibly degraded) server with a per-iteration
:class:`~repro.faults.FaultSchedule`.  The standard drill is ISSUE 5's
PR-2 scenario — one SSD dropout mid-iteration plus a thermal bandwidth
sag, then recovery — and :func:`run_drill` executes it under three
postures:

* ``stale``       — the healthy Algorithm-1 schedule rides through
  unchanged (what a planner without a control loop does);
* ``replan_once`` — the oracle: one replan at the first iteration that
  *starts* degraded, with perfect knowledge of the surviving array;
* ``adaptive``    — the :class:`~repro.adapt.controller.AdaptiveController`
  fed by a mid-iteration :class:`HealthProbe`, discovering the machine
  state the way a real deployment would.

Comparisons are in seconds-per-token so ladder rungs that change the
micro-batch stay commensurable.  :func:`drill_outcome` wraps the whole
comparison into an :class:`~repro.core.evaluation.EvalOutcome` for the
sweep runner's ``--adapt`` points and the ``ext_adaptive`` experiment.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Sequence

from repro.core.engine import run_iteration
from repro.core.evaluation import EvalOutcome
from repro.core.ratel import RatelPolicy
from repro.core.resilience import degraded_server
from repro.faults import BandwidthSag, FaultSchedule, SSDDropout
from repro.hardware import evaluation_server
from repro.hardware.spec import ServerSpec
from repro.models import llm
from repro.models.profile import profile_model
from repro.obs.ledger import RunLedger
from repro.obs.metrics import MetricsRegistry

from .controller import AdaptiveController, Decision
from .health import AdaptError

POSTURES = ("stale", "replan_once", "adaptive")

#: Sag windows cover the whole iteration; "forever" in sim seconds.
_SAG_FOREVER = 1e9


@dataclass(frozen=True)
class DrillStep:
    """One simulated iteration's worth of machine condition.

    ``n_failed`` drives are already dead when the iteration starts;
    ``dropout_count`` more drop out mid-iteration at ``dropout_at``
    seconds; ``sag_factor`` (when set) derates the SSD channel for the
    whole iteration.
    """

    n_failed: int = 0
    dropout_count: int = 0
    dropout_at: float = 5.0
    sag_factor: float | None = None

    def __post_init__(self) -> None:
        if self.n_failed < 0 or self.dropout_count < 0:
            raise AdaptError("drive counts cannot be negative")
        if self.sag_factor is not None and not 0 < self.sag_factor < 1:
            raise AdaptError(f"sag_factor must be in (0, 1), got {self.sag_factor}")

    def faults(self) -> FaultSchedule | None:
        """The step's mid-iteration fault schedule (``None`` when clean)."""
        events: list = []
        if self.dropout_count > 0:
            events.append(SSDDropout(at=self.dropout_at, count=self.dropout_count))
        if self.sag_factor is not None:
            events.append(
                BandwidthSag(at=0.0, duration=_SAG_FOREVER, factor=self.sag_factor)
            )
        return FaultSchedule(tuple(events)) if events else None


def standard_drill() -> tuple[DrillStep, ...]:
    """ISSUE 5's PR-2 drill: dropout + sag, then recovery.

    Two healthy iterations anchor the monitor's EWMAs; a drive drops out
    mid-iteration 3 and stays dead while a 0.6x bandwidth sag piles on;
    the final iterations run fully healed (drive restored, sag lifted)
    to exercise the hysteresis step-up path.
    """
    return (
        DrillStep(),
        DrillStep(),
        DrillStep(dropout_count=1),
        DrillStep(n_failed=1),
        DrillStep(n_failed=1, sag_factor=0.6),
        DrillStep(n_failed=1, sag_factor=0.6),
        DrillStep(),
        DrillStep(),
    )


@dataclass(frozen=True)
class ProbeSample:
    """One mid-iteration machine observation."""

    time: float
    remaining_ssds: int
    read_bytes: float
    written_bytes: float


class HealthProbe:
    """Periodic in-sim sampler installed via ``run_iteration(health=...)``.

    The engine builds its :class:`~repro.sim.Machine` internally, so the
    surviving-drive count after a mid-iteration dropout is invisible from
    the returned result; the probe rides the simulation and carries that
    state out.  The sampler stops at the first tick after ``until``
    (the iteration's main process) has triggered.
    """

    def __init__(self, interval: float = 1.0) -> None:
        if interval <= 0:
            raise AdaptError(f"probe interval must be positive, got {interval}")
        self.interval = interval
        self.samples: list[ProbeSample] = []

    def install(self, machine, until) -> None:
        machine.sim.process(self._sampler(machine, until))

    def _sampler(self, machine, until):
        while not until.triggered:
            yield machine.sim.timeout(self.interval)
            self.samples.append(
                ProbeSample(
                    time=machine.sim.now,
                    remaining_ssds=max(machine.server.n_ssds - machine.failed_ssds, 0),
                    read_bytes=machine.ssd.total_read,
                    written_bytes=machine.ssd.total_written,
                )
            )

    @property
    def remaining_ssds(self) -> int | None:
        """Surviving drives at the last sample (``None`` when never fired)."""
        return self.samples[-1].remaining_ssds if self.samples else None


@dataclass
class PostureRun:
    """One posture's trip through a drill."""

    posture: str
    iteration_times: list[float] = field(default_factory=list)
    tokens: list[float] = field(default_factory=list)
    decisions: list[Decision] = field(default_factory=list)

    @property
    def total_time(self) -> float:
        return sum(self.iteration_times)

    @property
    def total_tokens(self) -> float:
        return sum(self.tokens)

    @property
    def seconds_per_token(self) -> float:
        """The drill's figure of merit (micro-batch-change safe)."""
        return self.total_time / self.total_tokens if self.total_tokens else float("inf")

    @property
    def plan_swaps(self) -> int:
        return sum(1 for d in self.decisions if d.swapped_plan)


def run_drill(
    posture: str,
    model_name: str = "135B",
    batch_size: int = 40,
    n_ssds: int = 6,
    drill: Sequence[DrillStep] | None = None,
    *,
    server: ServerSpec | None = None,
    registry: MetricsRegistry | None = None,
    ledger: RunLedger | None = None,
) -> PostureRun:
    """Run one posture through a drill and collect per-iteration numbers.

    The workload defaults to ``ext_resilience``'s: 135B at batch 40 on
    the 6-drive evaluation server, where the healthy plan spills
    activations to SSD — the decision adaptation can revisit.  An
    explicit ``server`` overrides the ``n_ssds`` preset.
    """
    if posture not in POSTURES:
        raise AdaptError(f"unknown posture {posture!r}; choose from {POSTURES}")
    steps = tuple(drill) if drill is not None else standard_drill()
    if server is None:
        server = evaluation_server().with_ssds(n_ssds)
    profile = profile_model(llm(model_name), batch_size)
    policy = RatelPolicy()

    run = PostureRun(posture=posture)
    controller: AdaptiveController | None = None
    if posture == "adaptive":
        controller = AdaptiveController(profile, server, registry=registry, ledger=ledger)
        run.decisions = controller.decisions

    schedule = policy.compile(profile, server) if controller is None else None
    replanned = False
    for step in steps:
        step_server = degraded_server(server, step.n_failed)
        faults = step.faults()
        if controller is not None:
            probe = HealthProbe()
            active = controller.schedule
            result = run_iteration(step_server, active, faults=faults, health=probe)
            remaining = probe.remaining_ssds
            if remaining is None:
                remaining = max(step_server.n_ssds - step.dropout_count, 0)
            controller.finish_iteration(result, remaining_ssds=remaining)
            tokens = active.model.tokens_per_iteration
        else:
            if posture == "replan_once" and not replanned and step.n_failed > 0:
                schedule = policy.compile(profile, step_server)
                replanned = True
            result = run_iteration(step_server, schedule, faults=faults)
            tokens = schedule.model.tokens_per_iteration
        run.iteration_times.append(result.iteration_time)
        run.tokens.append(tokens)
    return run


def drill_outcome(
    model_name: str = "135B",
    batch_size: int = 40,
    n_ssds: int = 6,
    drill: Sequence[DrillStep] | None = None,
    *,
    server: ServerSpec | None = None,
    registry: MetricsRegistry | None = None,
    ledger: RunLedger | None = None,
) -> EvalOutcome:
    """All three postures through one drill, as a sweep-ready outcome.

    ``metrics`` carries the posture comparison (seconds-per-token each),
    the adaptive controller's swap count and its non-hold decisions.
    """
    if server is None:
        server = evaluation_server().with_ssds(n_ssds)
    runs: dict[str, PostureRun] = {}
    for posture in POSTURES:
        runs[posture] = run_drill(
            posture,
            model_name,
            batch_size,
            drill=drill,
            server=server,
            registry=registry if posture == "adaptive" else None,
            ledger=ledger if posture == "adaptive" else None,
        )
    adaptive = runs["adaptive"]
    n_steps = len(adaptive.iteration_times)
    metrics: dict[str, Any] = {
        "iteration_time": adaptive.total_time / n_steps if n_steps else float("nan"),
        "tokens_per_s": (
            adaptive.total_tokens / adaptive.total_time if adaptive.total_time else 0.0
        ),
        "drill_steps": n_steps,
        "adaptive_s_per_token": adaptive.seconds_per_token,
        "stale_s_per_token": runs["stale"].seconds_per_token,
        "oracle_s_per_token": runs["replan_once"].seconds_per_token,
        "plan_swaps": adaptive.plan_swaps,
        "decisions": [d.to_payload() for d in adaptive.decisions if d.swapped_plan],
    }
    return EvalOutcome(
        policy="Ratel (adaptive)",
        model=model_name,
        batch_size=batch_size,
        server=server.name,
        feasible=True,
        metrics=metrics,
    )
