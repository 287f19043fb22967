"""The adaptive control loop: drift -> re-profile -> replan -> ladder.

:class:`AdaptiveController` owns the active :class:`~repro.adapt.ladder.RungPlan`
and reacts to the :class:`~repro.adapt.health.HealthMonitor`'s drift
events:

1. **Re-profile from observed rates.**  A drive change updates the
   believed array size; a bandwidth sag folds the monitor's EWMA
   observed/expected ratio into a persistent *sag scale* on the SSD
   rates.  The two never compound in one step: when the drive count
   changed, the bandwidth ratio was measured against an array that no
   longer exists, so only the drive change is applied and the monitor is
   re-anchored before ratios count again.
2. **Re-run Algorithm 1** on the re-profiled hardware (ladder rung 0).
3. **Walk the ladder** when the fresh optimum is infeasible or misses
   the deadline: the first rung that fits *and* meets the deadline wins;
   failing that, the feasible rung with the best predicted
   seconds-per-token.
4. **Step back up with hysteresis** once the monitor reports
   ``RECOVER_POLLS`` consecutive healthy iterations — and only if the
   re-plan actually lands on a higher rung, so a noisy-but-healthy trace
   never flaps.

Every decision is recorded: an obs span on the ``adapt`` lane, counters
on the metrics registry (``adapt_decisions_total``,
``adapt_drift_events_total``, ``adapt_plan_swaps_total``) and — for
anything that changed the plan — a ``kind="adapt"`` ledger entry
carrying the triggering drift events.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Any

from repro.hardware.spec import ServerSpec
from repro.models.profile import ModelProfile

from repro.core.engine import IterationResult
from repro.core.hwprofile import HardwareProfile
from repro.core.ratel import RatelPolicy
from repro.obs import tracectx
from repro.obs.ledger import LedgerEntry, RunLedger
from repro.obs.metrics import MetricsRegistry, default_registry
from repro.obs.spans import maybe_span

from .health import DriftEvent, DriveDrift, HealthMonitor
from .ladder import DEFAULT_LADDER, RungPlan, compile_rung, rung_shortfalls

#: Relative bandwidth-recovery margin below which a sag-scale update is
#: noise, not a recovery worth replanning for.
_SAG_RECOVERY_MARGIN = 1.02

#: The deadline is the healthy plan's predicted seconds-per-token times
#: this slack; a degraded plan inside the slack needs no ladder.
DEADLINE_SLACK = 1.15
#: Consecutive healthy polls required before stepping back up
#: (hysteresis semantics in DESIGN.md §10).
RECOVER_POLLS = 3
#: Polls after a plan swap during which non-drive drift is ignored (the
#: new plan's EWMAs need at least one sample to mean anything).
COOLDOWN_ITERS = 1


@dataclass(frozen=True)
class Decision:
    """One control-loop verdict, recorded per iteration."""

    iteration: int
    #: ``hold`` | ``replan`` | ``step_down`` | ``step_up``.
    action: str
    #: Name of the rung active *after* this decision.
    rung: str
    reason: str
    #: Payloads of the drift events that triggered the decision.
    events: tuple[dict[str, Any], ...] = ()
    #: The active plan's predicted seconds-per-token after the decision.
    predicted_s_per_token: float = 0.0
    #: The causal trace the decision was made under (``""`` outside one).
    trace_id: str = ""

    @property
    def swapped_plan(self) -> bool:
        return self.action != "hold"

    def to_payload(self) -> dict[str, Any]:
        payload = {
            "iteration": self.iteration,
            "action": self.action,
            "rung": self.rung,
            "reason": self.reason,
            "events": list(self.events),
            "predicted_s_per_token": self.predicted_s_per_token,
        }
        if self.trace_id:
            payload["trace_id"] = self.trace_id
        return payload


class AdaptiveController:
    """Close the loop between drift detection and Algorithm-1 replanning.

    Drive with :meth:`finish_iteration` once per iteration; read the
    active schedule from :attr:`schedule` before running the next one.
    """

    def __init__(
        self,
        profile: ModelProfile,
        server: ServerSpec,
        *,
        registry: MetricsRegistry | None = None,
        ledger: RunLedger | None = None,
    ) -> None:
        self.ladder = DEFAULT_LADDER
        self.policy = RatelPolicy()
        self.base_profile = profile
        self.healthy_server = server
        self.registry = registry if registry is not None else default_registry()
        self.ledger = ledger

        #: Believed machine state: surviving drives and the persistent
        #: bandwidth sag scale folded from observed ratios.
        self._drives = server.n_ssds
        self._sag = 1.0

        self.rung_index = 0
        self.plan: RungPlan = compile_rung(
            self.ladder[0], profile, self._profile_hardware()
        )
        #: Seconds-per-token the controller tries to preserve.
        self.deadline_s_per_token = DEADLINE_SLACK * self.plan.seconds_per_token
        self.monitor = HealthMonitor(self.plan.hardware, self.plan.estimate)
        self.iteration = 0
        self._cooldown = 0
        self._healthy_streak = 0
        self.decisions: list[Decision] = []

    # -- state ---------------------------------------------------------------

    @property
    def schedule(self):
        """The active :class:`~repro.core.schedule.IterationSchedule`."""
        return self.plan.schedule

    @property
    def current_server(self) -> ServerSpec:
        """The healthy server shrunk to the believed drive count."""
        return self.healthy_server.with_ssds(self._drives)

    @property
    def plan_swaps(self) -> int:
        """How many decisions changed the active plan."""
        return sum(1 for d in self.decisions if d.swapped_plan)

    def _profile_hardware(self) -> HardwareProfile:
        """Re-profile: believed drives, then the observed sag scale."""
        hw = self.policy.hardware_profile(self.base_profile, self.current_server)
        if self._sag < 1.0:
            hw = replace(
                hw, bw_s2m=hw.bw_s2m * self._sag, bw_m2s=hw.bw_m2s * self._sag
            )
        return hw

    # -- the loop ------------------------------------------------------------

    def finish_iteration(
        self,
        result: IterationResult | None = None,
        *,
        remaining_ssds: int | None = None,
    ) -> Decision:
        """Fold one finished iteration and decide what the next one runs.

        ``result`` is duck-typed (see :meth:`HealthMonitor.observe_result`);
        extra signals — probe bandwidth samples, injector error counters —
        can be fed to :attr:`monitor` directly before calling this.
        """
        self.iteration += 1
        if result is not None:
            self.monitor.observe_result(result)
        if remaining_ssds is not None:
            self.monitor.observe_drives(remaining_ssds)
        events = self.monitor.poll()
        decision = self._decide(events)
        self.decisions.append(decision)
        self._record(decision)
        return decision

    # -- deciding ------------------------------------------------------------

    def _decide(self, events: list[DriftEvent]) -> Decision:
        drive_events = [e for e in events if isinstance(e, DriveDrift)]
        if self._cooldown > 0 and not drive_events:
            self._cooldown -= 1
            return self._hold("cooldown after plan swap", events)
        if events:
            self._healthy_streak = 0
            if drive_events:
                # A ratio measured against the old array size is stale;
                # apply only the drive change this round (no compounding).
                self._drives = drive_events[-1].remaining
            else:
                ratio = self.monitor.bandwidth_ratio("ssd")
                if ratio is not None:
                    self._sag = min(1.0, self._sag * ratio)
            return self._replan(events)
        if self.monitor.healthy():
            self._healthy_streak += 1
            if (
                self._healthy_streak >= RECOVER_POLLS
                and (self.rung_index > 0 or self._sag < 1.0)
            ):
                return self._attempt_step_up()
            return self._hold("healthy", events)
        self._healthy_streak = 0
        return self._hold("signals outside recovery band, above trip points", events)

    def _replan(self, events: list[DriftEvent]) -> Decision:
        index, plan = self._choose_rung()
        if plan is None:
            return self._hold("no feasible rung on re-profiled hardware", events)
        if index > self.rung_index:
            action = "step_down"
        elif index < self.rung_index:
            action = "step_up"
        else:
            action = "replan"
        reason = "; ".join(str(e) for e in events) or "drift"
        return self._adopt(index, plan, action, reason, events)

    def _attempt_step_up(self) -> Decision:
        """Recovery path: only swap when the replan lands on a higher rung.

        The monitor's ratio is measured against the *sagged* expectation,
        so multiplying it back into the sag scale recovers the true rate;
        updates inside the noise margin are discarded to keep a hovering
        signal from ever flapping the plan.
        """
        previous_sag = self._sag
        ratio = self.monitor.bandwidth_ratio("ssd")
        if ratio is not None:
            candidate = min(1.0, self._sag * ratio)
            if candidate > self._sag * _SAG_RECOVERY_MARGIN:
                self._sag = candidate
        recovered_bw = self._sag > previous_sag
        if self.rung_index == 0 and not recovered_bw:
            self._healthy_streak = 0
            return self._hold("healthy, no recovery to apply", [])
        index, plan = self._choose_rung()
        if plan is None or (index >= self.rung_index and not recovered_bw):
            self._sag = previous_sag
            self._healthy_streak = 0
            return self._hold("healthy, but no higher rung is feasible", [])
        action = "step_up" if index < self.rung_index else "replan"
        reason = (
            f"recovered: {RECOVER_POLLS} healthy polls"
            + (f", bandwidth back to {100 * self._sag:.0f}% of profiled" if recovered_bw else "")
        )
        return self._adopt(index, plan, action, reason, [])

    def _choose_rung(self) -> tuple[int, RungPlan | None]:
        """First rung that fits and meets the deadline, else best feasible."""
        hardware = self._profile_hardware()
        server = self.current_server
        feasible: list[tuple[int, RungPlan]] = []
        for index, rung in enumerate(self.ladder):
            try:
                plan = compile_rung(rung, self.base_profile, hardware)
            except ValueError:
                continue  # planner infeasible at this rung (e.g. no drives)
            if rung_shortfalls(plan, server):
                continue
            if plan.seconds_per_token <= self.deadline_s_per_token:
                return index, plan
            feasible.append((index, plan))
        if feasible:
            return min(feasible, key=lambda item: item[1].seconds_per_token)
        return -1, None

    def _adopt(
        self,
        index: int,
        plan: RungPlan,
        action: str,
        reason: str,
        events: list[DriftEvent],
    ) -> Decision:
        self.rung_index = index
        self.plan = plan
        self.monitor.rebase(plan.hardware, plan.estimate)
        self._cooldown = COOLDOWN_ITERS
        self._healthy_streak = 0
        return Decision(
            iteration=self.iteration,
            action=action,
            rung=plan.rung.name,
            reason=reason,
            events=tuple(e.to_payload() for e in events),
            predicted_s_per_token=plan.seconds_per_token,
            trace_id=tracectx.current_trace_id(),
        )

    def _hold(self, reason: str, events: list[DriftEvent]) -> Decision:
        return Decision(
            iteration=self.iteration,
            action="hold",
            rung=self.plan.rung.name,
            reason=reason,
            events=tuple(e.to_payload() for e in events),
            predicted_s_per_token=self.plan.seconds_per_token,
            trace_id=tracectx.current_trace_id(),
        )

    # -- recording -----------------------------------------------------------

    def _record(self, decision: Decision) -> None:
        registry = self.registry
        if registry is not None:
            registry.counter(
                "adapt_decisions_total", "controller decisions by action"
            ).inc(action=decision.action)
            for event in decision.events:
                registry.counter(
                    "adapt_drift_events_total", "drift events by kind"
                ).inc(kind=str(event.get("kind", "unknown")))
            if decision.swapped_plan:
                registry.counter(
                    "adapt_plan_swaps_total", "plan swaps (replan or ladder move)"
                ).inc()
        with maybe_span("adapt", f"{decision.action}:{decision.rung}"):
            pass
        if self.ledger is not None and decision.swapped_plan:
            profile = self.base_profile
            self.ledger.append(
                LedgerEntry(
                    label=(
                        f"adapt:{profile.config.name}/b{profile.batch_size}"
                        f"@{self.healthy_server.name}#{decision.iteration}"
                    ),
                    policy=self.policy.name,
                    model=profile.config.name,
                    batch_size=profile.batch_size,
                    server=self.healthy_server.name,
                    feasible=True,
                    metrics={"decision": decision.to_payload()},
                    kind="adapt",
                    source="adapt-controller",
                    trace_id=decision.trace_id,
                )
            )
