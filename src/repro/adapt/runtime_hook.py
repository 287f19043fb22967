"""Health checking for the NumPy runtime: step-time drift -> runtime ladder.

The sim substrate replans against an analytic model; the functional
runtime has no such model, so :class:`RuntimeHealth` anchors on its own
warm-up measurements instead: the first ``warmup_steps`` step durations
form the baseline EWMA, later steps are judged as observed/baseline
ratios with the same trip/recover hysteresis as the sim-side
:class:`~repro.adapt.health.HealthMonitor`.  Storage-layer faults are
read straight off the manager's injector counters.

The runtime ladder has three rungs, mutating the live
:class:`~repro.runtime.offload.RatelRuntime`:

====  ================  ================================================
rung  name              change
====  ================  ================================================
0     planned           as constructed
1     host_checkpoints  boundary checkpoints to host, off the NVMe path
2     sync_optimizer    active gradient offloading off (deferred Adam)
====  ================  ================================================

Register it with :meth:`RatelRuntime.add_step_hook
<repro.runtime.offload.RatelRuntime.add_step_hook>`: it folds every step
of every variant, timed from ``runtime.step_started`` to the moment the
hook runs (``benchmarks/bench_adapt.py`` times it registered and not).
"""

from __future__ import annotations

import time
from typing import Any

from repro.obs.metrics import MetricsRegistry

from .health import OVERRUN_POLLS, OVERRUN_RATIO, AdaptError, Ewma, IOErrorDrift, StageOverrun

#: Rung names, in step-down order.
RUNTIME_RUNGS = ("planned", "host_checkpoints", "sync_optimizer")

#: The recovery edge of the hysteresis band: halfway between a healthy
#: ratio of 1 and the trip point, mirroring ``RECOVER_RATIO`` vs
#: ``BW_RATIO`` on the bandwidth side.
STEP_RECOVER_RATIO = 1.0 + (OVERRUN_RATIO - 1.0) / 2.0


class RuntimeHealth:
    """Watch live step timings and walk the runtime ladder."""

    def __init__(
        self,
        *,
        warmup_steps: int = 3,
        recover_polls: int = 3,
        registry: MetricsRegistry | None = None,
    ) -> None:
        if warmup_steps < 1:
            raise AdaptError(f"warmup_steps must be >= 1, got {warmup_steps}")
        if recover_polls < 1:
            raise AdaptError(f"recover_polls must be >= 1, got {recover_polls}")
        self.warmup_steps = warmup_steps
        self.recover_polls = recover_polls
        self.registry = registry

        self.rung = 0
        #: ``(step, action, rung_name, reason)`` per ladder move.
        self.transitions: list[tuple[int, str, str, str]] = []
        #: Drift-event payloads, in firing order.
        self.events: list[dict[str, Any]] = []
        self._saved: dict[str, Any] = {}
        self._baseline = Ewma()
        self._ratio = Ewma()
        self._seen = 0
        self._over = 0
        self._healthy = 0
        self._errors_last = 0

    # -- the hook ------------------------------------------------------------

    def __call__(self, runtime) -> None:
        """Step hook: time the step that just ended and fold it."""
        self.on_step(runtime, time.perf_counter() - runtime.step_started)

    def on_step(self, runtime, dt: float) -> None:
        """Fold one measured step; possibly mutate ``runtime``'s rung."""
        self._seen += 1
        errors = self._injected_errors(runtime)
        delta_errors = max(0, errors - self._errors_last)
        self._errors_last = errors

        if self._seen <= self.warmup_steps:
            self._baseline.update(dt)
            if delta_errors:
                self._on_errors(runtime, delta_errors, errors)
            return

        baseline = self._baseline.value or dt
        ratio = self._ratio.update(dt / baseline) if baseline > 0 else 1.0
        if ratio > OVERRUN_RATIO:
            self._over += 1
        else:
            self._over = 0

        if delta_errors:
            self._on_errors(runtime, delta_errors, errors)
            return
        if self._over >= OVERRUN_POLLS:
            event = StageOverrun("train_step", dt, baseline, self._over)
            self.events.append(event.to_payload())
            self._count_event(event.kind)
            self._step_down(runtime, str(event))
            return
        if ratio <= STEP_RECOVER_RATIO:
            self._healthy += 1
            if self._healthy >= self.recover_polls and self.rung > 0:
                self._step_up(runtime)
        else:
            self._healthy = 0

    # -- ladder moves --------------------------------------------------------

    def _on_errors(self, runtime, delta: int, total: int) -> None:
        event = IOErrorDrift(errors=total, operations=max(self._seen, 1), rate=1.0)
        self.events.append(event.to_payload())
        self._count_event(event.kind)
        self._step_down(runtime, f"{delta} storage error(s) injected this step")

    def _step_down(self, runtime, reason: str) -> None:
        from repro.runtime import storage as st

        if self.rung >= len(RUNTIME_RUNGS) - 1:
            self._rebase()
            return
        self.rung += 1
        name = RUNTIME_RUNGS[self.rung]
        if name == "host_checkpoints":
            self._saved["checkpoint_tier"] = runtime.checkpoint_tier
            runtime.checkpoint_tier = st.HOST
        elif name == "sync_optimizer":
            self._saved["active_offload"] = runtime.active_offload
            runtime.active_offload = False
        self._record(runtime, "step_down", name, reason)
        self._rebase()

    def _step_up(self, runtime) -> None:
        name = RUNTIME_RUNGS[self.rung]
        if name == "sync_optimizer" and "active_offload" in self._saved:
            runtime.active_offload = self._saved.pop("active_offload")
        elif name == "host_checkpoints" and "checkpoint_tier" in self._saved:
            runtime.checkpoint_tier = self._saved.pop("checkpoint_tier")
        self.rung -= 1
        self._record(
            runtime,
            "step_up",
            RUNTIME_RUNGS[self.rung],
            f"{self.recover_polls} healthy steps",
        )
        self._rebase()

    def _rebase(self) -> None:
        """Re-learn the baseline under the new configuration."""
        self._baseline.reset()
        self._ratio.reset()
        self._seen = 0
        self._over = 0
        self._healthy = 0

    # -- recording -----------------------------------------------------------

    def _record(self, runtime, action: str, rung: str, reason: str) -> None:
        self.transitions.append((runtime.step, action, rung, reason))
        if self.registry is not None:
            self.registry.counter(
                "adapt_runtime_transitions_total", "runtime ladder moves"
            ).inc(action=action, rung=rung)

    def _count_event(self, kind: str) -> None:
        if self.registry is not None:
            self.registry.counter(
                "adapt_drift_events_total", "drift events by kind"
            ).inc(kind=kind)

    @staticmethod
    def _injected_errors(runtime) -> int:
        injector = getattr(runtime.manager, "faults", None)
        if injector is None:
            return 0
        return int(
            getattr(injector, "injected_read_errors", 0)
            + getattr(injector, "injected_write_errors", 0)
            + getattr(injector, "injected_corruptions", 0)
        )
