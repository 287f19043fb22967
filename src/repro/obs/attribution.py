"""Bottleneck attribution: who bound each stage, and by how much.

Given a trace (simulated or runtime-recorded) and its stage windows,
:func:`attribute` computes, per stage and per resource:

* **busy**  — seconds the resource actively worked inside the window;
* **stall** — seconds the resource sat idle *while some other resource
  was busy* (it was waiting on the pipeline — the overlap the schedule
  failed to give it);
* **idle**  — seconds *nothing* was busy (dead time: pipeline fill/drain
  bubbles; identical for every resource, reported once per stage).

The **binding resource** of a stage is the one with the most busy time —
under full overlap the stage can never be shorter than its busiest
resource, which is exactly the ``max`` over components in the paper's
Eqs. 4-5.  When a planned estimate (Algorithm 1's
:class:`~repro.core.iteration_model.IterationEstimate`, duck-typed) is
supplied, the report also carries predicted-vs-actual stage times and
the predicted bottleneck, so a plan whose prediction drifted from what
the engine executed is caught immediately.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Mapping

from repro.sim.trace import Trace

#: Iteration-model component names -> trace resource names (GPU 0).
MODEL_TO_TRACE = {
    "gpu": "gpu0",
    "pcie_g2m": "pcie_g2m0",
    "pcie_m2g": "pcie_m2g0",
    "ssd": "ssd",
    "cpu_adam": "cpu_adam",
}


@dataclass(frozen=True)
class ResourceUsage:
    """One resource's accounting inside one stage window."""

    resource: str
    busy_s: float
    stall_s: float
    utilization: float


@dataclass
class StageBreakdown:
    """Busy/stall/idle accounting for one stage window."""

    stage: str
    start: float
    end: float
    resources: list[ResourceUsage] = field(default_factory=list)
    idle_s: float = 0.0
    bottleneck: str = ""
    predicted_s: float | None = None
    predicted_bottleneck: str | None = None

    @property
    def span_s(self) -> float:
        return self.end - self.start

    def usage(self, resource: str) -> ResourceUsage | None:
        for row in self.resources:
            if row.resource == resource:
                return row
        return None


@dataclass
class AttributionReport:
    """Per-stage attribution plus the predicted-vs-actual comparison."""

    stages: list[StageBreakdown]
    iteration_time: float
    predicted_time: float | None = None

    @property
    def prediction_error(self) -> float | None:
        """Relative (actual - predicted) / predicted, when a plan exists."""
        if self.predicted_time is None or self.predicted_time <= 0:
            return None
        return (self.iteration_time - self.predicted_time) / self.predicted_time

    def stage(self, name: str) -> StageBreakdown:
        for breakdown in self.stages:
            if breakdown.stage == name:
                return breakdown
        raise KeyError(f"no stage {name!r} in this report")

    # -- rendering -------------------------------------------------------------

    def render(self) -> str:
        """The per-stage, per-resource busy/idle/stall table, as text."""
        lines: list[str] = []
        header = (
            f"{'stage':10s} {'resource':12s} {'busy_s':>8s} {'busy%':>6s} "
            f"{'stall_s':>8s} {'stall%':>6s}"
        )
        for breakdown in self.stages:
            span = breakdown.span_s
            pred = (
                f", planned {breakdown.predicted_s:.1f} s"
                if breakdown.predicted_s is not None
                else ""
            )
            lines.append(
                f"[{breakdown.stage}] {span:.1f} s, bound by {breakdown.bottleneck}"
                f"{pred}, idle {breakdown.idle_s:.1f} s"
            )
            lines.append(header)
            for row in breakdown.resources:
                stall_pct = 100 * row.stall_s / span if span > 0 else 0.0
                lines.append(
                    f"{breakdown.stage:10s} {row.resource:12s} {row.busy_s:8.1f} "
                    f"{100 * row.utilization:5.0f}% {row.stall_s:8.1f} {stall_pct:5.0f}%"
                )
            if (
                breakdown.predicted_bottleneck is not None
                and breakdown.predicted_bottleneck != breakdown.bottleneck
            ):
                lines.append(
                    f"  note: plan expected {breakdown.predicted_bottleneck} to bind "
                    f"this stage, not {breakdown.bottleneck}"
                )
            lines.append("")
        actual = f"iteration: {self.iteration_time:.1f} s"
        if self.predicted_time is not None:
            error = self.prediction_error or 0.0
            actual += (
                f" (planned {self.predicted_time:.1f} s, "
                f"{100 * error:+.0f}% vs plan)"
            )
        lines.append(actual)
        return "\n".join(lines)

    # -- serialisation ---------------------------------------------------------

    def to_payload(self) -> dict[str, Any]:
        """JSON-serialisable form for ``EvalOutcome.metrics`` embedding."""
        return {
            "iteration_time": self.iteration_time,
            "predicted_time": self.predicted_time,
            "stages": {
                breakdown.stage: {
                    "span_s": breakdown.span_s,
                    "idle_s": breakdown.idle_s,
                    "bottleneck": breakdown.bottleneck,
                    "predicted_s": breakdown.predicted_s,
                    "predicted_bottleneck": breakdown.predicted_bottleneck,
                    "busy": {row.resource: row.busy_s for row in breakdown.resources},
                    "stall": {row.resource: row.stall_s for row in breakdown.resources},
                }
                for breakdown in self.stages
            },
        }

    @classmethod
    def from_payload(cls, payload: Mapping[str, Any]) -> "AttributionReport":
        stages = []
        for name, body in payload.get("stages", {}).items():
            span = float(body.get("span_s", 0.0))
            busy = body.get("busy", {})
            stall = body.get("stall", {})
            stages.append(
                StageBreakdown(
                    stage=name,
                    start=0.0,
                    end=span,
                    idle_s=float(body.get("idle_s", 0.0)),
                    bottleneck=body.get("bottleneck", ""),
                    predicted_s=body.get("predicted_s"),
                    predicted_bottleneck=body.get("predicted_bottleneck"),
                    resources=[
                        ResourceUsage(
                            resource=resource,
                            busy_s=float(seconds),
                            stall_s=float(stall.get(resource, 0.0)),
                            utilization=float(seconds) / span if span > 0 else 0.0,
                        )
                        for resource, seconds in busy.items()
                    ],
                )
            )
        return cls(
            stages=stages,
            iteration_time=float(payload.get("iteration_time", 0.0)),
            predicted_time=payload.get("predicted_time"),
        )


def attribute(
    trace: Trace,
    stage_windows: Mapping[str, tuple[float, float]],
    predicted: Any = None,
    resources: list[str] | None = None,
) -> AttributionReport:
    """Compute the full attribution report for one iteration.

    ``predicted`` is duck-typed to the
    :class:`~repro.core.iteration_model.IterationEstimate` surface
    (``.total`` plus per-stage :class:`StageTime` attributes named like
    the stage); pass ``None`` when no plan exists (baselines, runtime
    traces).  ``resources`` restricts the accounting (default: every
    resource in the trace).
    """
    names = resources if resources is not None else trace.resources()
    busy_table, unions = trace.busy_table(names, list(stage_windows.values()))
    stages: list[StageBreakdown] = []
    for column, (stage, (start, end)) in enumerate(stage_windows.items()):
        span = end - start
        any_busy = unions[column]
        rows: list[ResourceUsage] = []
        for resource, busy_row in zip(names, busy_table):
            busy = busy_row[column]
            rows.append(
                ResourceUsage(
                    resource=resource,
                    busy_s=busy,
                    # Idle-while-others-work: the resource could have
                    # overlapped but had nothing scheduled.
                    stall_s=max(0.0, any_busy - busy),
                    utilization=busy / span if span > 0 else 0.0,
                )
            )
        rows.sort(key=lambda row: row.busy_s, reverse=True)
        breakdown = StageBreakdown(
            stage=stage,
            start=start,
            end=end,
            resources=rows,
            idle_s=max(0.0, span - any_busy),
            bottleneck=rows[0].resource if rows and rows[0].busy_s > 0 else "",
        )
        _apply_prediction(breakdown, predicted)
        stages.append(breakdown)

    iteration_time = max((end for _start, end in stage_windows.values()), default=0.0)
    predicted_time = getattr(predicted, "total", None) if predicted is not None else None
    return AttributionReport(
        stages=stages,
        iteration_time=iteration_time,
        predicted_time=float(predicted_time) if predicted_time is not None else None,
    )


def _apply_prediction(breakdown: StageBreakdown, predicted: Any) -> None:
    """Attach one stage's planned time/bottleneck from the estimate."""
    if predicted is None:
        return
    stage_time = getattr(predicted, breakdown.stage, None)
    if stage_time is None:
        return
    breakdown.predicted_s = float(stage_time.total)
    components = getattr(stage_time, "components", None)
    if components:
        binding = max(components, key=components.__getitem__)
        breakdown.predicted_bottleneck = MODEL_TO_TRACE.get(binding, binding)
