"""Rich single-point evaluation outcomes.

:class:`EvalOutcome` is what :meth:`~repro.core.policy.OffloadPolicy.evaluate`
returns: one object carrying the feasibility verdict, the activation plan
summary and the simulated iteration's metrics for a (policy, model,
batch, server) point.  It replaces the historical split
``feasible()`` / ``plan()`` / ``simulate()`` round-trips, each of which
re-ran Algorithm 1 from scratch.

The outcome is deliberately two-layered:

* ``metrics`` is a flat, JSON-serialisable dict of derived numbers
  (tokens/s, TFLOPS, stage times, per-stage link utilization).  This is
  what :mod:`repro.runner` memoizes on disk and ships across process
  boundaries.
* ``result`` is the live :class:`~repro.core.engine.IterationResult`
  (with the full event trace) when the point was simulated in this
  process; it is ``None`` on cache hits that were rehydrated from the
  metrics payload.
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass, field
from typing import Any

from repro.obs.attribution import AttributionReport, attribute

from .engine import IterationResult

#: Resources whose per-stage busy fractions are captured into ``metrics``
#: (the links the paper's Fig. 1 annotates).
_UTILIZATION_RESOURCES = ("gpu0", "pcie_m2g0", "pcie_g2m0", "ssd")

#: Scalar IterationResult properties copied into ``metrics``.
_SCALAR_METRICS = (
    "iteration_time",
    "tokens_per_s",
    "samples_per_s",
    "achieved_tflops",
    "gpu_busy_fraction",
    "optimizer_fraction",
    "forward_time",
    "backward_time",
    "optimizer_time",
)


@dataclass(frozen=True)
class PlanSummary:
    """The serialisable gist of an Algorithm-1 :class:`SwapPlan`."""

    a_g2m: float
    a_to_main: float
    a_to_ssd: float
    case: str
    t_iter: float
    swapped: tuple[str, ...] = ()

    @classmethod
    def from_plan(cls, plan: Any) -> "PlanSummary":
        """Summarise any object with the SwapPlan attribute surface."""
        return cls(
            a_g2m=plan.a_g2m,
            a_to_main=plan.a_to_main,
            a_to_ssd=plan.a_to_ssd,
            case=plan.case.name,
            t_iter=plan.t_iter,
            swapped=tuple(plan.swapped),
        )


def collect_metrics(result: IterationResult, estimate: Any = None) -> dict[str, Any]:
    """Flatten an :class:`IterationResult` into the cacheable metrics dict.

    ``estimate`` (an Algorithm-1
    :class:`~repro.core.iteration_model.IterationEstimate`, when the
    policy planned one) feeds the predicted-vs-actual comparison inside
    the bottleneck-attribution block.
    """
    metrics: dict[str, Any] = {name: getattr(result, name) for name in _SCALAR_METRICS}
    report = attribute(result.trace, result.stage_windows, predicted=estimate)
    # The report already holds busy / span for every stage and resource in
    # the trace; a resource absent from the trace was never busy.
    metrics["utilization"] = {}
    for breakdown in report.stages:
        busy = {row.resource: row.utilization for row in breakdown.resources}
        metrics["utilization"][breakdown.stage] = {
            resource: busy.get(resource, 0.0) for resource in _UTILIZATION_RESOURCES
        }
    metrics["attribution"] = report.to_payload()
    if report.predicted_time is not None:
        metrics["predicted_iteration_time"] = report.predicted_time
    return metrics


@dataclass
class EvalOutcome:
    """Feasibility + plan + simulated metrics for one evaluation point."""

    policy: str
    model: str
    batch_size: int
    server: str
    feasible: bool
    supported: bool = True
    reason: str | None = None
    plan: PlanSummary | None = None
    metrics: dict[str, Any] = field(default_factory=dict)
    #: Live simulation result (trace included); ``None`` when this
    #: outcome was rehydrated from a cache payload.
    result: IterationResult | None = None
    #: Set by :mod:`repro.runner` when the outcome came from its cache.
    cached: bool = False

    # -- metric accessors (NaN marks "not simulated / infeasible") -------------

    def _metric(self, name: str) -> float:
        value = self.metrics.get(name)
        return float(value) if value is not None else math.nan

    @property
    def iteration_time(self) -> float:
        """End-to-end seconds per iteration (NaN when not simulated)."""
        return self._metric("iteration_time")

    @property
    def tokens_per_s(self) -> float:
        """Training throughput (the paper's Fig. 5 metric)."""
        return self._metric("tokens_per_s")

    @property
    def samples_per_s(self) -> float:
        """Sequences (LLM) or images (DiT) per second (Fig. 12)."""
        return self._metric("samples_per_s")

    @property
    def achieved_tflops(self) -> float:
        """Useful model FLOPs per second (Fig. 5c)."""
        return self._metric("achieved_tflops")

    @property
    def gpu_busy_fraction(self) -> float:
        """Fraction of the iteration the GPU executes kernels (Fig. 2b)."""
        return self._metric("gpu_busy_fraction")

    @property
    def optimizer_fraction(self) -> float:
        """Separate optimizer stage as a fraction of the iteration (Fig. 2c)."""
        return self._metric("optimizer_fraction")

    @property
    def forward_time(self) -> float:
        """Forward-stage seconds."""
        return self._metric("forward_time")

    @property
    def backward_time(self) -> float:
        """Backward-stage seconds."""
        return self._metric("backward_time")

    @property
    def optimizer_time(self) -> float:
        """Separate optimizer-stage seconds (0 under active offloading)."""
        return self._metric("optimizer_time")

    @property
    def predicted_iteration_time(self) -> float:
        """Algorithm-1's planned T_iter (NaN when no plan was made)."""
        return self._metric("predicted_iteration_time")

    def utilization(self, resource: str, stage: str) -> float:
        """Busy fraction of ``resource`` within one stage window (Fig. 1)."""
        table = self.metrics.get("utilization") or {}
        stage_table = table.get(stage)
        if stage_table is not None and resource in stage_table:
            return float(stage_table[resource])
        if self.result is not None:
            return self.result.utilization(resource, stage)
        return 0.0

    def attribution(self) -> AttributionReport | None:
        """The bottleneck-attribution report for this point, if simulated.

        Rehydrated from the cached metrics payload when present (cache
        hits included); ``None`` for points that were never simulated.
        """
        payload = self.metrics.get("attribution")
        if payload is not None:
            return AttributionReport.from_payload(payload)
        if self.result is not None:
            return attribute(self.result.trace, self.result.stage_windows)
        return None

    def require_result(self) -> IterationResult:
        """The live simulation result, or an error explaining its absence."""
        if self.result is None:
            if not self.feasible:
                raise ValueError(
                    f"{self.policy}/{self.model}/b{self.batch_size}: not "
                    f"simulated ({self.reason or 'infeasible'})"
                )
            raise ValueError(
                f"{self.policy}/{self.model}/b{self.batch_size}: no live "
                "IterationResult attached (cache hit without a trace); "
                "re-evaluate with detail=True"
            )
        return self.result

    # -- serialisation ---------------------------------------------------------

    def to_payload(self) -> dict[str, Any]:
        """JSON-serialisable payload (drops the live trace)."""
        return {
            "policy": self.policy,
            "model": self.model,
            "batch_size": self.batch_size,
            "server": self.server,
            "feasible": self.feasible,
            "supported": self.supported,
            "reason": self.reason,
            "plan": asdict(self.plan) if self.plan is not None else None,
            "metrics": self.metrics,
        }

    @classmethod
    def from_payload(cls, payload: dict[str, Any]) -> "EvalOutcome":
        """Rebuild an outcome from :meth:`to_payload` output."""
        plan = payload.get("plan")
        return cls(
            policy=payload["policy"],
            model=payload["model"],
            batch_size=payload["batch_size"],
            server=payload["server"],
            feasible=payload["feasible"],
            supported=payload.get("supported", True),
            reason=payload.get("reason"),
            plan=PlanSummary(
                a_g2m=plan["a_g2m"],
                a_to_main=plan["a_to_main"],
                a_to_ssd=plan["a_to_ssd"],
                case=plan["case"],
                t_iter=plan["t_iter"],
                swapped=tuple(plan.get("swapped", ())),
            )
            if plan is not None
            else None,
            metrics=payload.get("metrics", {}),
        )
