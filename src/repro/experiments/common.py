"""Shared helpers for the per-figure experiment modules.

All evaluation points route through the shared default
:class:`~repro.runner.Sweep` (:func:`repro.runner.default_sweep`), so
every figure benefits from content-keyed memoization — overlapping
points across figures (the 13B/batch-32 point appears in Figs. 1, 5 and
the traffic report, for instance) are planned and simulated once — and
from the parallel fan-out / disk cache the CLI can configure.

The pre-``evaluate()`` shims (``throughput_tokens_per_s``,
``best_throughput``) were removed after a deprecation cycle; use
:func:`evaluate_point` / :func:`best_feasible`.
"""

from __future__ import annotations

import math

from repro.core.evaluation import EvalOutcome
from repro.core.policy import OffloadPolicy
from repro.hardware.spec import ServerSpec
from repro.runner import SweepPoint, default_sweep

#: Marker for configurations a system cannot run (rendered as "-").
FAILED = float("nan")


def evaluate_point(
    policy: OffloadPolicy,
    config,
    batch_size: int,
    server: ServerSpec,
    *,
    simulate_infeasible: bool = False,
    detail: bool = False,
) -> EvalOutcome:
    """Cached rich evaluation of one (policy, model, batch, server) point."""
    return default_sweep().evaluate(
        policy,
        config,
        batch_size,
        server,
        simulate_infeasible=simulate_infeasible,
        detail=detail,
    )


def evaluate_grid(points) -> list:
    """Run a grid of :class:`SweepPoint` through the shared sweep (ordered)."""
    return default_sweep().run(points)


def best_feasible(
    policy: OffloadPolicy,
    config,
    server: ServerSpec,
    batch_candidates: tuple[int, ...],
    *,
    metric: str = "tokens_per_s",
) -> tuple[int, EvalOutcome] | None:
    """Best feasible (batch, outcome) over the candidates, or ``None``.

    The paper's "maximum throughput" points adopt the largest-``metric``
    feasible batch per system, which with offloading is usually — but not
    always — the largest feasible batch.
    """
    points = [
        SweepPoint.evaluate(policy, config, batch, server)
        for batch in batch_candidates
    ]
    best: tuple[int, EvalOutcome] | None = None
    for batch, outcome in zip(batch_candidates, default_sweep().run(points)):
        if not outcome.feasible:
            continue
        if best is None or getattr(outcome, metric) > getattr(best[1], metric):
            best = (batch, outcome)
    return best


def is_failed(value: float) -> bool:
    """True for the NaN failure marker."""
    return isinstance(value, float) and math.isnan(value)
