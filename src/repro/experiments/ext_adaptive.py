"""Extension: online adaptive resilience (the ``repro.adapt`` drill).

``ext_resilience`` measures recovery postures *between* iterations with
perfect knowledge of the failure.  This extension closes the loop: the
standard fault drill (one SSD dropout mid-iteration, a thermal bandwidth
sag stacked on top, then full recovery) runs end to end under three
postures and nobody tells the adaptive controller what happened — it has
to *notice* via the :class:`~repro.adapt.health.HealthMonitor`'s drift
detection and replan live.

* **stale**       — the healthy Algorithm-1 plan rides through unchanged.
* **replan once** — the oracle: a single replan at the first iteration
  that starts degraded, with perfect knowledge of the surviving array.
* **adaptive**    — the :class:`~repro.adapt.AdaptiveController`:
  EWMA drift detection over each iteration's result (effective SSD
  bandwidth, stage times, the drives the iteration ended with),
  Algorithm-1 replans on drift, the degradation ladder when replanning
  alone cannot meet the deadline, and hysteresis on the way back up.

The second table is the adaptive controller's decision timeline — every
plan swap with the :class:`~repro.adapt.health.DriftEvent` that
triggered it, which is the audit trail the run ledger records.
"""

from __future__ import annotations

from repro.adapt import POSTURES, run_drill, standard_drill
from repro.adapt.driver import BASELINE_SSDS
from repro.analysis.report import ExperimentResult


def run(model_name: str = "135B", batch_size: int = 40) -> list[ExperimentResult]:
    """The standard fault drill under stale / replan-once / adaptive."""
    drill = standard_drill()
    runs = {
        posture: run_drill(posture, model_name, batch_size, drill=drill)
        for posture in POSTURES
    }

    table = ExperimentResult(
        experiment="ext_adaptive",
        title=(
            f"{model_name} (batch {batch_size}), {BASELINE_SSDS}-drive array: "
            f"{len(drill)}-iteration fault drill (dropout + bandwidth sag + recovery)"
        ),
        columns=["posture", "total time (s)", "ms/token", "vs stale", "plan swaps"],
    )
    stale_spt = runs["stale"].seconds_per_token
    for posture in ("stale", "replan_once", "adaptive"):
        run_ = runs[posture]
        spt = run_.seconds_per_token
        table.add_row(
            posture,
            run_.total_time,
            spt * 1e3,
            f"{spt / stale_spt:.3f}x",
            run_.plan_swaps,
        )
    table.note(
        "replan-once is the oracle (told about the failure, replans "
        "instantly and perfectly); the adaptive controller has to detect "
        "the same drift from effective-bandwidth EWMAs and the drive count "
        "each iteration reports, "
        "then un-do its response when the array heals — the gap between "
        "the two rows is the price of detection latency and hysteresis"
    )

    timeline = ExperimentResult(
        experiment="ext_adaptive",
        title="adaptive controller decision timeline (non-hold decisions)",
        columns=["iteration", "action", "rung", "trigger"],
    )
    for decision in runs["adaptive"].decisions:
        if decision.action == "hold" and not decision.events:
            continue
        timeline.add_row(
            decision.iteration, decision.action, decision.rung, decision.reason
        )
    timeline.note(
        "every plan swap lands in the run ledger as an `adapt` entry "
        "carrying the triggering drift event; cooldown holds and the "
        "hysteresis band keep a noisy-but-healthy trace at zero swaps"
    )
    return [table, timeline]
