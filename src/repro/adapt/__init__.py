"""``repro.adapt`` — online resilience: drift detection + a control loop.

Ratel's plan quality hinges on the §IV-B hardware profile staying true:
Algorithm 1 sizes ``A_G2M`` and the recompute set from measured
``BW_S2M``/``BW_M2S``/``THP_G``, so a drive dropout or a thermal
bandwidth sag mid-run silently turns the "optimal" plan into a stall
generator.  :mod:`repro.faults` can *inject* those faults and
:mod:`repro.obs` can *see* the resulting binding-resource flips; this
package closes the loop at runtime:

* :mod:`~repro.adapt.health` — a :class:`HealthMonitor` folding the
  signals the repo already emits (per-channel effective bandwidths from
  sim traces, per-stage times vs Algorithm 1's
  :class:`~repro.core.iteration_model.IterationEstimate`, storage-layer
  error rates) into EWMA estimates and raising typed ``DriftEvent``s
  past the module's threshold constants;
* :mod:`~repro.adapt.ladder` — the graceful-degradation ladder: a
  sequence of increasingly conservative rungs (Algorithm-1 plan → more
  recomputation → larger SSD spill share → smaller micro-batch →
  synchronous optimizer), each compilable into a runnable
  :class:`~repro.core.schedule.IterationSchedule`;
* :mod:`~repro.adapt.controller` — the :class:`AdaptiveController`
  control loop: on drift it re-profiles from observed rates and re-runs
  Algorithm 1; if the replanned config is infeasible or still missing
  its deadline it steps down the ladder, and it steps back up with
  hysteresis once health recovers (no flapping).  Every decision is an
  obs span, a metrics counter and a ledger annotation;
* :mod:`~repro.adapt.driver` — the fault-drill harness: the standard
  PR-2 drill (one SSD dropout + a bandwidth sag), and :func:`run_drill`
  comparing the *stale*, *replan-once* (oracle) and *adaptive*
  postures, the controller reading each iteration's result;
* :mod:`~repro.adapt.runtime_hook` — :class:`RuntimeHealth`, a step
  hook for :class:`~repro.runtime.offload.RatelRuntime`: step-time
  drift and storage error rates drive a runtime ladder (NVMe→host
  checkpoints, synchronous optimizer) with the same hysteresis semantics.

Surfaced through ``repro sweep --adapt``, the ``ext_adaptive``
experiment and the ``chaos-drill`` CI job.
"""

from .controller import AdaptiveController, Decision
from .driver import (
    POSTURES,
    DrillStep,
    PostureRun,
    drill_outcome,
    run_drill,
    standard_drill,
)
from .health import (
    AdaptError,
    BandwidthDrift,
    DriveDrift,
    Ewma,
    HealthMonitor,
    IOErrorDrift,
    StageOverrun,
    ssd_effective_bandwidth,
)
from .ladder import (
    DEFAULT_LADDER,
    LadderRung,
    RungPlan,
    compile_rung,
    rung_shortfalls,
)
from .runtime_hook import RuntimeHealth

__all__ = [
    "AdaptiveController",
    "Decision",
    "POSTURES",
    "DrillStep",
    "PostureRun",
    "drill_outcome",
    "run_drill",
    "standard_drill",
    "AdaptError",
    "BandwidthDrift",
    "DriveDrift",
    "Ewma",
    "HealthMonitor",
    "IOErrorDrift",
    "StageOverrun",
    "ssd_effective_bandwidth",
    "DEFAULT_LADDER",
    "LadderRung",
    "RungPlan",
    "compile_rung",
    "rung_shortfalls",
    "RuntimeHealth",
]
