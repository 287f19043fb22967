"""Bench: cost of the health-monitor hook on ``RatelRuntime.train_step``.

The adaptive-resilience contract mirrors the obs one: a runtime without
a health monitor attached must train at the speed of a runtime that has
never heard of :mod:`repro.adapt`.  A detached monitor is simply not in
the runtime's step hooks, so its cost is a count times a price, the form
``bench_obs.py`` uses for the sim's disabled profiler hook:

* **hook calls per step** — a counting hook registered with
  ``add_step_hook`` runs once per ``train_step``, and zero times once it
  is removed from ``runtime._step_hooks`` (the detached state);
* **per-call cost** — ``health(runtime)`` timed directly over a tight
  loop, min of repeats;
* **baseline step time** — ``train_step`` with no hook registered.

The detached overhead is calls per step x per-call cost / baseline step
time, and the bar is **< 2%**.  Timing a detached arm against a baseline
arm instead would compare two runs of identical code, whose spread on a
small host is wider than the bar.  The **attached** reading —
:class:`~repro.adapt.RuntimeHealth` registered, every step timed and fed
through the EWMA drift detector — is timed end to end against the
baseline in interleaved repeats and recorded for information (no bar:
monitoring genuinely does work per step).  Results land in
``benchmarks/results/BENCH_adapt.json``.  Runs under the ``bench_smoke``
marker.
"""

from __future__ import annotations

import time

import numpy as np
import pytest

from repro.adapt import RuntimeHealth
from repro.runtime import (
    CrossEntropyLoss,
    GPTModel,
    RatelOptimizer,
    ratel_hook,
    ratel_init,
)

from conftest import write_bench_json

GB = 1e9
VOCAB, DIM, LAYERS, HEADS, SEQ, BATCH = 53, 32, 3, 4, 16, 4

#: Same acceptance bar as the obs bench: a monitor that is not attached
#: must be indistinguishable from a monitor that does not exist.
MAX_DETACHED_OVERHEAD_PCT = 2.0

STEPS = 3
REPEATS = 5
#: ``health(runtime)`` calls per timed repeat of the per-call price.
CALLS = 2_000


def _overhead_pct(off: float, on: float) -> float:
    return (on - off) / off * 100 if off > 0 else 0.0


@pytest.mark.bench_smoke
def test_detached_health_monitor_is_free():
    loss_fn = CrossEntropyLoss()
    # Host-tier checkpoints and states: no NVMe I/O in the timed loop, so
    # the measurement isolates the train_step dispatch overhead (the
    # thing the <2% bar is about) from disk jitter.
    with ratel_init(
        gpu_capacity=1 * GB,
        host_capacity=4 * GB,
        nvme_capacity=4 * GB,
        checkpoint_tier="host",
        states_tier="host",
        active_offload=True,
    ):
        model = GPTModel(VOCAB, DIM, LAYERS, HEADS, SEQ, np.random.default_rng(3))
        runtime = ratel_hook(model)
        RatelOptimizer(model, runtime, lr=1e-2)
        rng = np.random.default_rng(17)
        ids = rng.integers(0, VOCAB, size=(BATCH, SEQ))
        targets = np.roll(ids, -1, axis=1)

        def timed_steps() -> float:
            started = time.perf_counter()
            for _ in range(STEPS):
                runtime.train_step(lambda: loss_fn(model(ids), targets))
            return time.perf_counter() - started

        timed_steps()  # warm allocators and caches

        calls = 0

        def counting_hook(_runtime) -> None:
            nonlocal calls
            calls += 1

        runtime.add_step_hook(counting_hook)
        timed_steps()
        attached_calls_per_step = calls / STEPS
        runtime._step_hooks.remove(counting_hook)
        calls = 0
        timed_steps()
        detached_calls_per_step = calls / STEPS

        # A generous warmup keeps the monitor in its baseline-building
        # phase for the whole bench: no call below moves the runtime's
        # ladder, so every timed step runs the same path.
        health = RuntimeHealth(warmup_steps=10**9)

        def timed_calls() -> float:
            started = time.perf_counter()
            for _ in range(CALLS):
                health(runtime)
            return time.perf_counter() - started

        timed_calls()  # warm
        per_call_s = min(timed_calls() for _ in range(REPEATS)) / CALLS

        baseline: list[float] = []
        attached: list[float] = []
        for _ in range(REPEATS):
            baseline.append(timed_steps())
            runtime.add_step_hook(health)
            attached.append(timed_steps())
            runtime._step_hooks.remove(health)

    step_s = min(baseline) / STEPS
    detached_pct = detached_calls_per_step * per_call_s / step_s * 100
    attached_pct = _overhead_pct(min(baseline), min(attached))

    assert attached_calls_per_step == 1, "a registered hook must run once per step"
    assert detached_calls_per_step == 0, "a removed hook must not run"

    payload = {
        "steps": STEPS,
        "repeats": REPEATS,
        "baseline_s": min(baseline),
        "attached_s": min(attached),
        "hook_calls_per_step_attached": attached_calls_per_step,
        "hook_calls_per_step_detached": detached_calls_per_step,
        "health_call_us": per_call_s * 1e6,
        "detached_overhead_pct": detached_pct,
        "attached_overhead_pct": attached_pct,
        "max_detached_overhead_pct": MAX_DETACHED_OVERHEAD_PCT,
    }
    write_bench_json("adapt", payload)
    print(
        f"\nadapt overhead: detached {detached_pct:+.2f}% "
        f"({detached_calls_per_step:g} calls/step x {per_call_s * 1e6:.2f} us "
        f"/ {step_s * 1e3:.2f} ms; bar {MAX_DETACHED_OVERHEAD_PCT:.0f}%), "
        f"attached {attached_pct:+.1f}% end to end"
    )

    assert detached_pct < MAX_DETACHED_OVERHEAD_PCT, (
        f"detached health monitor costs {detached_pct:.2f}% "
        f"(bar {MAX_DETACHED_OVERHEAD_PCT}%)"
    )
