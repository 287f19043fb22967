"""Bench: the DES layer's work and cost on a fixed grid of cold what-ifs.

Evaluates the nine systems of ``repro sweep --systems`` on three LLM
presets at batch 8 and 32 on the evaluation server (RTX 4090, 6 SSDs),
and re-runs each feasible point's simulation.  It records the work
(simulations, trace intervals, dispatches, and the dispatches split
into heap pops and same-time pops) and the cost (min-of-N milliseconds
per simulation of ``run_iteration`` and of ``collect_metrics``, the
latter on a fresh copy of the trace so deriving its columns is inside
the timer), plus a digest of every interval and metrics payload.

The dispatch total and the digest must not change when the kernel or
the attribution gets faster.  Results land in
``benchmarks/results/BENCH_sim.json``; its ``before`` block is this file
run at 51cb560, before the same-time queue, on the same host.  Runs
under the ``bench_smoke`` marker.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import os
import platform
import time

import pytest

from repro.baselines import (
    ColossalAIPolicy,
    FlashNeuronPolicy,
    GreedySnakePolicy,
    ZenFlowPolicy,
    ZeroInfinityPolicy,
    ZeroOffloadPolicy,
)
from repro.core import RatelPolicy
from repro.core.engine import run_iteration
from repro.core.evaluation import collect_metrics
from repro.hardware import evaluation_server
from repro.models import llm, profile_model
from repro.sim import Simulator, Trace, set_event_hook

from conftest import write_bench_json

SYSTEMS = {
    "ratel": RatelPolicy,
    "ratel-naive": lambda: RatelPolicy("naive"),
    "ratel-zero": lambda: RatelPolicy("zero"),
    "zero-infinity": ZeroInfinityPolicy,
    "zero-offload": ZeroOffloadPolicy,
    "colossal-ai": ColossalAIPolicy,
    "flashneuron": FlashNeuronPolicy,
    "zenflow": ZenFlowPolicy,
    "greedysnake": GreedySnakePolicy,
}
PRESETS = ("13B", "70B", "175B")
BATCHES = (8, 32)
REPEATS = 5


def _simulations() -> list[tuple]:
    """(server, schedule, estimate) of every feasible point of the grid."""
    server = evaluation_server()
    sims = []
    for preset in PRESETS:
        for batch in BATCHES:
            for make in SYSTEMS.values():
                policy = make()
                profile = profile_model(llm(preset), batch)
                outcome = policy.evaluate(profile, server)
                if outcome.result is None:
                    continue
                planner = getattr(policy, "plan", None)
                estimate = planner(profile, server).estimate if callable(planner) else None
                result = outcome.result
                sims.append((result.server, result.schedule, estimate))
    return sims


def _work(sims) -> tuple[dict, list]:
    """Dispatches (total, heap, same-time), intervals and the content digest."""
    dispatches = heap = 0
    run = Simulator.run

    def counting_run(sim):
        nonlocal heap
        end = run(sim)
        heap += sim._seq  # every heap entry made was popped by the end
        return end

    def count(callback, arg):
        nonlocal dispatches
        dispatches += 1
        callback(arg)

    Simulator.run = counting_run
    previous = set_event_hook(count)
    try:
        results = [run_iteration(server, schedule) for server, schedule, _ in sims]
    finally:
        set_event_hook(previous)
        Simulator.run = run
    digest = hashlib.sha256()
    for result, (_server, _schedule, estimate) in zip(results, sims):
        for interval in result.trace.intervals:
            fields = (interval.start, interval.end, float(interval.amount))
            digest.update(f"{interval.resource} {interval.label} {[x.hex() for x in fields]}".encode())
        metrics = collect_metrics(result, estimate)
        digest.update(json.dumps(metrics, sort_keys=True, default=str).encode())
    work = {
        "simulations": len(results),
        "intervals": sum(len(result.trace.intervals) for result in results),
        "dispatches": dispatches,
        "heap_pops": heap,
        "same_time_pops": dispatches - heap,
        "digest": digest.hexdigest()[:16],
    }
    return work, results


def _min_ms_per_simulation(sims, results) -> tuple[float, float]:
    """Mean over simulations of the min-of-REPEATS DES and metrics times."""
    des = [float("inf")] * len(sims)
    metrics = [float("inf")] * len(sims)
    for _ in range(REPEATS):
        for i, ((server, schedule, estimate), result) in enumerate(zip(sims, results)):
            started = time.perf_counter()
            run_iteration(server, schedule)
            des[i] = min(des[i], time.perf_counter() - started)
            fresh = dataclasses.replace(result, trace=Trace(list(result.trace.intervals)))
            started = time.perf_counter()
            collect_metrics(fresh, estimate)
            metrics[i] = min(metrics[i], time.perf_counter() - started)
    return 1e3 * sum(des) / len(des), 1e3 * sum(metrics) / len(metrics)


@pytest.mark.bench_smoke
def test_sim_work_and_cost():
    sims = _simulations()
    work, results = _work(sims)
    des_ms, metrics_ms = _min_ms_per_simulation(sims, results)
    assert work["simulations"] > 0 and work["dispatches"] >= work["heap_pops"] > 0
    payload = {
        "host": f"{platform.machine()}, {os.cpu_count()} CPUs, Python {platform.python_version()}",
        "grid": f"{len(SYSTEMS)} systems x {PRESETS} x batch {BATCHES}, evaluation server",
        "work": work,
        "des_ms_per_sim": des_ms,
        "collect_metrics_ms_per_sim": metrics_ms,
        "repeats": REPEATS,
    }
    write_bench_json("sim", payload)
    print(
        f"\nsim bench: {work['simulations']} simulations, {work['intervals']} intervals, "
        f"{work['dispatches']} dispatches ({work['heap_pops']} heap, "
        f"{work['same_time_pops']} same-time); DES {des_ms:.3f} ms/sim, "
        f"collect_metrics {metrics_ms:.3f} ms/sim (min of {REPEATS}); digest {work['digest']}"
    )
