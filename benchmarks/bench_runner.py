"""Bench: the sweep orchestrator vs the seed's sequential evaluation loop.

Times the Fig. 5a grid (4 systems x 5 batches of the 13B model on the
RTX 4090) four ways:

* ``seed_sequential`` — the pre-runner code path: one
  ``feasible``/``simulate`` round-trip per point, no memoization;
* ``runner_cold``     — the same grid through a fresh :class:`Sweep`;
* ``runner_warm``     — the grid again on the warm cache (the acceptance
  bar: >= 3x faster than the seed path, numerically identical);
* ``runner_process``  — a fresh sweep fanned out across a process pool.

A second test prices one content key (``SweepPoint.key``), min-of-N
microseconds per call, three ways: a point never keyed before, a point
equal in value to one keyed before but built from new policy and server
objects, and the same point object again.  It also counts the
``cache_key`` calls (the describe → JSON → SHA-256 path) that an SJF
bursty drill makes on a cold and then on a warm sweep.  Its ``before``
block is this file run at 49963bc, before keys were memoized; the bench
uses only APIs both versions have.

The timings land in ``benchmarks/results/BENCH_runner.json`` so the
speedups are diffable across commits.  Runs under the ``bench_smoke``
marker (the fast "bench-smoke" tier): plain ``time.perf_counter``, no
pytest-benchmark dependency.
"""

from __future__ import annotations

import math
import os
import platform
import time

import pytest

import repro.runner.sweep as sweep_module
from repro.core import RatelPolicy
from repro.experiments.fig5_throughput import sweep_points
from repro.fleet import CostOracle, run_bursty_drill
from repro.hardware import evaluation_server
from repro.models import llm
from repro.models.profile import profile_model
from repro.runner import Sweep, SweepPoint

from conftest import write_bench_json

#: The warm-cache acceptance bar relative to the seed's sequential loop.
MIN_WARM_SPEEDUP = 3.0

#: Keys per timed batch, and batches per timing (the minimum is kept).
KEYS_PER_BATCH = 500
KEY_REPEATS = 15


def _seed_sequential(points) -> list[float]:
    """The pre-runner evaluation loop: per-point feasibility + simulation."""
    values = []
    for point in points:
        profile = profile_model(point.config, point.batch_size)
        if not point.policy.feasible(profile, point.server):
            values.append(float("nan"))
            continue
        values.append(point.policy.simulate(profile, point.server).tokens_per_s)
    return values


def _tokens(outcomes) -> list[float]:
    return [o.tokens_per_s if o.feasible else float("nan") for o in outcomes]


def _same(a: list[float], b: list[float]) -> bool:
    return all(
        (math.isnan(x) and math.isnan(y)) or x == y for x, y in zip(a, b)
    ) and len(a) == len(b)


@pytest.mark.bench_smoke
def test_runner_vs_sequential():
    points = sweep_points()

    # Planning memoizes on the policy instances; rebuild the grid per
    # variant so each timing starts from genuinely cold policies.
    started = time.perf_counter()
    seed_values = _seed_sequential(sweep_points())
    seed_s = time.perf_counter() - started
    profile_model.cache_clear()

    sweep = Sweep()
    started = time.perf_counter()
    cold = _tokens(sweep.run(points))
    cold_s = time.perf_counter() - started

    started = time.perf_counter()
    warm = _tokens(sweep.run(points))
    warm_s = time.perf_counter() - started

    profile_model.cache_clear()
    started = time.perf_counter()
    parallel = _tokens(Sweep(executor="process", max_workers=4).run(sweep_points()))
    parallel_s = time.perf_counter() - started

    assert _same(seed_values, cold)
    assert _same(seed_values, warm)
    assert _same(seed_values, parallel)

    warm_speedup = seed_s / warm_s if warm_s > 0 else float("inf")
    assert warm_speedup >= MIN_WARM_SPEEDUP, (
        f"warm cache only {warm_speedup:.1f}x over the sequential seed path"
    )

    payload = {
        "grid_points": len(points),
        "seed_sequential_s": seed_s,
        "runner_cold_s": cold_s,
        "runner_warm_s": warm_s,
        "runner_process_s": parallel_s,
        "warm_speedup_vs_seed": warm_speedup,
        "cache": {
            "hits": sweep.stats.hits,
            "misses": sweep.stats.misses,
        },
    }
    write_bench_json("runner", payload)
    print(
        f"\nrunner bench: seed {seed_s:.2f}s, cold {cold_s:.2f}s, "
        f"warm {warm_s:.4f}s ({warm_speedup:.0f}x), process {parallel_s:.2f}s"
    )


def _min_key_us(make_point) -> float:
    """Min-of-N microseconds per ``key()`` over batches of fresh points."""
    best = float("inf")
    for repeat in range(KEY_REPEATS):
        points = [make_point(repeat, i) for i in range(KEYS_PER_BATCH)]
        started = time.perf_counter()
        for point in points:
            point.key()
        best = min(best, (time.perf_counter() - started) / KEYS_PER_BATCH)
    return best * 1e6


def _cache_key_calls(drill) -> tuple[int, int]:
    """``cache_key`` calls and distinct keys while ``drill()`` runs."""
    keys: list[str] = []
    cache_key = sweep_module.cache_key

    def counting(kind, **components):
        keys.append(cache_key(kind, **components))
        return keys[-1]

    sweep_module.cache_key = counting
    try:
        drill()
    finally:
        sweep_module.cache_key = cache_key
    return len(keys), len(set(keys))


@pytest.mark.bench_smoke
def test_key_cost():
    config = llm("13B")
    # Batch 3 is keyed nowhere else in this process, so the point the
    # memo holds for it is ``point`` itself.
    point = SweepPoint.evaluate(RatelPolicy(), config, 3, evaluation_server())
    point.key()
    repeated_us = _min_key_us(lambda repeat, i: point)
    value_equal_us = _min_key_us(
        lambda repeat, i: SweepPoint.evaluate(RatelPolicy(), config, 3, evaluation_server())
    )
    fresh_us = _min_key_us(
        lambda repeat, i: SweepPoint.evaluate(
            RatelPolicy(), config, 1_000 + repeat * KEYS_PER_BATCH + i, evaluation_server()
        )
    )

    oracle = CostOracle(Sweep())

    def drill():
        run_bursty_drill("sjf", seed=9, oracle=oracle)

    cold_calls, cold_keys = _cache_key_calls(drill)
    warm_calls, warm_keys = _cache_key_calls(drill)
    payload = {
        "host": f"{platform.machine()}, {os.cpu_count()} CPUs, Python {platform.python_version()}",
        "key_us": {
            "fresh_point": fresh_us,
            "value_equal_point": value_equal_us,
            "repeated_point": repeated_us,
        },
        "sjf_drill_seed9": {
            "cold_cache_key_calls": cold_calls,
            "cold_distinct_keys": cold_keys,
            "warm_cache_key_calls": warm_calls,
            "warm_distinct_keys": warm_keys,
        },
    }
    write_bench_json("runner", {"keys": payload})
    print(
        f"\nkey cost: fresh {fresh_us:.1f} us, value-equal {value_equal_us:.1f} us, "
        f"repeated {repeated_us:.1f} us; SJF drill cache_key calls cold {cold_calls} "
        f"({cold_keys} distinct), warm {warm_calls}"
    )
    assert cold_keys == 15
    assert warm_calls == 0, f"a warm drill recomputed {warm_calls} content keys"
