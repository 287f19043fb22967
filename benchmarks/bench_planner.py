"""Bench: Algorithm 1's cost per plan and per capacity search.

Times one cold plan (a fresh profile, so building the benefit order is
inside the timer) for 16 LLM configurations, the eight Table IV presets
at batch 8 and 32, on an RTX 4090 with 256 GiB of DRAM and 6 SSDs.  It
also times one cold ``max_trainable_params`` search (batch 8) and one
cold ``max_batch_size`` search (30B) with Ratel on that server, counts
the ``iteration_time`` and ``recompute_flops_for`` calls each plan
makes, and counts the feasibility probes and Algorithm 1 runs each
search makes for every Ratel-family system.  Timings are the minimum
over repeats.

Results land in ``benchmarks/results/BENCH_planner.json``.  Its
``before`` block is this file run at 255147d on the same host, where
every feasibility probe still planned; the bench uses only APIs both
versions have.  Runs under the ``bench_smoke`` marker.
"""

from __future__ import annotations

import os
import platform
import time

import pytest

import repro.core.ratel as ratel_module
from repro.baselines import GreedySnakePolicy, ZenFlowPolicy
from repro.core import IterationTimeModel, RatelPolicy, max_batch_size, max_trainable_params
from repro.core.activation_swap import plan_activation_swapping
from repro.core.policy import OffloadPolicy
from repro.hardware import RTX_4090, GiB, evaluation_server
from repro.models import LLM_PRESETS, ModelProfile, gpt_block_profile, llm, profile_model

from conftest import write_bench_json

BATCHES = (8, 32)
PLAN_REPEATS = 25
SEARCH_REPEATS = 5
SEARCH_BATCH = 8
SEARCH_PRESET = "30B"
FAMILY = {
    "Ratel": RatelPolicy,
    "Ratel+ZeRO": lambda: RatelPolicy("zero"),
    "ZenFlow(K=2)": ZenFlowPolicy,
    "GreedySnake": GreedySnakePolicy,
}


def _server():
    return evaluation_server(gpu=RTX_4090, main_memory_bytes=256 * GiB, n_ssds=6)


def _fresh_profile(config, batch: int) -> ModelProfile:
    """A profile outside ``profile_model``'s memo: nothing is cached yet."""
    return ModelProfile(config, batch, gpt_block_profile(config, batch))


def _min_plan_us(config, batch: int, policy: RatelPolicy, server) -> float:
    hardware = policy.hardware_profile(_fresh_profile(config, batch), server)
    best = float("inf")
    for _ in range(PLAN_REPEATS):
        model = IterationTimeModel(_fresh_profile(config, batch), hardware)
        started = time.perf_counter()
        plan_activation_swapping(model)
        best = min(best, time.perf_counter() - started)
    return best * 1e6


def _calls_per_plan(config, batch: int, policy: RatelPolicy, server) -> dict[str, int]:
    """``iteration_time`` and ``recompute_flops_for`` calls made by one plan."""
    calls = {"iteration_time": 0, "recompute_flops_for": 0}
    iteration_time = IterationTimeModel.iteration_time
    recompute_flops_for = ModelProfile.recompute_flops_for

    def counting_iteration_time(self, a_g2m):
        calls["iteration_time"] += 1
        return iteration_time(self, a_g2m)

    def counting_recompute(self, swapped_bytes):
        calls["recompute_flops_for"] += 1
        return recompute_flops_for(self, swapped_bytes)

    profile = _fresh_profile(config, batch)
    model = IterationTimeModel(profile, policy.hardware_profile(profile, server))
    IterationTimeModel.iteration_time = counting_iteration_time
    ModelProfile.recompute_flops_for = counting_recompute
    try:
        plan_activation_swapping(model)
    finally:
        IterationTimeModel.iteration_time = iteration_time
        ModelProfile.recompute_flops_for = recompute_flops_for
    return calls


def _searches(server) -> dict:
    """The two capacity searches, each a function of the policy."""
    return {
        "max_trainable": lambda policy: max_trainable_params(
            policy, server, batch_size=SEARCH_BATCH
        ),
        "max_batch": lambda policy: max_batch_size(policy, llm(SEARCH_PRESET), server),
    }


def _min_search_us(search) -> tuple[float, float]:
    best, answer = float("inf"), 0.0
    for _ in range(SEARCH_REPEATS):
        profile_model.cache_clear()
        policy = RatelPolicy()
        started = time.perf_counter()
        answer = search(policy)
        best = min(best, time.perf_counter() - started)
    return best * 1e6, answer


def _work_per_search(search) -> dict[str, dict[str, int]]:
    """Feasibility probes and Algorithm 1 runs of one search, per system."""
    plan, feasible = ratel_module.plan_activation_swapping, OffloadPolicy.feasible
    counts: dict[str, int] = {}

    def counting_plan(model):
        counts["plans"] += 1
        return plan(model)

    def counting_feasible(policy, profile, server):
        counts["probes"] += 1
        return feasible(policy, profile, server)

    work = {}
    ratel_module.plan_activation_swapping = counting_plan
    OffloadPolicy.feasible = counting_feasible
    try:
        for name, make in FAMILY.items():
            counts.update(probes=0, plans=0)
            search(make())
            work[name] = dict(counts)
    finally:
        ratel_module.plan_activation_swapping = plan
        OffloadPolicy.feasible = feasible
    return work


@pytest.mark.bench_smoke
def test_planner_cost():
    server = _server()
    policy = RatelPolicy()
    plan_us, calls = {}, {}
    for name, config in LLM_PRESETS.items():
        for batch in BATCHES:
            label = f"{name}/b{batch}"
            plan_us[label] = _min_plan_us(config, batch, policy, server)
            calls[label] = _calls_per_plan(config, batch, policy, server)
    searches = _searches(server)
    search_us, answer = _min_search_us(searches["max_trainable"])
    batch_us, batch = _min_search_us(searches["max_batch"])
    work = {name: _work_per_search(search) for name, search in searches.items()}

    assert len(plan_us) == 16
    mean_us = sum(plan_us.values()) / len(plan_us)
    payload = {
        "host": f"{platform.machine()}, {os.cpu_count()} CPUs, Python {platform.python_version()}",
        "server": "RTX 4090, 256 GiB, 6 SSDs",
        "plan_us": plan_us,
        "plan_us_mean": mean_us,
        "calls_per_plan": calls,
        "max_trainable_us": search_us,
        "max_trainable_params": answer,
        "max_batch_us": batch_us,
        "max_batch_size": batch,
        "work_per_search": work,
    }
    write_bench_json("planner", payload)
    print(
        f"\nplanner bench: {mean_us:.0f} us/plan over 16 configs, "
        f"max_trainable search {search_us / 1e3:.2f} ms ({answer / 1e9:.1f}B), "
        f"max_batch search {batch_us / 1e3:.2f} ms ({SEARCH_PRESET} at {batch}); "
        f"plans per search: {work}"
    )
