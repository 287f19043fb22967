"""Tests for the capacity planner (max model size / max batch)."""

from __future__ import annotations

from collections import Counter
from dataclasses import fields, replace

import pytest
from hypothesis import given, settings, strategies as st

import repro.core.ratel as ratel_module
from repro.baselines import (
    FlashNeuronPolicy,
    GreedySnakePolicy,
    ZenFlowPolicy,
    ZeroInfinityPolicy,
    ZeroOffloadPolicy,
)
from repro.core import (
    RatelPolicy,
    check_feasible,
    max_batch_size,
    max_trainable_params,
)
from repro.core.multi_gpu import per_gpu_view
from repro.core.policy import OffloadPolicy
from repro.experiments.ablations import _WindowedRatel
from repro.hardware import GB, RTX_3090, RTX_4080, RTX_4090, GiB, evaluation_server
from repro.models import llm, profile_model

from .test_benefit_order import dit_configs, fresh_profile, llm_configs


class TestFeasibilityReport:
    def test_feasible_has_no_shortfalls(self, server):
        report = check_feasible(RatelPolicy(), profile_model(llm("13B"), 32), server)
        assert report.feasible
        assert report.shortfalls == {}

    def test_infeasible_names_the_tier(self, server):
        report = check_feasible(FlashNeuronPolicy(), profile_model(llm("13B"), 1), server)
        assert not report.feasible
        assert "gpu" in report.shortfalls

    def test_unsupported_hardware_flagged(self):
        bare = evaluation_server(n_ssds=0)
        report = check_feasible(RatelPolicy(), profile_model(llm("6B"), 1), bare)
        assert not report.feasible
        assert "hardware" in report.shortfalls


class TestMaxTrainableParams:
    def test_fig6_anchor_points(self, server):
        """The Fig. 6 frontier at 768 GB: Ratel >> ZeRO-Infinity >> Offload."""
        ratel = max_trainable_params(RatelPolicy(), server)
        zero_inf = max_trainable_params(ZeroInfinityPolicy(), server)
        zero_off = max_trainable_params(ZeroOffloadPolicy(), server)
        assert ratel >= 276e9
        assert 100e9 < zero_inf < 200e9  # paper: 135B
        assert 30e9 < zero_off < 70e9  # paper: ~40B
        assert ratel > 1.8 * zero_inf  # paper: 2.04x

    def test_flashneuron_frontier_is_tiny(self, server):
        """Paper: FlashNeuron tops out around 1.55B."""
        assert max_trainable_params(FlashNeuronPolicy(), server) == pytest.approx(
            1.55e9, rel=0.25
        )

    def test_monotone_in_main_memory(self):
        sizes = []
        for mem_gb in (128, 256, 512, 768):
            server = evaluation_server(main_memory_bytes=mem_gb * GiB)
            sizes.append(max_trainable_params(RatelPolicy(), server))
        assert sizes == sorted(sizes)

    def test_monotone_in_batch(self, server):
        big = max_trainable_params(RatelPolicy(), server, batch_size=1)
        small = max_trainable_params(RatelPolicy(), server, batch_size=64)
        assert small <= big

    def test_returns_zero_when_nothing_fits(self):
        bare = evaluation_server(n_ssds=0)
        assert max_trainable_params(RatelPolicy(), bare) == 0.0

    def test_result_is_actually_feasible(self, server):
        from repro.models import synthetic_llm

        best = max_trainable_params(RatelPolicy(), server)
        config = synthetic_llm(best)
        assert RatelPolicy().feasible(profile_model(config, 1), server)


class TestMaxBatchSize:
    def test_respects_cap(self, server):
        batch = max_batch_size(RatelPolicy(), llm("13B"), server, cap=32)
        assert batch == 32

    def test_shrinks_with_model_size(self, server):
        small = max_batch_size(RatelPolicy(), llm("13B"), server)
        large = max_batch_size(RatelPolicy(), llm("175B"), server)
        assert large < small

    def test_zero_when_infeasible(self, server):
        assert max_batch_size(FlashNeuronPolicy(), llm("13B"), server) == 0

    def test_result_is_feasible_and_next_is_not(self, server):
        batch = max_batch_size(RatelPolicy(), llm("175B"), server)
        assert batch > 0
        assert RatelPolicy().feasible(profile_model(llm("175B"), batch), server)


def _planning_policies(window: int) -> list[RatelPolicy]:
    """Every policy whose needs come out of Algorithm 1."""
    return [
        *(RatelPolicy(variant) for variant in ("optimized", "naive", "zero", "cpuact")),
        ZenFlowPolicy(),
        ZenFlowPolicy(stale_k=0),
        GreedySnakePolicy(),
        _WindowedRatel(window),
    ]


def _assert_bounded_verdict(policy: RatelPolicy, profile, server) -> None:
    """``feasible`` agrees with the plan, and the bounds enclose the plan's needs."""
    verdict = policy.feasible(profile, server)
    if not policy.supported_on(server):
        assert verdict is False
        return
    needs = policy.memory_needs(profile, server)
    assert verdict == needs.fits(server)
    bounds = policy.needs_bounds(profile, server)
    if bounds is not None:
        lower, upper = bounds
        for tier in (field.name for field in fields(needs)):
            assert getattr(lower, tier) <= getattr(needs, tier) <= getattr(upper, tier), tier


@given(
    config=st.one_of(llm_configs, dit_configs),
    batch=st.integers(1, 64),
    gpu=st.sampled_from([RTX_4090, RTX_3090, RTX_4080]),
    dram=st.integers(64 * GB, 1024 * GB),
    half_byte=st.booleans(),
    n_ssds=st.integers(0, 16),
    window=st.integers(2, 14),
)
@settings(max_examples=150, deadline=None)
def test_bounded_feasibility_matches_the_plan(
    config, batch, gpu, dram, half_byte, n_ssds, window
):
    """The bounds decide a probe exactly as the plan does.

    Each policy is also probed on servers whose usable DRAM, or SSD
    array, holds its planned need and one byte either side, where an
    inexact bound would flip the verdict; a fractional DRAM size (no
    bounds) must plan.
    """
    profile = fresh_profile(config, batch)
    server = evaluation_server(
        gpu=gpu, main_memory_bytes=dram + 0.5 * half_byte, n_ssds=n_ssds
    )
    for policy in _planning_policies(window):
        _assert_bounded_verdict(policy, profile, server)
        if not policy.supported_on(server):
            continue
        need = policy.memory_needs(profile, server)
        for delta in (-1, 0, 1):
            dram_edge = server.with_main_memory(
                server.host_reserved_bytes + need.main_bytes + delta
            )
            drive = replace(server.ssd, capacity_bytes=(need.ssd_bytes + delta) / n_ssds)
            for edge in (dram_edge, replace(server, ssd=drive)):
                _assert_bounded_verdict(policy, profile, edge)


def test_fractional_dram_has_no_bounds():
    """A 3-GPU server's per-GPU share of 256 GiB is not whole bytes."""
    view = per_gpu_view(evaluation_server(n_gpus=3, main_memory_bytes=256 * GiB))
    profile = profile_model(llm("13B"), 8)
    assert RatelPolicy().needs_bounds(profile, view) is None
    _assert_bounded_verdict(RatelPolicy(), profile, view)


def _policy_classes(base: type) -> list[type]:
    import repro.baselines  # noqa: F401  (registers every system)
    import repro.experiments.fig9_act_strategy  # noqa: F401
    import repro.faults.chaos  # noqa: F401

    found, stack = [], [base]
    while stack:
        for sub in stack.pop().__subclasses__():
            stack.append(sub)
            if sub.__module__.startswith("repro."):
                found.append(sub)
    return found


def test_every_probe_goes_through_one_feasible():
    """perfbench counts probes on ``OffloadPolicy.feasible`` by name."""
    assert all("feasible" not in vars(cls) for cls in _policy_classes(OffloadPolicy))


def test_ratel_family_prices_splits_through_needs_for_split():
    """A ``memory_needs`` override would slip past ``needs_bounds``."""
    assert all("memory_needs" not in vars(cls) for cls in _policy_classes(RatelPolicy))


#: ``bench_planner``'s server.
PROBE_SERVER = evaluation_server(gpu=RTX_4090, main_memory_bytes=256 * GiB, n_ssds=6)

_FAMILY = {
    "ratel": RatelPolicy,
    "ratel-zero": lambda: RatelPolicy("zero"),
    "zenflow": ZenFlowPolicy,
    "greedysnake": GreedySnakePolicy,
}


class TestProbeWork:
    """Feasibility probes and Algorithm 1 runs per capacity search.

    Ratel's probes are all decided by the two extreme splits.  ZenFlow's
    and GreedySnake's 2 B/param of host gradients leave a few probes
    between the bounds, and only those plan.  Before the bounds every
    probe planned except repeats (10 and 9 plans of 11 probes, 12 of 12).
    """

    @pytest.fixture
    def counts(self, monkeypatch) -> Counter:
        counts: Counter = Counter()
        plan = ratel_module.plan_activation_swapping
        feasible = OffloadPolicy.feasible

        def counting_plan(model):
            counts["plans"] += 1
            return plan(model)

        def counting_feasible(policy, profile, server):
            counts["probes"] += 1
            return feasible(policy, profile, server)

        monkeypatch.setattr(ratel_module, "plan_activation_swapping", counting_plan)
        monkeypatch.setattr(OffloadPolicy, "feasible", counting_feasible)
        return counts

    @pytest.mark.parametrize(
        "system, plans", [("ratel", 0), ("ratel-zero", 0), ("zenflow", 3), ("greedysnake", 3)]
    )
    def test_max_trainable(self, counts, system, plans):
        max_trainable_params(_FAMILY[system](), PROBE_SERVER, batch_size=8)
        assert counts == Counter(probes=11, plans=plans)

    @pytest.mark.parametrize(
        "system, plans", [("ratel", 0), ("ratel-zero", 0), ("zenflow", 8), ("greedysnake", 8)]
    )
    def test_max_batch(self, counts, system, plans):
        max_batch_size(_FAMILY[system](), llm("30B"), PROBE_SERVER)
        assert counts == Counter(probes=12, plans=plans)
