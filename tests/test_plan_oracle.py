"""Algorithm 1 as one array pass, checked against the per-step walk.

``tests/plan_oracle`` is a verbatim copy of the planner as it was before
it became one pass over the benefit order: a stable sort of every
block's segments, then one ``iteration_time`` call per step.  Hypothesis
draws LLM and DiT configs the way ``test_benefit_order.py`` does, a GPU,
a DRAM size, an SSD count and a Ratel variant, and plans on both.  The
plans must agree bit for bit, and the T_iter curve must equal
``iteration_time`` at every prefix.  A plan must make no per-step calls.
On the same inputs, Algorithm 1 is checked against brute force over its
own candidate points.
"""

from __future__ import annotations

import pytest
from hypothesis import given, settings, strategies as st

from repro.core import (
    IterationTimeModel,
    RatelPolicy,
    is_convex_on_grid,
    plan_activation_swapping,
)
from repro.hardware import RTX_3090, RTX_4080, RTX_4090, GiB, evaluation_server
from repro.models import ActivationSegment, DiTConfig, ModelProfile, TransformerConfig, llm

from .plan_oracle import (
    activation_swap as oracle_swap,
    iteration_model as oracle_model,
    profile as oracle_profile,
)
from .test_benefit_order import dit_configs, fresh_profile, llm_configs

VARIANTS = ("optimized", "naive", "zero", "cpuact")
#: Algorithm 1 advances only on a relative gain of at least this much.
MIN_IMPROVEMENT = 1e-4


@st.composite
def planning_inputs(draw, min_ssds: int = 0):
    """A fresh profile, a Ratel variant and the hardware profile it plans on."""
    profile = fresh_profile(
        draw(st.one_of(llm_configs, dit_configs)), draw(st.integers(1, 64))
    )
    server = evaluation_server(
        gpu=draw(st.sampled_from([RTX_4090, RTX_3090, RTX_4080])),
        main_memory_bytes=draw(st.integers(64, 1024)) * GiB,
        n_ssds=draw(st.sampled_from(range(min_ssds, 17))),
    )
    variant = draw(st.sampled_from(VARIANTS))
    return profile, variant, RatelPolicy(variant).hardware_profile(profile, server)


def _hex(value: float) -> str:
    return float(value).hex()


def plan_record(plan) -> dict:
    """Every field of a plan, floats as ``float.hex``."""
    estimate = plan.estimate
    stages = {
        name: (_hex(stage.total), {k: _hex(v) for k, v in stage.components.items()})
        for name, stage in (("forward", estimate.forward), ("backward", estimate.backward))
    }
    return {
        "a_g2m": (type(plan.a_g2m).__name__, _hex(plan.a_g2m)),
        "case": plan.case.name,
        "swapped": plan.swapped,
        "estimate": {
            "a_g2m": (type(estimate.a_g2m).__name__, _hex(estimate.a_g2m)),
            "a_to_ssd": _hex(estimate.a_to_ssd),
            "recompute_flops": _hex(estimate.recompute_flops),
            **stages,
        },
    }


def outcome(plan_fn, model) -> dict | tuple[str, str]:
    """The plan's record, or the error's type and message."""
    try:
        return plan_record(plan_fn(model))
    except ValueError as exc:
        return type(exc).__name__, str(exc)


def oracle_twin(profile: ModelProfile) -> oracle_profile.ModelProfile:
    return oracle_profile.ModelProfile(profile.config, profile.batch_size, profile.block)


def assert_plans_match(profile: ModelProfile, hardware) -> dict | tuple[str, str]:
    got = outcome(plan_activation_swapping, IterationTimeModel(profile, hardware))
    want = outcome(
        oracle_swap.plan_activation_swapping,
        oracle_model.IterationTimeModel(oracle_twin(profile), hardware),
    )
    assert got == want
    return got


@given(inputs=planning_inputs())
@settings(max_examples=150, deadline=None)
def test_plans_match_the_per_step_walk(inputs):
    profile, _variant, hardware = inputs
    got = assert_plans_match(profile, hardware)
    if hardware.bw_s2m == 0:
        assert got == ("ValueError", "model requires SSD traffic but the server has no SSDs")


@pytest.mark.parametrize("variant", VARIANTS)
@pytest.mark.parametrize("name, batch", [("13B", 32), ("175B", 8)])
def test_plans_match_where_activations_spill(name, batch, variant):
    """Generated models rarely outgrow DRAM; these spill unless main memory is unbounded."""
    profile = fresh_profile(llm(name), batch)
    server = evaluation_server(gpu=RTX_3090, main_memory_bytes=64 * GiB, n_ssds=3)
    got = assert_plans_match(profile, RatelPolicy(variant).hardware_profile(profile, server))
    assert (got["estimate"]["a_to_ssd"] == _hex(0.0)) == (variant == "cpuact")


def assert_curve_matches(model: IterationTimeModel) -> list[float]:
    """The curve equals the scalar entry points at every prefix; returns the spill."""
    a_g2m, spill, t_iter = (values.tolist() for values in model.prefix_curve())
    _order, cum_bytes, _cum_saved = oracle_twin(model.model)._benefit_order
    assert a_g2m == list(cum_bytes)
    for k, amount in enumerate(a_g2m):
        assert spill[k] == model.a_to_ssd(amount), k
        assert t_iter[k] == model.iteration_time(amount), k
    return spill


@given(inputs=planning_inputs(min_ssds=1))
@settings(max_examples=40, deadline=None)
def test_curve_equals_iteration_time_at_every_prefix(inputs):
    profile, _variant, hardware = inputs
    assert_curve_matches(IterationTimeModel(profile, hardware))


@pytest.mark.parametrize("name, batch", [("13B", 32), ("175B", 8)])
def test_curve_matches_where_activations_spill(name, batch):
    """Generated models rarely outgrow DRAM; these two spill to the SSDs."""
    profile = fresh_profile(llm(name), batch)
    server = evaluation_server(gpu=RTX_3090, main_memory_bytes=64 * GiB, n_ssds=3)
    spill = assert_curve_matches(
        IterationTimeModel(profile, RatelPolicy().hardware_profile(profile, server))
    )
    assert spill[-1] > 0


@given(inputs=planning_inputs(min_ssds=1))
@settings(max_examples=40, deadline=None)
def test_plan_within_min_improvement_of_brute_force(inputs):
    """No candidate point beats the plan by more than the stop rule allows.

    The candidates are Algorithm 1's own: the ``A_interBlock`` floor and
    every benefit-order prefix at or above it, each priced by
    ``iteration_time``.
    """
    profile, _variant, hardware = inputs
    model = IterationTimeModel(profile, hardware)
    plan = plan_activation_swapping(model)
    floor = profile.inter_block_bytes
    prefixes, _flop_r = profile.benefit_prefixes()
    candidates = [floor, *(a for a in prefixes.tolist() if a >= floor)]
    best = min(model.iteration_time(a) for a in candidates)
    assert plan.t_iter <= (1 + MIN_IMPROVEMENT) * best
    assert is_convex_on_grid(model)


COUNTED_CONFIGS = [
    pytest.param(llm("13B"), 8, id="13B-b8"),
    pytest.param(llm("175B"), 32, id="175B-b32"),
    pytest.param(DiTConfig("dit", 12, 6, 6 * 64, image_size=256), 16, id="dit-b16"),
]
COUNTED_SERVERS = [
    pytest.param(evaluation_server(main_memory_bytes=768 * GiB, n_ssds=12), id="768GiB"),
    pytest.param(
        evaluation_server(gpu=RTX_3090, main_memory_bytes=128 * GiB, n_ssds=2), id="128GiB"
    ),
]


@pytest.mark.parametrize("server", COUNTED_SERVERS)
@pytest.mark.parametrize("config, batch", COUNTED_CONFIGS)
@pytest.mark.parametrize("variant", VARIANTS)
def test_plan_makes_no_per_step_calls(monkeypatch, variant, config, batch, server):
    """Zero ``iteration_time`` calls; Eq. 7 is priced only by the final ``estimate``."""
    calls = {"iteration_time": 0, "recompute": 0, "recompute_outside_estimate": 0}
    inside_estimate = False
    estimate = IterationTimeModel.estimate
    iteration_time = IterationTimeModel.iteration_time
    recompute_flops_for = ModelProfile.recompute_flops_for

    def counting_estimate(self, a_g2m):
        nonlocal inside_estimate
        inside_estimate = True
        try:
            return estimate(self, a_g2m)
        finally:
            inside_estimate = False

    def counting_iteration_time(self, a_g2m):
        calls["iteration_time"] += 1
        return iteration_time(self, a_g2m)

    def counting_recompute(self, swapped_bytes):
        calls["recompute"] += 1
        calls["recompute_outside_estimate"] += not inside_estimate
        return recompute_flops_for(self, swapped_bytes)

    monkeypatch.setattr(IterationTimeModel, "estimate", counting_estimate)
    monkeypatch.setattr(IterationTimeModel, "iteration_time", counting_iteration_time)
    monkeypatch.setattr(ModelProfile, "recompute_flops_for", counting_recompute)
    profile = fresh_profile(config, batch)
    model = IterationTimeModel(profile, RatelPolicy(variant).hardware_profile(profile, server))
    plan_activation_swapping(model)
    assert calls["iteration_time"] == 0
    assert 1 <= calls["recompute"] <= 2
    assert calls["recompute_outside_estimate"] == 0


def test_benefit_key_reads_do_not_grow_with_depth(monkeypatch):
    """The order is sorted per block, so a deeper model reads no more keys."""
    reads = 0
    benefit = ActivationSegment.offloading_benefit

    def counting(segment: ActivationSegment) -> float:
        nonlocal reads
        reads += 1
        return benefit.fget(segment)

    monkeypatch.setattr(ActivationSegment, "offloading_benefit", property(counting))
    server = evaluation_server(main_memory_bytes=256 * GiB, n_ssds=6)
    counts = []
    for n_layers in (1, 2, 40, 96):
        profile = fresh_profile(TransformerConfig("deep", n_layers, 16, 16 * 64), 8)
        model = IterationTimeModel(profile, RatelPolicy().hardware_profile(profile, server))
        reads = 0
        plan_activation_swapping(model)
        counts.append(reads)
    assert counts == [len(profile.block.segments)] * len(counts)
