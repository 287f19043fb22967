"""Eq. 7 by bisect, checked against the sort-per-call segment walk.

``ModelProfile`` sorts its segments by offloading benefit once and keeps
prefix sums of bytes and saved FLOPs; ``recompute_flops_for`` bisects
them.  The reference below is the walk the bisect replaced: it re-sorts
every segment on every call.  It lives only here, as the oracle.  On
generated LLM and DiT configs the two must agree with ``==``, and the
cached order must equal a fresh stable sort, ties included.
"""

from __future__ import annotations

import pytest
from hypothesis import given, settings, strategies as st

from repro.core import RatelPolicy
from repro.hardware import evaluation_server
from repro.models import (
    ActivationSegment,
    DiTConfig,
    ModelProfile,
    TransformerConfig,
    dit_block_profile,
    gpt_block_profile,
    llm,
)


def reference_order(profile: ModelProfile) -> list[ActivationSegment]:
    embed = ActivationSegment("embed_out", profile.embedding_activation_bytes, 0.0)
    flat = [seg for _idx, seg in profile.segments()]
    flat.sort(key=lambda seg: seg.offloading_benefit, reverse=True)
    return [embed] + flat


def reference_recompute_flops(profile: ModelProfile, swapped_bytes: float) -> float:
    remaining = swapped_bytes
    saved = 0.0
    for segment in reference_order(profile):
        if remaining <= 0:
            break
        covered = min(segment.nbytes, remaining)
        saved += segment.recompute_flops * (covered / segment.nbytes)
        remaining -= covered
    recomputable = profile.n_blocks * profile.block.forward_flops
    return max(0.0, recomputable - saved)


def fresh_profile(config, batch: int) -> ModelProfile:
    """A profile outside ``profile_model``'s memo, so nothing is cached yet."""
    if isinstance(config, TransformerConfig):
        return ModelProfile(config, batch, gpt_block_profile(config, batch))
    return ModelProfile(config, batch, dit_block_profile(config, batch))


_layers = st.integers(1, 160)
_heads = st.integers(1, 24)
_head_dim = st.sampled_from([8, 16, 64, 128])

llm_configs = st.builds(
    lambda layers, heads, head_dim, seq: TransformerConfig(
        "generated-llm", layers, heads, heads * head_dim, seq_len=seq
    ),
    _layers,
    _heads,
    _head_dim,
    st.sampled_from([1, 64, 512, 1024, 2048]),
)
dit_configs = st.builds(
    lambda layers, heads, head_dim, image: DiTConfig(
        "generated-dit", layers, heads, heads * head_dim, image_size=image
    ),
    _layers,
    _heads,
    _head_dim,
    st.sampled_from([16, 256, 512]),
)
profiles = st.builds(fresh_profile, st.one_of(llm_configs, dit_configs), st.integers(1, 64))


@st.composite
def swapped_amounts(draw, profile: ModelProfile) -> list[float]:
    """Amounts at exact prefix boundaries, between them, and past A_all."""
    order = reference_order(profile)
    bounds = [0]
    for segment in order:
        bounds.append(bounds[-1] + segment.nbytes)
    indices = st.integers(0, len(order) - 1)
    at_boundary = indices.flatmap(
        lambda k: st.sampled_from([bounds[k], float(bounds[k]), bounds[k + 1]])
    )
    between = st.tuples(indices, st.floats(0, 1, exclude_min=True, exclude_max=True)).map(
        lambda kf: bounds[kf[0]] + kf[1] * order[kf[0]].nbytes
    )
    past_end = st.floats(1, 1e6).map(lambda scale: bounds[-1] * scale + 1.0)
    return draw(st.lists(st.one_of(at_boundary, between, past_end), min_size=1, max_size=12))


@given(data=st.data(), profile=profiles)
@settings(max_examples=100, deadline=None)
def test_bisect_matches_reference_walk(data, profile):
    for amount in data.draw(swapped_amounts(profile)):
        assert profile.recompute_flops_for(amount) == reference_recompute_flops(
            profile, amount
        ), amount


@pytest.mark.parametrize(
    "config",
    [
        TransformerConfig("tiny-llm", 1, 3, 3 * 40, seq_len=100),
        TransformerConfig("small-llm", 3, 7, 7 * 24, seq_len=77),
        DiTConfig("tiny-dit", 2, 5, 5 * 24, image_size=256),
    ],
    ids=lambda config: config.name,
)
def test_dense_grid_matches_reference_walk(config):
    """On few-block models the pro-rata term is not absorbed by a long prefix."""
    profile = fresh_profile(config, 3)
    total = profile.activation_bytes_total
    for i in range(2001):
        amount = total * i / 1980
        assert profile.recompute_flops_for(amount) == reference_recompute_flops(
            profile, amount
        ), amount


@given(profile=profiles)
@settings(max_examples=40, deadline=None)
def test_cached_order_matches_fresh_stable_sort(profile):
    assert list(profile.segments_by_benefit()) == reference_order(profile)


def test_benefit_key_read_at_most_once_per_segment(monkeypatch):
    """The sort runs once per profile, not once per Algorithm 1 step."""
    reads = 0
    benefit = ActivationSegment.offloading_benefit

    def counting(segment: ActivationSegment) -> float:
        nonlocal reads
        reads += 1
        return benefit.fget(segment)

    monkeypatch.setattr(ActivationSegment, "offloading_benefit", property(counting))
    profile = fresh_profile(llm("175B"), 64)
    plan = RatelPolicy().plan(profile, evaluation_server())
    for i in range(1000):
        profile.recompute_flops_for(plan.a_g2m * i / 999)
    assert 0 < reads <= len(profile.segments_by_benefit())
