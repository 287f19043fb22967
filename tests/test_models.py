"""Tests for model accounting: configs, layer profiles, footprints."""

from __future__ import annotations

import pytest
from hypothesis import given, settings, strategies as st

from repro.hardware import GB
from repro.models import (
    LLM_PRESETS,
    ModelConfigError,
    ModelStateFootprint,
    TransformerConfig,
    dit,
    dit_block_profile,
    gpt_block_profile,
    llm,
    profile_model,
    synthetic_llm,
)


class TestTableIV:
    """The LLM presets must reproduce the paper's size labels."""

    @pytest.mark.parametrize(
        "name,expected_billions",
        [("6B", 6), ("13B", 13), ("30B", 30), ("70B", 70),
         ("135B", 135), ("175B", 175), ("276B", 276), ("412B", 412)],
    )
    def test_param_counts_match_labels(self, name, expected_billions):
        assert llm(name).size_billions == pytest.approx(expected_billions, rel=0.10)

    def test_175b_matches_gpt3_hyperparameters(self):
        config = llm("175B")
        assert (config.n_layers, config.n_heads, config.hidden_dim) == (96, 96, 12288)

    def test_defaults_match_evaluation_setup(self):
        config = llm("13B")
        assert config.seq_len == 1024
        assert config.vocab_size == 50257

    def test_unknown_preset_raises(self):
        with pytest.raises(ModelConfigError):
            llm("999B")

    def test_head_dim_consistency(self):
        for config in LLM_PRESETS.values():
            assert config.head_dim * config.n_heads == config.hidden_dim

    def test_rejects_indivisible_heads(self):
        with pytest.raises(ModelConfigError):
            TransformerConfig("bad", 2, 3, 8)

    def test_rejects_nonpositive_dims(self):
        with pytest.raises(ModelConfigError):
            TransformerConfig("bad", 0, 2, 8)


class TestTableVI:
    """The DiT presets must reproduce the paper's size labels."""

    @pytest.mark.parametrize(
        "name,expected_billions",
        [("0.67B", 0.67), ("0.90B", 0.90), ("1.4B", 1.4),
         ("10B", 10), ("20B", 20), ("40B", 40)],
    )
    def test_param_counts_match_labels(self, name, expected_billions):
        assert dit(name).size_billions == pytest.approx(expected_billions, rel=0.16)

    def test_512px_gives_1024_tokens(self):
        assert dit("0.67B").seq_len == 1024

    def test_unknown_preset_raises(self):
        with pytest.raises(ModelConfigError):
            dit("huge")


class TestSyntheticFamily:
    def test_returns_at_least_requested_size(self):
        for target in (1e9, 13e9, 100e9, 400e9):
            assert synthetic_llm(target).n_params >= target

    def test_follows_preset_shape_rule(self):
        config = synthetic_llm(175e9)
        assert config.hidden_dim == 128 * config.n_layers
        assert config.n_heads == config.n_layers

    def test_monotone_in_target(self):
        sizes = [synthetic_llm(t).n_params for t in (1e9, 5e9, 20e9, 80e9)]
        assert sizes == sorted(sizes)

    def test_rejects_nonpositive(self):
        with pytest.raises(ModelConfigError):
            synthetic_llm(0)

    @given(st.floats(min_value=1e8, max_value=5e11))
    @settings(max_examples=25, deadline=None)
    def test_tight_upper_bound(self, target):
        config = synthetic_llm(target)
        assert config.n_params >= target
        # One width step down must be below the target (minimality).
        if config.n_layers > 1:
            k = config.n_layers - 1
            smaller = TransformerConfig("s", k, k, 128 * k)
            assert smaller.n_params < target


class TestBlockProfiles:
    def test_gpt_block_totals_match_closed_form(self):
        config = llm("13B")
        batch = 32
        block = gpt_block_profile(config, batch)
        t = batch * config.seq_len
        h = config.hidden_dim
        assert block.activation_bytes == pytest.approx(32 * t * h, rel=1e-6)
        expected_flops = 24 * t * h * h + 4 * batch * config.seq_len**2 * h
        assert block.forward_flops == pytest.approx(expected_flops, rel=0.01)

    def test_boundary_is_last_segment(self):
        block = gpt_block_profile(llm("13B"), 8)
        assert block.segments[-1].name == "blk_out"
        assert block.boundary_bytes == block.segments[-1].nbytes

    def test_offloading_benefit_ordering(self):
        """blk_out must have the highest benefit; layernorms the lowest."""
        block = gpt_block_profile(llm("13B"), 8)
        benefits = {seg.name: seg.offloading_benefit for seg in block.segments}
        assert benefits["blk_out"] == max(benefits.values())
        assert benefits["ln1_out"] < benefits["gelu_out"] < benefits["qkv_out"]

    def test_activation_bytes_scale_linearly_with_batch(self):
        config = llm("13B")
        a8 = gpt_block_profile(config, 8).activation_bytes
        a16 = gpt_block_profile(config, 16).activation_bytes
        assert a16 == pytest.approx(2 * a8)

    def test_rejects_nonpositive_batch(self):
        with pytest.raises(ValueError):
            gpt_block_profile(llm("13B"), 0)

    def test_dit_block_has_adaln_segment(self):
        block = dit_block_profile(dit("0.67B"), 4)
        names = [seg.name for seg in block.segments]
        assert "adaln_out" in names
        benefits = {seg.name: seg.offloading_benefit for seg in block.segments}
        # Conditioning tensors: tiny bytes, real compute -> high benefit,
        # far above the elementwise tensors (gelu/layernorm outputs).
        assert benefits["adaln_out"] >= dit("0.67B").hidden_dim
        assert benefits["adaln_out"] > 100 * benefits["gelu_out"]


class TestModelProfile:
    def test_13b_bs32_matches_paper_anchors(self, profile_13b_bs32):
        """~213 GB of activations, ~6% inter-block, ~850 TFLOP forward."""
        p = profile_13b_bs32
        assert p.activation_bytes_total == pytest.approx(213 * GB, rel=0.05)
        fraction = p.inter_block_bytes / p.activation_bytes_total
        assert 0.05 < fraction < 0.08
        assert p.forward_flops == pytest.approx(2 * 13e9 * 32768, rel=0.05)

    def test_model_states_16_bytes_per_param(self, profile_13b_bs32):
        states = profile_13b_bs32.states
        assert states.total == pytest.approx(16 * profile_13b_bs32.n_params)

    def test_backward_is_twice_forward(self, profile_13b_bs32):
        assert profile_13b_bs32.backward_flops == pytest.approx(
            2 * profile_13b_bs32.forward_flops
        )

    def test_segments_by_benefit_starts_with_embedding(self, profile_13b_bs32):
        ordered = profile_13b_bs32.segments_by_benefit()
        assert ordered[0].name == "embed_out"
        assert ordered[0].recompute_flops == 0.0
        benefits = [seg.offloading_benefit for seg in ordered[1:]]
        assert benefits == sorted(benefits, reverse=True)

    def test_recompute_flops_boundaries(self, profile_13b_bs32):
        p = profile_13b_bs32
        full = p.recompute_flops_for(0.0)
        assert full == pytest.approx(p.n_blocks * p.block.forward_flops)
        assert p.recompute_flops_for(p.activation_bytes_total) == pytest.approx(0.0)

    def test_recompute_flops_monotone_decreasing(self, profile_13b_bs32):
        p = profile_13b_bs32
        total = p.activation_bytes_total
        values = [p.recompute_flops_for(total * i / 10) for i in range(11)]
        for earlier, later in zip(values, values[1:]):
            assert later <= earlier + 1e-6

    def test_recompute_rejects_negative(self, profile_13b_bs32):
        with pytest.raises(ValueError):
            profile_13b_bs32.recompute_flops_for(-1.0)

    @given(st.floats(min_value=0, max_value=1))
    @settings(max_examples=20, deadline=None)
    def test_recompute_interpolation_is_convex(self, fraction):
        """Eq. 7/8: the derivative -OB is increasing => midpoint convexity."""
        p = profile_model(llm("13B"), 8)
        lo = p.inter_block_bytes
        hi = p.activation_bytes_total
        x = lo + fraction * (hi - lo)
        delta = (hi - lo) / 50
        if x - delta < lo or x + delta > hi:
            return
        mid = p.recompute_flops_for(x)
        avg = (p.recompute_flops_for(x - delta) + p.recompute_flops_for(x + delta)) / 2
        assert mid <= avg + 1e-3 * abs(avg)

    def test_profile_rejects_unknown_config_type(self):
        with pytest.raises(TypeError):
            profile_model("13B", 8)


class TestFootprint:
    def test_table_ii_sizes(self):
        states = ModelStateFootprint(1e9)
        assert states.p32 == 4e9
        assert states.os32 == 8e9
        assert states.g16 == 2e9
        assert states.p16 == 2e9
        assert states.total == 16e9

    def test_optimizer_traffic(self):
        states = ModelStateFootprint(1e9)
        assert states.optimizer_read == 12e9
        assert states.optimizer_write == 14e9

    def test_175b_needs_terabytes(self):
        """The paper: fine-tuning 175B needs ~2.6-2.8 TB of states."""
        assert ModelStateFootprint(175e9).total == pytest.approx(2.8e12)

    def test_rejects_nonpositive(self):
        with pytest.raises(ValueError):
            ModelStateFootprint(0)
