"""Tests for model introspection (the §IV-B 'parse the model' step)."""

from __future__ import annotations

import numpy as np
import pytest

from repro.models import IntrospectionError, profile_from_module
from repro.models.config import TransformerConfig
from repro.runtime import DiTModel, GPTModel


class TestGPTIntrospection:
    @pytest.fixture(scope="class")
    def model(self):
        return GPTModel(997, 128, 3, 4, 64, np.random.default_rng(0))

    def test_architecture_recovered(self, model):
        profile = profile_from_module(model, 4)
        config = profile.config
        assert config.n_layers == 3
        assert config.hidden_dim == 128
        assert config.n_heads == 4
        assert config.seq_len == 64
        assert config.vocab_size == 997
        assert not config.tie_embeddings

    def test_param_count_within_one_percent(self, model):
        """The closed form carries lower-order terms tuned for large h;
        at toy widths the residual is <1% (0.04% at h=512 already)."""
        profile = profile_from_module(model, 4)
        actual = model.n_params()
        assert profile.n_params == pytest.approx(actual, rel=0.01)

    def test_profile_usable_by_planner(self, model):
        """The introspected profile drives Algorithm 1 end to end."""
        from repro.core import IterationTimeModel, plan_activation_swapping
        from repro.core.hwprofile import profile_hardware
        from repro.hardware import evaluation_server

        profile = profile_from_module(model, 4)
        hw = profile_hardware(evaluation_server())
        plan = plan_activation_swapping(IterationTimeModel(profile, hw))
        assert plan.a_g2m >= profile.inter_block_bytes * (1 - 1e-9)

    def test_batch_scales_activations(self, model):
        small = profile_from_module(model, 2)
        large = profile_from_module(model, 8)
        assert large.activation_bytes_total == pytest.approx(
            4 * small.activation_bytes_total
        )


class TestDiTIntrospection:
    def test_architecture_recovered(self):
        model = DiTModel(dim=64, n_layers=3, n_heads=4, rng=np.random.default_rng(0))
        profile = profile_from_module(model, 2)
        config = profile.config
        assert config.n_layers == 3
        assert config.hidden_dim == 64
        assert config.seq_len == model.tokens_side**2

    def test_param_count_within_two_percent(self):
        model = DiTModel(dim=64, n_layers=3, n_heads=4, rng=np.random.default_rng(0))
        profile = profile_from_module(model, 2)
        assert profile.n_params == pytest.approx(model.n_params(), rel=0.02)


class TestErrors:
    def test_unknown_module_rejected(self):
        with pytest.raises(IntrospectionError):
            profile_from_module(object(), 1)

    def test_tied_vs_untied_param_accounting(self):
        tied = TransformerConfig("t", 2, 2, 64, vocab_size=100)
        untied = TransformerConfig("u", 2, 2, 64, vocab_size=100, tie_embeddings=False)
        assert untied.n_params - tied.n_params == 64 * 100 + 100
