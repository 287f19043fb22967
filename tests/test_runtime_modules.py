"""Tests for the neural-network modules of the functional runtime."""

from __future__ import annotations

import numpy as np
import pytest

from repro.runtime import (
    CrossEntropyLoss,
    Embedding,
    GPTModel,
    LayerNorm,
    Linear,
    MLP,
    MSELoss,
    MultiHeadAttention,
    Tensor,
    TransformerBlock,
)


class TestModuleSystem:
    def test_parameters_discovered_recursively(self, rng):
        model = GPTModel(11, 8, 2, 2, 4, rng)
        names = [name for name, _p in model.named_parameters()]
        assert "token_emb.weight" in names
        assert "block0.attn.qkv.weight" in names
        assert "block1.mlp.fc2.bias" in names
        assert "head.weight" in names
        assert len(names) == len(set(names))

    def test_n_params_matches_formula(self, rng):
        dim, vocab, layers, seq = 8, 11, 2, 4
        model = GPTModel(vocab, dim, layers, 2, seq, rng)
        block = 12 * dim * dim + 13 * dim  # linears, biases, 2 LayerNorms
        expected = (
            vocab * dim  # token embedding
            + seq * dim  # positions
            + layers * block
            + 2 * dim  # final LN
            + dim * vocab + vocab  # head
        )
        assert model.n_params() == expected

    def test_forward_hooks_fire(self, rng):
        layer = Linear(4, 3, rng)
        events = []
        layer.register_forward_pre_hook(lambda mod, inp: events.append("pre"))
        layer.register_forward_hook(lambda mod, inp, out: events.append("post"))
        layer(Tensor(np.ones((2, 4), dtype=np.float32)))
        assert events == ["pre", "post"]

    def test_zero_grad_clears_all(self, rng):
        model = GPTModel(11, 8, 1, 2, 4, rng)
        ids = np.zeros((1, 4), dtype=int)
        model(ids).sum().backward()
        assert any(p.grad is not None for p in model.parameters())
        model.zero_grad()
        assert all(p.grad is None for p in model.parameters())


class TestLayers:
    def test_linear_shapes_and_math(self, rng):
        layer = Linear(4, 3, rng)
        x = rng.normal(size=(2, 4)).astype(np.float32)
        out = layer(Tensor(x))
        np.testing.assert_allclose(
            out.data, x @ layer.weight.data + layer.bias.data, rtol=1e-5
        )

    def test_layernorm_normalizes(self, rng):
        layer = LayerNorm(16)
        x = Tensor(rng.normal(2.0, 3.0, size=(4, 16)).astype(np.float32))
        out = layer(x).data
        np.testing.assert_allclose(out.mean(axis=-1), 0.0, atol=1e-4)
        np.testing.assert_allclose(out.std(axis=-1), 1.0, atol=1e-2)

    def test_embedding_gathers_rows(self, rng):
        emb = Embedding(10, 4, rng)
        ids = np.array([[1, 3], [3, 0]])
        out = emb(ids)
        np.testing.assert_allclose(out.data, emb.weight.data[ids])

    def test_attention_is_causal(self, rng):
        attn = MultiHeadAttention(8, 2, rng)
        x = rng.normal(size=(1, 6, 8)).astype(np.float32)
        base = attn(Tensor(x)).data
        # Perturbing a future position must not change earlier outputs.
        perturbed = x.copy()
        perturbed[0, 5] += 10.0
        out = attn(Tensor(perturbed)).data
        np.testing.assert_allclose(out[0, :5], base[0, :5], atol=1e-4)
        assert not np.allclose(out[0, 5], base[0, 5])

    def test_attention_rejects_indivisible_heads(self, rng):
        with pytest.raises(ValueError):
            MultiHeadAttention(7, 2, rng)

    def test_mlp_expands_by_four(self, rng):
        mlp = MLP(8, 4, rng)
        assert mlp.fc1.weight.shape == (8, 32)
        assert mlp.fc2.weight.shape == (32, 8)

    def test_block_preserves_shape(self, rng):
        block = TransformerBlock(8, 2, rng)
        x = Tensor(rng.normal(size=(2, 4, 8)).astype(np.float32))
        assert block(x).shape == (2, 4, 8)

    def test_gpt_produces_logits(self, rng):
        model = GPTModel(11, 8, 2, 2, 4, rng)
        logits = model(np.zeros((3, 4), dtype=int))
        assert logits.shape == (3, 4, 11)


class TestLosses:
    def test_mse_value(self):
        loss = MSELoss()
        a = Tensor(np.array([1.0, 2.0], dtype=np.float32))
        b = Tensor(np.array([0.0, 0.0], dtype=np.float32))
        assert float(loss(a, b).data) == pytest.approx(2.5)

    def test_cross_entropy_uniform(self, rng):
        """Uniform logits => loss = log(V)."""
        loss = CrossEntropyLoss()
        vocab = 7
        logits = Tensor(np.zeros((2, 3, vocab), dtype=np.float32), requires_grad=True)
        targets = rng.integers(0, vocab, size=(2, 3))
        value = loss(logits, targets)
        assert float(value.data) == pytest.approx(np.log(vocab), rel=1e-5)

    def test_cross_entropy_decreases_under_gradient_step(self, rng):
        loss_fn = CrossEntropyLoss()
        vocab = 5
        logits = Tensor(rng.normal(size=(2, 3, vocab)).astype(np.float32), requires_grad=True)
        targets = rng.integers(0, vocab, size=(2, 3))
        first = loss_fn(logits, targets)
        first.backward()
        stepped = Tensor(logits.data - 1.0 * logits.grad, requires_grad=True)
        second = loss_fn(stepped, targets)
        assert float(second.data) < float(first.data)

    def test_training_reduces_loss(self, rng):
        """A few SGD steps on a tiny GPT must fit a repeated batch."""
        model = GPTModel(13, 16, 2, 2, 8, rng)
        loss_fn = CrossEntropyLoss()
        ids = rng.integers(0, 13, size=(4, 8))
        targets = np.roll(ids, -1, axis=1)
        losses = []
        for _step in range(12):
            model.zero_grad()
            loss = loss_fn(model(ids), targets)
            loss.backward()
            for param in model.parameters():
                param.data -= 0.5 * param.grad
            losses.append(float(loss.data))
        assert losses[-1] < 0.5 * losses[0]


class TestStateDict:
    def test_roundtrip(self, rng):
        a = GPTModel(11, 8, 2, 2, 4, np.random.default_rng(1))
        b = GPTModel(11, 8, 2, 2, 4, np.random.default_rng(2))
        b.load_state_dict(a.state_dict())
        for (name, pa), (_n, pb) in zip(a.named_parameters(), b.named_parameters()):
            np.testing.assert_array_equal(pa.data, pb.data)

    def test_state_dict_is_a_copy(self, rng):
        model = GPTModel(11, 8, 1, 2, 4, rng)
        state = model.state_dict()
        state["token_emb.weight"][:] = 0.0
        assert np.abs(model.token_emb.weight.data).sum() > 0

    def test_mismatched_names_rejected(self, rng):
        a = GPTModel(11, 8, 1, 2, 4, rng)
        b = GPTModel(11, 8, 2, 2, 4, rng)
        with pytest.raises(ValueError, match="mismatch"):
            b.load_state_dict(a.state_dict())

    def test_mismatched_shape_rejected(self, rng):
        model = GPTModel(11, 8, 1, 2, 4, rng)
        state = model.state_dict()
        state["token_emb.weight"] = np.zeros((2, 2), dtype=np.float32)
        with pytest.raises(ValueError, match="shape"):
            model.load_state_dict(state)
