"""Property-based tests of the functional offload engine.

The no-staleness equivalence must hold for *any* architecture, batch
shape, learning rate and checkpoint tier — not just the fixtures the
unit tests pin down.  Hypothesis drives random (tiny) configurations
through both execution modes and demands bit-identical parameters.
"""

from __future__ import annotations

import numpy as np
from hypothesis import given, settings, strategies as st

from repro.runtime import (
    CrossEntropyLoss,
    GPTModel,
    HOST,
    NVME,
    RatelOptimizer,
    ratel_hook,
    ratel_init,
)

GB = 1e9


def train(seed, layers, dim, heads, seq, batch, lr, tier, active, steps=2):
    loss_fn = CrossEntropyLoss()
    rng = np.random.default_rng(seed)
    vocab = 23
    with ratel_init(
        gpu_capacity=GB,
        host_capacity=GB,
        nvme_capacity=4 * GB,
        checkpoint_tier=tier,
        active_offload=active,
    ):
        model = GPTModel(vocab, dim, layers, heads, seq, np.random.default_rng(seed + 1))
        runtime = ratel_hook(model)
        RatelOptimizer(model, runtime, lr=lr)
        losses = []
        for _step in range(steps):
            ids = rng.integers(0, vocab, size=(batch, seq))
            targets = np.roll(ids, -1, axis=1)
            losses.append(runtime.train_step(lambda: loss_fn(model(ids), targets)))
        return losses, {name: p.data.copy() for name, p in model.named_parameters()}


@given(
    seed=st.integers(min_value=0, max_value=10_000),
    layers=st.integers(min_value=1, max_value=4),
    dim_heads=st.sampled_from([(8, 2), (16, 2), (16, 4), (24, 3)]),
    seq=st.sampled_from([4, 8, 12]),
    batch=st.integers(min_value=1, max_value=4),
    lr=st.floats(min_value=1e-4, max_value=5e-2),
    tier=st.sampled_from([HOST, NVME]),
)
@settings(max_examples=12, deadline=None)
def test_active_equals_deferred_for_random_architectures(
    seed, layers, dim_heads, seq, batch, lr, tier
):
    dim, heads = dim_heads
    active_losses, active_params = train(seed, layers, dim, heads, seq, batch, lr, tier, True)
    deferred_losses, deferred_params = train(seed, layers, dim, heads, seq, batch, lr, tier, False)
    assert active_losses == deferred_losses
    for name in active_params:
        np.testing.assert_array_equal(active_params[name], deferred_params[name])


@given(
    seed=st.integers(min_value=0, max_value=1000),
    layers=st.integers(min_value=1, max_value=3),
)
@settings(max_examples=8, deadline=None)
def test_training_is_deterministic(seed, layers):
    """Same seeds => byte-identical runs (spill round trips included)."""
    first = train(seed, layers, 16, 2, 8, 2, 1e-2, NVME, True)
    second = train(seed, layers, 16, 2, 8, 2, 1e-2, NVME, True)
    assert first[0] == second[0]
    for name in first[1]:
        np.testing.assert_array_equal(first[1][name], second[1][name])


@given(seed=st.integers(min_value=0, max_value=1000))
@settings(max_examples=6, deadline=None)
def test_losses_are_finite(seed):
    losses, params = train(seed, 2, 16, 2, 8, 2, 1e-2, NVME, True, steps=3)
    assert all(np.isfinite(loss) for loss in losses)
    for value in params.values():
        assert np.isfinite(value).all()
