"""Property-based tests of the functional offload engine.

The no-staleness equivalence must hold for *any* architecture, batch
shape, learning rate and checkpoint tier — not just the fixtures the
unit tests pin down.  Hypothesis drives random (tiny) configurations
through both execution modes and demands bit-identical parameters.
So must the grouped CPU Adam: a runtime that updates a block's
parameters at once trains exactly as one parameter at a time does, and
the G16 each group hands it is NumPy's fp16 cast of its gradients.
And so must the one-node transformer ops: ``linear`` and ``attention``
against the primitive-op graphs they replaced, and ``layer_norm``,
``cross_entropy``, ``attention`` and ``softmax`` to within 1e-5 of a
float64 reference.  Both sides
run in one process, so the checks hold on any BLAS build.
"""

from __future__ import annotations

import numpy as np
from hypothesis import given, settings, strategies as st

from repro.runtime import (
    GPU,
    HOST,
    NVME,
    CPUAdam,
    CrossEntropyLoss,
    DiTModel,
    GPTModel,
    RatelOptimizer,
    RatelRuntime,
    StorageManager,
    Tensor,
    denoising_loss,
    ratel_hook,
    ratel_init,
)

GB = 1e9


def train(seed, layers, dim, heads, seq, batch, lr, tier, active, steps=2, states_tier=NVME):
    loss_fn = CrossEntropyLoss()
    rng = np.random.default_rng(seed)
    vocab = 23
    with ratel_init(
        gpu_capacity=GB,
        host_capacity=GB,
        nvme_capacity=4 * GB,
        checkpoint_tier=tier,
        states_tier=states_tier,
        active_offload=active,
    ) as context:
        model = GPTModel(vocab, dim, layers, heads, seq, np.random.default_rng(seed + 1))
        runtime = ratel_hook(model)
        RatelOptimizer(model, runtime, lr=lr)
        losses = []
        for _step in range(steps):
            ids = rng.integers(0, vocab, size=(batch, seq))
            targets = np.roll(ids, -1, axis=1)
            losses.append(runtime.train_step(lambda: loss_fn(model(ids), targets)))
        params = {name: p.data.copy() for name, p in model.named_parameters()}
        return losses, params, dict(context.manager.moved_bytes)


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
    active_losses, active_params, _ = train(seed, layers, dim, heads, seq, batch, lr, tier, True)
    deferred_losses, deferred_params, _ = train(seed, layers, dim, heads, seq, batch, lr, tier, False)
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
    losses, params, _ = train(seed, 2, 16, 2, 8, 2, 1e-2, NVME, True, steps=3)
    assert all(np.isfinite(loss) for loss in losses)
    for value in params.values():
        assert np.isfinite(value).all()


@given(
    seed=st.integers(min_value=0, max_value=10_000),
    layers=st.integers(min_value=1, max_value=4),
    dim_heads=st.sampled_from([(8, 2), (16, 2), (16, 4), (24, 3)]),
    seq=st.sampled_from([4, 8, 12]),
    batch=st.integers(min_value=1, max_value=4),
    lr=st.floats(min_value=1e-4, max_value=5e-2),
    tier=st.sampled_from([HOST, NVME]),
    steps=st.integers(min_value=1, max_value=3),
)
@settings(max_examples=10, deadline=None)
def test_states_tier_conformance(seed, layers, dim_heads, seq, batch, lr, tier, steps):
    """States on NVMe train bit-identically to states on the host, and every
    link carries the closed-form bytes of the Table II accounting."""
    dim, heads = dim_heads
    runs = {
        states_tier: train(
            seed, layers, dim, heads, seq, batch, lr, tier, True, steps, states_tier
        )
        for states_tier in (NVME, HOST)
    }
    nvme_losses, nvme_params, _ = runs[NVME]
    host_losses, host_params, _ = runs[HOST]
    assert nvme_losses == host_losses
    for name in nvme_params:
        np.testing.assert_array_equal(nvme_params[name], host_params[name])

    n = sum(value.size for value in nvme_params.values())
    boundary = 2 * batch * seq * dim  # one fp16 block-boundary activation
    checkpoints = steps * layers * boundary
    on_nvme = tier == NVME
    for states_tier, (_losses, _params, moved) in runs.items():
        states = 14 * n if states_tier == NVME else 0  # P32 + OS32 + P16
        assert moved[(GPU, HOST)] == steps * 2 * n + checkpoints
        assert moved[(HOST, GPU)] == checkpoints
        assert moved[(HOST, NVME)] == states * (steps + 1) + on_nvme * checkpoints
        assert moved[(NVME, HOST)] == states * steps + on_nvme * checkpoints


#: (optimizer_mode, active_offload) per runtime mode; ``async`` is K=0.
MODES = {
    "sync": ("sync", True),
    "deferred": ("sync", False),
    "overlap": ("overlap", True),
    "async": ("async", True),
}


def _model(kind, seed, layers, dim, heads):
    rng = np.random.default_rng(seed)
    if kind == "gpt":
        return GPTModel(23, dim, layers, heads, 8, rng)
    return DiTModel(dim, layers, heads, rng, latent_side=4, patch_size=2)


def _loss_fns(kind, model, seed, batch, steps):
    rng = np.random.default_rng(seed + 1)
    fns = []
    for _step in range(steps):
        if kind == "gpt":
            ids = rng.integers(0, 23, size=(batch, 8))
            targets = np.roll(ids, -1, axis=1)
            fns.append(lambda ids=ids, targets=targets: CrossEntropyLoss()(model(ids), targets))
        else:
            noise = rng.normal(size=(batch, 4, 4, 4)).astype(np.float32)
            noised = noise + rng.normal(size=noise.shape).astype(np.float32)
            t, y = rng.integers(0, 1000, size=batch), rng.integers(0, 10, size=batch)
            fns.append(lambda a=noised, b=noise, t=t, y=y: denoising_loss(model, a, b, t, y))
    return fns


@given(
    kind=st.sampled_from(["gpt", "dit"]),
    seed=st.integers(min_value=0, max_value=10_000),
    layers=st.integers(min_value=1, max_value=3),
    dim_heads=st.sampled_from([(8, 2), (16, 2), (16, 4)]),
    batch=st.integers(min_value=1, max_value=3),
    lr=st.floats(min_value=1e-4, max_value=5e-2),
    tier=st.sampled_from([HOST, NVME]),
    states_tier=st.sampled_from([HOST, NVME]),
    mode=st.sampled_from(list(MODES)),
    steps=st.integers(min_value=1, max_value=3),
)
@settings(max_examples=16, deadline=None)
def test_grouped_updates_equal_per_parameter_updates(
    kind, seed, layers, dim_heads, batch, lr, tier, states_tier, mode, steps
):
    """Block groups through ``RatelRuntime`` against one group per
    parameter, stepped by hand after the same checkpointed backward."""
    dim, heads = dim_heads
    optimizer_mode, active = MODES[mode]
    with ratel_init(
        gpu_capacity=GB,
        host_capacity=GB,
        nvme_capacity=4 * GB,
        checkpoint_tier=tier,
        states_tier=states_tier,
        active_offload=active,
        optimizer_mode=optimizer_mode,
    ):
        model = _model(kind, seed, layers, dim, heads)
        runtime = ratel_hook(model)
        grouped = RatelOptimizer(model, runtime, lr=lr).cpu_adam
        losses = [runtime.train_step(fn) for fn in _loss_fns(kind, model, seed, batch, steps)]
        runtime.flush_pending()
        weights = {name: param.data.copy() for name, param in model.named_parameters()}
        states = {name: grouped.read_states(name) for name in weights}
    if mode != "async":
        assert len(grouped.groups) == layers + 1

    manager = StorageManager(GB, GB, 4 * GB)
    try:
        model = _model(kind, seed, layers, dim, heads)
        # Checkpointed blocks and no gradient handlers: the steps below
        # update every parameter on its own.
        RatelRuntime(model, manager, None, checkpoint_tier=tier)
        alone = CPUAdam(
            list(model.named_parameters()), manager, lr=lr, states_tier=states_tier
        )
        assert len(alone.groups) == len(alone.params)
        by_hand = []
        for fn in _loss_fns(kind, model, seed, batch, steps):
            model.zero_grad()
            loss = fn()
            loss.backward()
            for name, param in model.named_parameters():
                grad16 = param.grad.astype(np.float16).astype(np.float32)
                param.data = alone.step_param(name, grad16).copy()
            by_hand.append(float(loss.data))
        assert losses == by_hand
        for name, param in model.named_parameters():
            np.testing.assert_array_equal(weights[name], param.data, err_msg=name)
            np.testing.assert_array_equal(states[name], alone.read_states(name), err_msg=name)
    finally:
        manager.close()


@given(
    kind=st.sampled_from(["gpt", "dit"]),
    seed=st.integers(min_value=0, max_value=10_000),
    layers=st.integers(min_value=1, max_value=3),
    dim_heads=st.sampled_from([(8, 2), (16, 2), (16, 4)]),
    batch=st.integers(min_value=1, max_value=3),
    lr=st.floats(min_value=1e-4, max_value=5e-2),
    tier=st.sampled_from([HOST, NVME]),
    states_tier=st.sampled_from([HOST, NVME]),
    mode=st.sampled_from(list(MODES)),
    steps=st.integers(min_value=1, max_value=3),
)
@settings(max_examples=16, deadline=None)
def test_each_group_receives_numpys_fp16_cast_of_its_gradients(
    kind, seed, layers, dim_heads, batch, lr, tier, states_tier, mode, steps
):
    """The G16 handed to ``CPUAdam.step_param`` is, bit for bit,
    ``astype(float16).astype(float32)`` of the group's leaf gradients in
    member order, in every mode and whenever the update applies."""
    dim, heads = dim_heads
    optimizer_mode, active = MODES[mode]
    with ratel_init(
        gpu_capacity=GB,
        host_capacity=GB,
        nvme_capacity=4 * GB,
        checkpoint_tier=tier,
        states_tier=states_tier,
        active_offload=active,
        optimizer_mode=optimizer_mode,
    ):
        model = _model(kind, seed, layers, dim, heads)
        runtime = ratel_hook(model)
        # Registered before the optimizer arms the runtime's handlers, so
        # each fires first and sees the finished gradient.
        produced: dict[str, list[np.ndarray]] = {}
        for name, param in model.named_parameters():
            param.register_hook(
                lambda tensor, name=name: produced.setdefault(name, []).append(
                    tensor.grad.copy()
                )
            )
        adam = RatelOptimizer(model, runtime, lr=lr).cpu_adam
        step_param = adam.step_param
        handed = []

        def checking_step_param(group, grad16):
            # A member's gradients reach its group in the order produced.
            leaf = np.concatenate(
                [produced[name].pop(0).reshape(-1) for name in adam.groups[group]]
            )
            want = leaf.astype(np.float16).astype(np.float32)
            np.testing.assert_array_equal(
                grad16.reshape(-1).view(np.uint32), want.view(np.uint32), err_msg=group
            )
            handed.append(group)
            return step_param(group, grad16)

        adam.step_param = checking_step_param
        for fn in _loss_fns(kind, model, seed, batch, steps):
            runtime.train_step(fn)
        runtime.flush_pending()
    assert len(handed) == steps * len(adam.groups)
    assert not any(produced.values())


# -- one-node ops against the primitive-op graphs they replaced ------------------


def composite_linear(x, weight, bias):
    return x @ weight + bias


def composite_attention(qkv, n_heads, causal):
    batch, seq, width = qkv.shape
    dim = width // 3
    head_dim = dim // n_heads
    parts = qkv.reshape(batch, seq, 3, n_heads, head_dim).transpose(2, 0, 3, 1, 4)
    parts = parts.reshape(3, batch * n_heads, seq, head_dim)
    q, k, v = parts[0], parts[1], parts[2]
    scores = (q @ k.transpose(0, 2, 1)) * (1.0 / np.sqrt(head_dim))
    if causal:
        scores = scores + Tensor(np.triu(np.full((seq, seq), -1e9, dtype=np.float32), k=1))
    context = scores.softmax(axis=-1) @ v
    context = context.reshape(batch, n_heads, seq, head_dim).transpose(0, 2, 1, 3)
    return context.reshape(batch, seq, dim)


def _run(build, arrays, grad):
    """Output and every input gradient of ``build`` at ``arrays``."""
    leaves = [Tensor(array.copy(), requires_grad=True) for array in arrays]
    out = build(*leaves)
    out.backward(grad.copy())
    return [out.data] + [leaf.grad for leaf in leaves]


@given(
    seed=st.integers(min_value=0, max_value=2**32 - 1),
    batch=st.integers(min_value=1, max_value=3),
    seq=st.integers(min_value=1, max_value=9),
    heads=st.integers(min_value=1, max_value=4),
    head_dim=st.integers(min_value=1, max_value=8),
    causal=st.booleans(),
    op=st.sampled_from(["linear", "attention"]),
)
@settings(max_examples=40, deadline=None)
def test_fused_ops_equal_their_composites(seed, batch, seq, heads, head_dim, causal, op):
    """Same values, same rounding: every bit of the output and gradients."""
    rng = np.random.default_rng(seed)
    dim = heads * head_dim

    def normal(*shape):
        return rng.normal(size=shape).astype(np.float32)

    if op == "linear":
        arrays = [normal(batch, seq, dim), normal(dim, 3 * dim), normal(3 * dim)]
        grad = normal(batch, seq, 3 * dim)
        fused, composite = Tensor.linear, composite_linear
    else:
        arrays = [normal(batch, seq, 3 * dim) * 3]
        grad = normal(batch, seq, dim)

        def fused(qkv):
            return qkv.attention(heads, causal)

        def composite(qkv):
            return composite_attention(qkv, heads, causal)

    for got, want in zip(_run(fused, arrays, grad), _run(composite, arrays, grad), strict=True):
        np.testing.assert_array_equal(got, want)


def _relative_error(got, want, scale):
    """Largest deviation from ``want`` in units of ``scale``."""
    return float(np.max(np.abs(np.asarray(got, dtype=np.float64) - want))) / scale


def reference_layer_norm(x, gain, shift, eps, grad):
    """Output and the x, gain and shift gradients, in float64."""
    x, gain, shift, grad = (a.astype(np.float64) for a in (x, gain, shift, grad))
    centred = x - x.mean(axis=-1, keepdims=True)
    rstd = 1.0 / np.sqrt((centred * centred).mean(axis=-1, keepdims=True) + eps)
    normed = centred * rstd
    dnormed = grad * gain
    dx = rstd * (
        dnormed
        - dnormed.mean(axis=-1, keepdims=True)
        - normed * (dnormed * normed).mean(axis=-1, keepdims=True)
    )
    lead = tuple(range(x.ndim - 1))
    return [normed * gain + shift, dx, (grad * normed).sum(axis=lead), grad.sum(axis=lead)]


def reference_cross_entropy(logits, targets, grad):
    """Mean loss and the logits' gradient, in float64."""
    z = logits.astype(np.float64).reshape(-1, logits.shape[-1])
    picks = targets.reshape(-1)
    rows = np.arange(picks.size)
    peak = z.max(axis=-1, keepdims=True)
    exp = np.exp(z - peak)
    loss = np.mean(peak[:, 0] + np.log(exp.sum(axis=-1)) - z[rows, picks])
    dz = exp / exp.sum(axis=-1, keepdims=True)
    dz[rows, picks] -= 1.0
    return [loss, (dz * (float(grad) / picks.size)).reshape(logits.shape)]


@given(
    seed=st.integers(min_value=0, max_value=2**32 - 1),
    batch=st.integers(min_value=1, max_value=3),
    seq=st.integers(min_value=1, max_value=9),
    width=st.integers(min_value=8, max_value=48),
    scale=st.floats(min_value=0.1, max_value=20.0),
    confident=st.booleans(),
    op=st.sampled_from(["layer_norm", "cross_entropy"]),
)
@settings(max_examples=40, deadline=None)
def test_fused_ops_match_a_float64_reference(seed, batch, seq, width, scale, confident, op):
    """Outputs and every input gradient within 1e-5 of float64.

    LayerNorm errors are in units of the reference's largest magnitude.
    Its rows are drawn within three standard deviations of zero mean and
    at least 8 wide: the x gradient is the output gradient projected off
    the row's ones and normalised directions, which for a 2- or 3-wide
    row leaves at most one direction, often nearly empty, where float32
    rounding of the inputs dominates any formulation.

    Cross-entropy logits are scaled up to 20; ``confident`` makes every
    target its row's top logit.  Float32 rounds ``1 + rest`` in the
    log-sum-exp and in ``softmax - 1`` at such a target, so a tiny loss
    or target gradient is right to float32's resolution at 1, not
    relative to its own size: the loss is measured in units of
    ``max(|loss|, 1)`` and the gradient in units of its bound,
    ``|upstream| / rows``.
    """
    rng = np.random.default_rng(seed)
    if op == "layer_norm":
        shape = (batch, seq, width)
        offset = rng.uniform(-3.0, 3.0, size=(batch, seq, 1))
        arrays = [
            ((rng.normal(size=shape) + offset) * scale).astype(np.float32),
            (rng.normal(size=width) + 1.0).astype(np.float32),
            rng.normal(size=width).astype(np.float32),
        ]
        grad = rng.normal(size=shape).astype(np.float32)
        got = _run(lambda x, g, b: x.layer_norm(g, b, 1e-5), arrays, grad)
        want = reference_layer_norm(*arrays, 1e-5, grad)
        scales = [float(np.max(np.abs(value))) for value in want]
    else:
        logits = (rng.normal(size=(batch, seq, width)) * scale).astype(np.float32)
        if confident:
            targets = logits.argmax(axis=-1)
        else:
            targets = rng.integers(0, width, size=(batch, seq))
        grad = np.float32(rng.uniform(0.5, 2.0))
        got = _run(lambda z: z.cross_entropy(targets), [logits], grad)
        want = reference_cross_entropy(logits, targets, grad)
        scales = [max(abs(want[0]), 1.0), float(grad) / targets.size]
    for got_value, want_value, unit in zip(got, want, scales, strict=True):
        assert _relative_error(got_value, want_value, unit) <= 1e-5


def reference_softmax(x, grad, axis=-1):
    """Softmax along ``axis`` and its input gradient, in float64."""
    x, grad = x.astype(np.float64), grad.astype(np.float64)
    exp = np.exp(x - x.max(axis=axis, keepdims=True))
    probs = exp / exp.sum(axis=axis, keepdims=True)
    return [probs, probs * (grad - (grad * probs).sum(axis=axis, keepdims=True))]


def reference_attention(qkv, n_heads, causal, grad):
    """Output and the qkv gradient of ``Tensor.attention``, in float64."""
    batch, seq, width = qkv.shape
    head_dim = width // 3 // n_heads
    scale = 1.0 / np.sqrt(head_dim)
    parts = qkv.astype(np.float64).reshape(batch, seq, 3, n_heads, head_dim)
    q, k, v = parts.transpose(2, 0, 3, 1, 4)
    scores = (q @ k.swapaxes(-1, -2)) * scale
    if causal:
        scores[..., np.triu(np.ones((seq, seq), dtype=bool), k=1)] = -np.inf
    dcontext = grad.astype(np.float64).reshape(batch, seq, n_heads, head_dim)
    dcontext = dcontext.transpose(0, 2, 1, 3)
    probs, dscores = reference_softmax(scores, dcontext @ v.swapaxes(-1, -2))
    dscores *= scale
    dqkv = np.stack([dscores @ k, dscores.swapaxes(-1, -2) @ q, probs.swapaxes(-1, -2) @ dcontext])
    context = (probs @ v).transpose(0, 2, 1, 3).reshape(batch, seq, width // 3)
    return [context, dqkv.transpose(1, 3, 0, 2, 4).reshape(batch, seq, width)]


@given(
    seed=st.integers(min_value=0, max_value=2**32 - 1),
    batch=st.integers(min_value=1, max_value=3),
    seq=st.integers(min_value=1, max_value=9),
    heads=st.integers(min_value=1, max_value=4),
    head_dim=st.integers(min_value=1, max_value=8),
    width=st.integers(min_value=1, max_value=48),
    axis=st.sampled_from([0, 1, -1]),
    scale=st.floats(min_value=0.1, max_value=2.0),
    causal=st.booleans(),
    op=st.sampled_from(["attention", "softmax"]),
)
@settings(max_examples=40, deadline=None)
def test_softmax_and_attention_match_a_float64_reference(
    seed, batch, seq, heads, head_dim, width, axis, scale, causal, op
):
    """Outputs and input gradients within 1e-5 of float64.

    Attention's output and packed qkv gradient are in units of the
    reference's largest magnitude.  Its inputs are drawn with a standard
    deviation up to 2, so scores spread up to 4: where a row saturates,
    the q and k gradients are ``probs * (dprobs - dot)``, a cancellation
    far below the value gradient, and float32's rounding of ``dprobs``
    outweighs any formulation of the rest.

    The softmax takes logits scaled up to 20 along ``axis``, ``causal``
    masking them as attention's scores are; its input gradient is in
    units of its bound, ``|upstream|`` (a saturated row's gradient is
    that cancellation), and its output in units of the reference's
    largest magnitude.
    """
    rng = np.random.default_rng(seed)
    if op == "attention":
        dim = heads * head_dim
        qkv = (rng.normal(size=(batch, seq, 3 * dim)) * scale).astype(np.float32)
        grad = rng.normal(size=(batch, seq, dim)).astype(np.float32)
        got = _run(lambda x: x.attention(heads, causal), [qkv], grad)
        want = reference_attention(qkv, heads, causal, grad)
        units = [float(np.max(np.abs(value))) for value in want]
    else:
        logits = rng.normal(size=(batch, seq, width)) * (10.0 * scale)
        if causal:
            logits += np.triu(np.full((seq, width), -1e9), k=1)
        logits = logits.astype(np.float32)
        grad = rng.normal(size=logits.shape).astype(np.float32)
        got = _run(lambda x: x.softmax(axis), [logits], grad)
        want = reference_softmax(logits, grad, axis)
        units = [float(np.max(want[0])), float(np.max(np.abs(grad)))]
    for got_value, want_value, unit in zip(got, want, units, strict=True):
        assert _relative_error(got_value, want_value, unit) <= 1e-5
