"""Tests for the NumPy autograd engine, including property-based gradchecks."""

from __future__ import annotations

import re

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from hypothesis.extra.numpy import arrays

from repro.runtime import (
    AutogradError,
    CrossEntropyLoss,
    DiTModel,
    GPTModel,
    IndexRangeError,
    Tensor,
    denoising_loss,
    is_grad_enabled,
    no_grad,
)
from repro.runtime.tensor import _causal_mask


def numeric_grad(fn, x: np.ndarray, eps: float = 1e-3) -> np.ndarray:
    """Central-difference gradient of a scalar-valued fn."""
    grad = np.zeros_like(x, dtype=np.float64)
    flat = x.reshape(-1)
    out = grad.reshape(-1)
    for i in range(flat.size):
        original = flat[i]
        flat[i] = original + eps
        hi = fn(x.copy())
        flat[i] = original - eps
        lo = fn(x.copy())
        flat[i] = original
        out[i] = (hi - lo) / (2 * eps)
    return grad


def check_grad(build, shape, rng, atol=2e-2):
    """Compare autograd against numeric differentiation."""
    x = rng.normal(size=shape).astype(np.float32)
    tensor = Tensor(x.copy(), requires_grad=True)
    build(tensor).backward()

    def scalar(data):
        return float(build(Tensor(data)).data)

    expected = numeric_grad(scalar, x.astype(np.float64))
    np.testing.assert_allclose(tensor.grad, expected, atol=atol, rtol=1e-2)


small = arrays(np.float32, (3, 4), elements=st.floats(-2, 2, width=32))


class TestGradChecks:
    def test_add_mul(self, rng):
        check_grad(lambda t: ((t + 2.0) * t).sum(), (3, 4), rng)

    def test_sub_div(self, rng):
        check_grad(lambda t: ((t - 0.5) / 2.0).sum(), (3, 4), rng)

    def test_pow(self, rng):
        check_grad(lambda t: ((t * t + 1.0) ** 0.5).sum(), (3, 4), rng)

    def test_matmul(self, rng):
        w = Tensor(rng.normal(size=(4, 5)).astype(np.float32))
        check_grad(lambda t: (t @ w).sum(), (3, 4), rng)

    def test_matmul_right_operand(self, rng):
        a = Tensor(rng.normal(size=(3, 4)).astype(np.float32))
        check_grad(lambda t: (a @ t).sum(), (4, 5), rng)

    def test_softmax(self, rng):
        w = Tensor(rng.normal(size=(4,)).astype(np.float32))
        check_grad(lambda t: (t.softmax(-1) * w).sum(), (3, 4), rng)

    def test_gelu(self, rng):
        check_grad(lambda t: t.gelu().sum(), (3, 4), rng)

    def test_tanh_exp_log(self, rng):
        check_grad(lambda t: (t.tanh().exp() + (t * t + 1.0).log()).sum(), (3, 4), rng)

    def test_reshape_transpose(self, rng):
        w = Tensor(rng.normal(size=(4, 5)).astype(np.float32))
        check_grad(
            lambda t: (t.transpose(1, 0).transpose(1, 0).reshape(12).reshape(3, 4) @ w).sum(),
            (3, 4),
            rng,
        )

    @pytest.mark.parametrize(
        "shape, index",
        [
            ((3, 2, 4, 5), 1),  # x[i]: the attention q/k/v split
            ((6, 4), slice(None, 4)),  # x[:n]: position-embedding rows
            ((2, 6, 4), (slice(None), slice(2, 3), slice(None))),  # x[:, i:i+1, :]: adaLN
        ],
    )
    def test_basic_indexing(self, rng, shape, index):
        picked = np.empty(shape)[index].shape
        w = Tensor(rng.normal(size=picked).astype(np.float32))
        check_grad(lambda t: (t[index] * w).sum(), shape, rng)

    def test_mean_and_sum_axes(self, rng):
        check_grad(lambda t: (t.mean(axis=1, keepdims=True) * t).sum(), (3, 4), rng)

    def test_embedding(self, rng):
        ids = np.array([[0, 2], [1, 1]])
        check_grad(lambda t: (t.embedding(ids) * 2.0).sum(), (3, 4), rng)

    @pytest.mark.parametrize("wrt", ["x", "weight", "bias"])
    def test_linear(self, rng, wrt):
        shapes = {"x": (2, 3, 4), "weight": (4, 5), "bias": (5,)}
        args = {
            name: Tensor(rng.normal(size=shape).astype(np.float32))
            for name, shape in shapes.items()
        }
        w = Tensor(rng.normal(size=(2, 3, 5)).astype(np.float32))

        def build(t):
            parts = {**args, wrt: t}
            return (parts["x"].linear(parts["weight"], parts["bias"]) * w).sum()

        check_grad(build, shapes[wrt], rng)

    @pytest.mark.parametrize("wrt", ["x", "gain", "shift"])
    def test_layer_norm(self, rng, wrt):
        shapes = {"x": (2, 3, 6), "gain": (6,), "shift": (6,)}
        args = {
            name: Tensor(rng.normal(size=shape).astype(np.float32))
            for name, shape in shapes.items()
        }
        w = Tensor(rng.normal(size=(2, 3, 6)).astype(np.float32))

        def build(t):
            parts = {**args, wrt: t}
            return (parts["x"].layer_norm(parts["gain"], parts["shift"], 1e-5) * w).sum()

        check_grad(build, shapes[wrt], rng)

    def test_cross_entropy(self, rng):
        targets = rng.integers(0, 7, size=(2, 3))
        check_grad(lambda t: t.cross_entropy(targets) * 3.0, (2, 3, 7), rng)

    @pytest.mark.parametrize("causal", [True, False], ids=["causal", "full"])
    @pytest.mark.parametrize("heads", [1, 2, 3, 4])
    def test_attention(self, rng, heads, causal):
        w = Tensor(rng.normal(size=(2, 5, 12)).astype(np.float32))
        check_grad(lambda t: (t.attention(heads, causal) * w).sum(), (2, 5, 36), rng)

    @given(small)
    @settings(max_examples=15, deadline=None)
    def test_composite_expression_property(self, x):
        tensor = Tensor(x.copy(), requires_grad=True)
        loss = ((tensor @ tensor.transpose(1, 0)).softmax(-1).sum() + tensor.gelu().mean())
        loss.backward()

        def scalar(data):
            t = Tensor(data)
            return float(
                ((t @ t.transpose(1, 0)).softmax(-1).sum() + t.gelu().mean()).data
            )

        expected = numeric_grad(scalar, x.astype(np.float64))
        np.testing.assert_allclose(tensor.grad, expected, atol=5e-2, rtol=5e-2)


class TestBroadcasting:
    def test_bias_broadcast_accumulates(self, rng):
        bias = Tensor(np.zeros(4, dtype=np.float32), requires_grad=True)
        x = Tensor(rng.normal(size=(3, 4)).astype(np.float32))
        (x + bias).sum().backward()
        np.testing.assert_allclose(bias.grad, np.full(4, 3.0))

    def test_keepdims_broadcast(self, rng):
        scale = Tensor(np.ones((3, 1), dtype=np.float32), requires_grad=True)
        x = Tensor(rng.normal(size=(3, 4)).astype(np.float32))
        (x * scale).sum().backward()
        np.testing.assert_allclose(scale.grad, x.data.sum(axis=1, keepdims=True), rtol=1e-5)


class TestGraphMechanics:
    def test_grad_accumulates_across_uses(self):
        x = Tensor(np.ones(3, dtype=np.float32), requires_grad=True)
        (x * 2 + x * 3).sum().backward()
        np.testing.assert_allclose(x.grad, np.full(3, 5.0))

    def test_backward_without_requires_grad_raises(self):
        with pytest.raises(AutogradError):
            Tensor(np.ones(3)).backward()

    def test_no_grad_blocks_graph(self):
        x = Tensor(np.ones(3, dtype=np.float32), requires_grad=True)
        with no_grad():
            assert not is_grad_enabled()
            y = (x * 2).sum()
        assert not y.requires_grad
        assert is_grad_enabled()

    def test_detach_cuts_graph(self):
        x = Tensor(np.ones(3, dtype=np.float32), requires_grad=True)
        y = (x * 2).detach()
        assert not y.requires_grad

    def test_zero_grad(self):
        x = Tensor(np.ones(3, dtype=np.float32), requires_grad=True)
        (x * 2).sum().backward()
        assert x.grad is not None
        x.zero_grad()
        assert x.grad is None

    def test_backward_frees_interior_nodes_and_keeps_leaves(self):
        x = Tensor(np.ones(3, dtype=np.float32), requires_grad=True)
        y = x * 2
        loss = y.sum()
        loss.backward()
        assert y._parents == () and loss._parents == ()
        assert x._backward is None
        np.testing.assert_array_equal(x.grad, np.full(3, 2.0))

    def test_second_backward_through_a_freed_graph_raises(self):
        x = Tensor(np.ones(3, dtype=np.float32), requires_grad=True)
        y = x * 2
        loss = y.sum()
        loss.backward()
        with pytest.raises(AutogradError, match="freed"):
            loss.backward()
        # A new graph on top of a freed node reaches it too.
        with pytest.raises(AutogradError, match="freed"):
            (y * 3).sum().backward()

    def test_leaves_accumulate_across_freed_graphs(self):
        x = Tensor(np.ones(3, dtype=np.float32), requires_grad=True)
        (x * 2).sum().backward()
        (x * 3).sum().backward()
        np.testing.assert_array_equal(x.grad, np.full(3, 5.0))

    def test_hooks_fire_once_per_backward(self):
        x = Tensor(np.ones(3, dtype=np.float32), requires_grad=True)
        fired = []
        x.register_hook(lambda t: fired.append(t.grad.copy()))
        # x used twice: the hook must fire once, after both contributions.
        (x * 2 + x).sum().backward()
        assert len(fired) == 1
        np.testing.assert_allclose(fired[0], np.full(3, 3.0))

    def test_hook_order_is_reverse_topological(self):
        order = []
        a = Tensor(np.ones(2, dtype=np.float32), requires_grad=True, name="a")
        b = Tensor(np.ones(2, dtype=np.float32), requires_grad=True, name="b")
        a.register_hook(lambda t: order.append("a"))
        b.register_hook(lambda t: order.append("b"))
        # b enters the graph later (closer to the loss): its gradient
        # completes first — the arrival order §IV-C relies on.
        ((a * 2).tanh() * b).sum().backward()
        assert order == ["b", "a"]

    def test_repr_mentions_name(self):
        assert "alpha" in repr(Tensor(np.ones(2), name="alpha"))


class TestGradientOwnership:
    """Leaves own their gradients; interior nodes borrow what they are handed."""

    @staticmethod
    def _backward(kind: str) -> list[tuple[str, Tensor]]:
        rng = np.random.default_rng(3)
        if kind == "shared":
            # The add node hands one array to both of its parents.
            a, b, c = (
                Tensor(rng.normal(size=(3, 4)).astype(np.float32), requires_grad=True)
                for _ in range(3)
            )
            ((a + b) * c).sum().backward()
            return [("a", a), ("b", b), ("c", c)]
        if kind == "gpt":
            model = GPTModel(23, 16, 2, 2, 8, rng)
            ids = rng.integers(0, 23, size=(2, 8))
            CrossEntropyLoss()(model(ids), np.roll(ids, -1, axis=1)).backward()
        else:
            model = DiTModel(dim=16, n_layers=2, n_heads=2, rng=rng)
            for block in model.blocks:  # open the adaLN-zero gates
                block.modulation.weight.data[:] = rng.normal(size=(16, 96)) * 0.1
            noise = rng.normal(size=(2, 4, 8, 8)).astype(np.float32)
            denoising_loss(
                model, noise * 2, noise, rng.integers(0, 1000, 2), rng.integers(0, 10, 2)
            ).backward()
        return list(model.named_parameters())

    @pytest.mark.parametrize("kind", ["shared", "gpt", "dit"])
    def test_every_parameter_gradient_owns_its_memory(self, kind):
        """Scaling one gradient in place (as ``clip_gradients`` does) leaves
        every other gradient unchanged."""
        params = self._backward(kind)
        grads = {name: param.grad for name, param in params}
        assert all(grad.flags.owndata for grad in grads.values())
        expected = {name: grad.copy() for name, grad in grads.items()}
        for name, grad in grads.items():
            grad *= 0.5
            expected[name] *= 0.5
            for other, value in grads.items():
                np.testing.assert_array_equal(value, expected[other], err_msg=f"{name} -> {other}")

    def test_interior_node_borrows_and_sums_into_a_fresh_array(self):
        x = Tensor(np.ones(3, dtype=np.float32), requires_grad=True)
        y = x * 2
        handed = np.full(3, 1.5, dtype=np.float32)
        y._accumulate(handed)
        assert y.grad is handed
        y._accumulate(np.full(3, 0.25, dtype=np.float32))
        assert y.grad is not handed
        np.testing.assert_array_equal(handed, np.full(3, 1.5))
        np.testing.assert_array_equal(y.grad, np.full(3, 1.75))

    def test_hooked_interior_node_owns_its_gradient(self):
        x = Tensor(np.ones(3, dtype=np.float32), requires_grad=True)
        y = x * 2
        seen = []
        y.register_hook(lambda t: seen.append(t.grad))
        (y * 3).sum().backward()
        (grad,) = seen
        assert grad.flags.owndata
        np.testing.assert_array_equal(grad, np.full(3, 3.0))


class TestFusedOps:
    """What the one-node ops promise beyond their gradients."""

    def test_causal_mask_is_built_once_per_length(self):
        mask = _causal_mask(6)
        assert _causal_mask(6) is mask and not mask.flags.writeable
        np.testing.assert_array_equal(mask, np.triu(np.full((6, 6), -1e9, np.float32), k=1))

    @pytest.mark.parametrize("axis", [0, 1, -1])
    def test_softmax_shifts_by_the_exact_maximum(self, rng, axis):
        x = rng.normal(size=(3, 4, 5)).astype(np.float32) * 30
        exp = np.exp(x - x.max(axis=axis, keepdims=True))
        expected = exp / exp.sum(axis=axis, keepdims=True)
        np.testing.assert_array_equal(Tensor(x).softmax(axis).data, expected)

    def test_backward_leaves_the_incoming_gradient_alone(self, rng):
        qkv = Tensor(rng.normal(size=(2, 4, 12)).astype(np.float32), requires_grad=True)
        weight = Tensor(rng.normal(size=(4, 4)).astype(np.float32), requires_grad=True)
        bias = Tensor(np.zeros(4, dtype=np.float32), requires_grad=True)
        out = qkv.attention(2, True).linear(weight, bias)
        grad = rng.normal(size=out.shape).astype(np.float32)
        out.backward(grad.copy())
        np.testing.assert_array_equal(out.grad, grad)

    @pytest.mark.parametrize("gap", [120.0, 1e4, 3e38])
    def test_cross_entropy_stays_finite_at_any_logit_gap(self, gap):
        """The loss is the gap when the target sits that far below the top
        logit, 0 when the target is the top logit; no step overflows."""
        logits = np.zeros((1, 1, 4), dtype=np.float32)
        logits[..., 2] = gap
        for target, expected in ((0, np.float32(gap)), (2, 0.0)):
            tensor = Tensor(logits.copy(), requires_grad=True)
            with np.errstate(divide="raise", invalid="raise", over="raise"):
                loss = tensor.cross_entropy(np.array([[target]]))
                loss.backward()
            assert float(loss.data) == expected
            assert np.isfinite(tensor.grad).all()
            assert tensor.grad[0, 0, target] == (-1.0 if target == 0 else 0.0)


class TestIndexChecks:
    """A bad index raises one typed, one-line error naming it and the
    valid range, instead of a wrapped row or a bare NumPy error."""

    @staticmethod
    def raises(call, message):
        with pytest.raises(IndexRangeError, match=re.escape(message)) as caught:
            call()
        assert "\n" not in str(caught.value)

    @pytest.mark.parametrize("target", [-1, 5])
    def test_cross_entropy_target_outside_the_classes(self, target):
        logits = Tensor(np.zeros((1, 2, 5), dtype=np.float32), requires_grad=True)
        self.raises(
            lambda: logits.cross_entropy(np.array([[0, target]])),
            f"target {target} is outside [0, 4]",
        )

    def test_cross_entropy_float_targets(self):
        logits = Tensor(np.zeros((1, 2, 5), dtype=np.float32))
        self.raises(
            lambda: logits.cross_entropy(np.array([[0.0, 1.0]])),
            "targets must be integers in [0, 4], got float64",
        )

    @pytest.mark.parametrize("index", [-1, 4])
    def test_embedding_id_outside_the_table(self, index):
        table = Tensor(np.zeros((4, 3), dtype=np.float32), requires_grad=True)
        self.raises(
            lambda: table.embedding(np.array([1, index])), f"embedding id {index} is outside [0, 3]"
        )

    def test_gpt_rejects_a_negative_token_id(self, rng):
        model = GPTModel(10, 8, 1, 2, 6, rng)
        self.raises(lambda: model(np.array([[1, -2, 3]])), "embedding id -2 is outside [0, 9]")

    def test_gpt_rejects_more_tokens_than_positions(self, rng):
        model = GPTModel(10, 8, 1, 2, 6, rng)
        self.raises(
            lambda: model(np.zeros((1, 7), dtype=np.int64)), "sequence length 7 is outside [0, 6]"
        )

    def test_first_and_last_rows_pass(self, rng):
        model = GPTModel(10, 8, 1, 2, 6, rng)
        ids = np.array([[0, 9, 0, 9, 0, 9]])
        loss = CrossEntropyLoss()(model(ids), ids)
        assert np.isfinite(float(loss.data))
