"""Tests for the NumPy autograd engine, including property-based gradchecks."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from hypothesis.extra.numpy import arrays

from repro.runtime import AutogradError, Tensor, is_grad_enabled, no_grad


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
