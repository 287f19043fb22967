"""Tests for the optimizers: reference Adam and out-of-core CPU Adam."""

from __future__ import annotations

import numpy as np
import pytest

from repro.runtime import (
    CPUAdam,
    Adam,
    HOST,
    NVME,
    OptimizerError,
    StorageManager,
    Tensor,
)

MB = 10**6


def reference_adam_step(w, g, m, v, step, lr=1e-3, b1=0.9, b2=0.999, eps=1e-8):
    """Textbook Adam, NumPy, for cross-checking."""
    m = b1 * m + (1 - b1) * g
    v = b2 * v + (1 - b2) * g**2
    m_hat = m / (1 - b1**step)
    v_hat = v / (1 - b2**step)
    return w - lr * m_hat / (np.sqrt(v_hat) + eps), m, v


class TestAdam:
    def test_matches_reference_over_steps(self, rng):
        w0 = rng.normal(size=(8,)).astype(np.float32)
        param = Tensor(w0.copy(), requires_grad=True)
        opt = Adam([("w", param)], lr=1e-2)
        w, m, v = w0.astype(np.float64), np.zeros(8), np.zeros(8)
        for step in range(1, 6):
            grad = rng.normal(size=(8,)).astype(np.float32)
            param.grad = grad.copy()
            opt.step()
            w, m, v = reference_adam_step(w, grad, m, v, step, lr=1e-2)
            np.testing.assert_allclose(param.data, w, rtol=1e-4, atol=1e-6)

    def test_missing_grad_raises(self, rng):
        param = Tensor(rng.normal(size=(4,)).astype(np.float32), requires_grad=True)
        opt = Adam([("w", param)])
        with pytest.raises(OptimizerError):
            opt.step()

    def test_zero_grad(self, rng):
        param = Tensor(rng.normal(size=(4,)).astype(np.float32), requires_grad=True)
        param.grad = np.ones(4, dtype=np.float32)
        Adam([("w", param)]).zero_grad()
        assert param.grad is None


class TestCPUAdam:
    @pytest.fixture
    def setup(self, rng, tmp_path):
        manager = StorageManager(10 * MB, 10 * MB, 100 * MB, spill_dir=str(tmp_path))
        param = Tensor(rng.normal(size=(64,)).astype(np.float32), requires_grad=True)
        original = param.data.copy()
        optimizer = CPUAdam([("w", param)], manager, lr=1e-2, states_tier=NVME)
        yield manager, param, optimizer, original
        manager.close()

    def test_init_installs_fp16_copy(self, setup):
        _mgr, param, _opt, original = setup
        np.testing.assert_array_equal(
            param.data, original.astype(np.float16).astype(np.float32)
        )

    def test_master_weights_stay_fp32(self, setup):
        _mgr, _param, optimizer, original = setup
        np.testing.assert_array_equal(optimizer.master_weights("w"), original)

    def test_step_matches_reference_with_fp16_grads(self, setup, rng):
        manager, param, optimizer, original = setup
        w = original.astype(np.float64)
        m = np.zeros(64)
        v = np.zeros(64)
        for step in range(1, 4):
            grad16 = rng.normal(size=(64,)).astype(np.float16).astype(np.float32)
            fresh = optimizer.step_param("w", grad16)
            w, m, v = reference_adam_step(w, grad16.astype(np.float64), m, v, step, lr=1e-2)
            np.testing.assert_allclose(optimizer.master_weights("w"), w, rtol=1e-4, atol=1e-6)
            np.testing.assert_array_equal(
                fresh, w.astype(np.float32).astype(np.float16).astype(np.float32)
            )

    def test_state_traffic_is_12_plus_14_bytes_per_param(self, setup, rng):
        """Each step reads P32+OS32 (12 B/param) and writes them + P16
        (14 B/param) across the host<->NVMe link."""
        manager, _param, optimizer, _original = setup
        before_read = manager.traffic(NVME, HOST)
        before_write = manager.traffic(HOST, NVME)
        optimizer.step_param("w", np.zeros(64, dtype=np.float32))
        read = manager.traffic(NVME, HOST) - before_read
        written = manager.traffic(HOST, NVME) - before_write
        n = 64
        assert read == pytest.approx(12 * n + 2 * n)  # states + old P16 slot
        assert written == pytest.approx(14 * n)

    def test_states_rest_on_their_tier(self, setup):
        manager, _param, optimizer, _original = setup
        optimizer.step_param("w", np.zeros(64, dtype=np.float32))
        for suffix in ("states", "p16"):
            assert manager.get(f"w.{suffix}").tier == NVME

    def test_unknown_param_rejected(self, setup):
        _mgr, _param, optimizer, _orig = setup
        with pytest.raises(OptimizerError):
            optimizer.step_param("nope", np.zeros(1))

    def test_host_tier_mode_has_no_nvme_traffic(self, rng, tmp_path):
        manager = StorageManager(10 * MB, 10 * MB, 100 * MB, spill_dir=str(tmp_path))
        try:
            param = Tensor(rng.normal(size=(16,)).astype(np.float32), requires_grad=True)
            optimizer = CPUAdam([("w", param)], manager, states_tier=HOST)
            optimizer.step_param("w", np.zeros(16, dtype=np.float32))
            assert manager.traffic(HOST, NVME) == 0
            assert manager.traffic(NVME, HOST) == 0
        finally:
            manager.close()

    def test_invalid_states_tier_rejected(self, rng, tmp_path):
        manager = StorageManager(MB, MB, MB, spill_dir=str(tmp_path))
        try:
            param = Tensor(np.zeros(4, dtype=np.float32), requires_grad=True)
            with pytest.raises(OptimizerError):
                CPUAdam([("w", param)], manager, states_tier="gpu")
        finally:
            manager.close()

    def test_per_param_step_counts_independent(self, rng, tmp_path):
        """Active offloading updates parameters at different times; the
        bias correction must track each parameter's own step count."""
        manager = StorageManager(10 * MB, 10 * MB, 100 * MB, spill_dir=str(tmp_path))
        try:
            pa = Tensor(np.zeros(4, dtype=np.float32), requires_grad=True)
            pb = Tensor(np.zeros(4, dtype=np.float32), requires_grad=True)
            optimizer = CPUAdam([("a", pa), ("b", pb)], manager, states_tier=HOST)
            optimizer.step_param("a", np.ones(4, dtype=np.float32))
            optimizer.step_param("a", np.ones(4, dtype=np.float32))
            optimizer.step_param("b", np.ones(4, dtype=np.float32))
            assert optimizer.step_counts == {"a": 2, "b": 1}
        finally:
            manager.close()
