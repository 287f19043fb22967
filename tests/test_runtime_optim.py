"""Tests for the optimizers: reference Adam and out-of-core CPU Adam."""

from __future__ import annotations

import numpy as np
import pytest

from repro.runtime import (
    CPUAdam,
    Adam,
    Fp16RangeError,
    HOST,
    NVME,
    OptimizerError,
    StorageError,
    StorageManager,
    Tensor,
    round_fp16,
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

    def test_unknown_group_and_wrong_gradient_size_rejected(self, setup):
        _mgr, _param, optimizer, _orig = setup
        with pytest.raises(OptimizerError, match="64 elements"):
            optimizer.step_param("w", np.zeros(63, dtype=np.float32))
        with pytest.raises(OptimizerError):
            optimizer.group_of("nope")

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


class TestCPUAdamGroups:
    """Several parameters in one group: one record, one update."""

    @pytest.fixture
    def grouped(self, rng, tmp_path):
        manager = StorageManager(10 * MB, 10 * MB, 100 * MB, spill_dir=str(tmp_path))
        params = {
            "a": Tensor(rng.normal(size=(3, 4)).astype(np.float32), requires_grad=True),
            "b": Tensor(rng.normal(size=(5,)).astype(np.float32), requires_grad=True),
            "c": Tensor(rng.normal(size=(2, 2)).astype(np.float32), requires_grad=True),
        }
        optimizer = CPUAdam(
            list(params.items()), manager, lr=1e-2, states_tier=NVME,
            groups=[("ab", ("a", "b")), ("c", ("c",))],
        )
        yield manager, params, optimizer
        manager.close()

    def test_one_record_per_group(self, grouped):
        manager, params, optimizer = grouped
        assert optimizer.groups == {"ab": ("a", "b"), "c": ("c",)}
        assert optimizer.group_of("b") == "ab"
        assert optimizer.group_size("ab") == 17
        states = optimizer.read_group("ab")
        assert states.shape == (3, 17)
        np.testing.assert_array_equal(optimizer.view("a", states[0]), optimizer.master_weights("a"))
        assert optimizer.read_states("a").shape == (3, 3, 4)
        for suffix in ("states", "p16"):
            assert manager.get(f"ab.{suffix}").tier == NVME
        with pytest.raises(StorageError):
            manager.get("a.states")

    def test_group_step_equals_member_steps(self, grouped, rng):
        """Adam is elementwise: the grouped update is bit-identical to
        updating each member as a group of one."""
        _manager, params, optimizer = grouped
        alone = StorageManager(10 * MB, 10 * MB, 100 * MB)
        try:
            twins = {
                name: Tensor(optimizer.master_weights(name), requires_grad=True)
                for name in params
            }
            single = CPUAdam(list(twins.items()), alone, lr=1e-2, states_tier=NVME)
            for _step in range(3):
                grads = {
                    name: rng.normal(size=p.data.shape).astype(np.float16).astype(np.float32)
                    for name, p in params.items()
                }
                flat = np.concatenate([grads["a"].reshape(-1), grads["b"]])
                fresh = optimizer.step_param("ab", flat)
                optimizer.step_param("c", grads["c"])
                for name in ("a", "b"):
                    np.testing.assert_array_equal(
                        optimizer.view(name, fresh), single.step_param(name, grads[name])
                    )
                single.step_param("c", grads["c"])
            for name in params:
                np.testing.assert_array_equal(
                    optimizer.read_states(name), single.read_states(name)
                )
            assert optimizer.step_counts == {"ab": 3, "c": 3}
        finally:
            alone.close()

    def test_install_states_touches_one_member(self, grouped):
        _manager, params, optimizer = grouped
        before_b = optimizer.read_states("b")
        p32 = np.full((3, 4), 0.25, dtype=np.float32)
        fresh = optimizer.install_states("a", p32, p32 * 2, p32 * 3)
        assert fresh.shape == (3, 4)
        np.testing.assert_array_equal(optimizer.read_states("a"), np.stack([p32, p32 * 2, p32 * 3]))
        np.testing.assert_array_equal(optimizer.read_states("b"), before_b)

    @pytest.mark.parametrize(
        "groups, message",
        [
            ([("g", ("a", "nope"))], "unknown parameter"),
            ([("g", ("a",)), ("h", ("a",))], "in groups"),
            ([("g", ("a",))], "in no group"),
            ([("g", ())], "empty"),
            ([("g", ("a",)), ("g", ("b",))], "duplicate"),
        ],
        ids=["unknown", "twice", "ungrouped", "empty", "duplicate"],
    )
    def test_invalid_groupings_rejected(self, rng, tmp_path, groups, message):
        manager = StorageManager(10 * MB, 10 * MB, 100 * MB, spill_dir=str(tmp_path))
        try:
            params = [
                (name, Tensor(rng.normal(size=(4,)).astype(np.float32), requires_grad=True))
                for name in ("a", "b")
            ]
            with pytest.raises(OptimizerError, match=message):
                CPUAdam(params, manager, states_tier=HOST, groups=groups)
        finally:
            manager.close()


def _fp16_cast(x):
    """The reference: NumPy's round trip through float16."""
    return x.astype(np.float16).astype(np.float32)


def _bits(values):
    return np.array(values, dtype=np.uint32).view(np.float32)


def _assert_rounds_as_the_cast(x):
    got = round_fp16(x, "x")
    assert got.dtype == np.float32 and got.shape == x.shape
    np.testing.assert_array_equal(got.view(np.uint32), _fp16_cast(x).view(np.uint32))


TINY = np.float32(2.0**-24)  # fp16's subnormal spacing


class TestRoundFp16:
    """``round_fp16`` against ``astype(float16).astype(float32)``, bit for bit."""

    def test_zeros_and_float32_subnormals(self):
        # +-0, the smallest and largest float32 subnormals, and both signs.
        x = _bits([0x00000000, 0x80000000, 0x00000001, 0x80000001, 0x007FFFFF, 0x807FFFFF])
        _assert_rounds_as_the_cast(x)
        assert round_fp16(x, "x")[1].view(np.uint32) == 0x80000000  # -0 keeps its sign

    def test_subnormal_ties_and_neighbours(self):
        # Exact 2**-25 ties between every pair of subnormal grid points (so
        # both parities), the grid points themselves and one float32 ulp
        # either side of each.
        k = np.arange(0, 1025, dtype=np.float32)
        grid = k * TINY
        ties = grid + TINY / 2
        x = np.concatenate(
            [grid, ties, np.nextafter(grid, np.float32(1)), np.nextafter(grid, np.float32(0)),
             np.nextafter(ties, np.float32(1)), np.nextafter(ties, np.float32(0))]
        ).astype(np.float32)
        _assert_rounds_as_the_cast(np.concatenate([x, -x]))

    def test_the_normal_boundary_and_the_top_of_the_range(self):
        below_normal = np.nextafter(np.float32(2.0**-14), np.float32(0))
        largest_below_overflow = np.nextafter(np.float32(65520), np.float32(0))
        x = np.array(
            [below_normal, 2.0**-14, np.nextafter(np.float32(2.0**-14), np.float32(1)),
             2.0**-14 - TINY / 2, 65504, np.nextafter(np.float32(65504), np.float32(0)),
             65504 + 8, 65504 + 16 - 2.0**-8, largest_below_overflow],
            dtype=np.float32,
        )
        _assert_rounds_as_the_cast(np.concatenate([x, -x]))
        assert round_fp16(largest_below_overflow, "x") == 65504

    def test_normal_ties_round_to_even(self):
        # Halfway between two fp16 neighbours in every binade, with an even
        # and an odd lower neighbour, and one float32 ulp either side.
        exponents = np.arange(-14, 16, dtype=np.float32)
        mantissas = np.array([0, 1, 2, 3, 1021, 1022, 1023], dtype=np.float32)
        scale = np.float32(2.0) ** exponents[:, None]
        ties = ((1 + (mantissas + np.float32(0.5)) / 1024) * scale).ravel()
        x = np.concatenate(
            [ties, np.nextafter(ties, np.float32(np.inf)), np.nextafter(ties, np.float32(0))]
        ).astype(np.float32)
        x = x[x < 65520]  # the top binade's last tie is the overflow point
        _assert_rounds_as_the_cast(np.concatenate([x, -x]))

    def test_a_million_random_bit_patterns(self):
        bits = np.random.default_rng(2024).integers(0, 2**32, size=10**6, dtype=np.uint32)
        x = bits.view(np.float32)
        fits = np.abs(x) < 65520
        with np.errstate(over="ignore"):
            # Exactly the patterns that NumPy's cast turns into inf or NaN
            # are the ones the rounding refuses.
            np.testing.assert_array_equal(fits, np.isfinite(_fp16_cast(x)))
        _assert_rounds_as_the_cast(x[fits])

    def test_keeps_the_shape_and_leaves_the_input_alone(self, rng):
        x = (rng.normal(size=(3, 4, 5)) * 1e-5).astype(np.float32)
        before = x.copy()
        got = round_fp16(x, "x")
        _assert_rounds_as_the_cast(x)
        np.testing.assert_array_equal(x, before)
        assert not np.shares_memory(got, x)

    def test_rounds_in_place_into_out(self, rng):
        x = (rng.normal(size=(7, 9)) * 1e-5).astype(np.float32)
        want = _fp16_cast(x)
        assert round_fp16(x, "x", out=x) is x
        np.testing.assert_array_equal(x.view(np.uint32), want.view(np.uint32))

    def test_a_failed_rounding_writes_nothing(self):
        x = np.array([1e-6, 7e4, 0.3], dtype=np.float32)
        before = x.copy()
        with pytest.raises(Fp16RangeError):
            round_fp16(x, "x", out=x)
        np.testing.assert_array_equal(x, before)

    @pytest.mark.parametrize(
        "bad, largest",
        [
            (65520.0, "65520"),
            (-65520.0, "65520"),
            (float(np.nextafter(np.float32(65520), np.float32(np.inf))), "65520"),
            (np.inf, "inf"),
            (-np.inf, "inf"),
            (0x7FC00000, "nan"),  # quiet NaN
            (0xFFC00001, "nan"),  # negative quiet NaN with a payload
            (0x7F800001, "nan"),  # signalling NaN, smallest payload
            (0x7FBFFFFF, "nan"),  # signalling NaN, largest payload
        ],
        ids=["65520", "-65520", "above-65520", "inf", "-inf", "qnan", "-qnan-payload",
             "snan-low", "snan-high"],
    )
    def test_nan_and_overflow_raise_one_typed_line(self, bad, largest):
        if isinstance(bad, int):
            value = _bits([bad])[0]
        else:
            value = np.float32(bad)
        x = np.array([1.0, value, -3.0], dtype=np.float32)
        with pytest.raises(Fp16RangeError, match=f"largest magnitude {largest}") as info:
            round_fp16(x, "gradient of group 'block2'")
        assert isinstance(info.value, OptimizerError)
        message = str(info.value)
        assert "\n" not in message and "gradient of group 'block2'" in message
