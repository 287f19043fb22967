"""The stall-free optimizer engine (repro.overlap): sim, queue, runtime.

Three layers under test:

* the :mod:`repro.baselines.overlap` sim policies (ZenFlow /
  GreedySnake) must reshape Ratel's own plan and *beat* the synchronous
  schedule's predicted iteration time;
* the :class:`repro.runtime.BoundedStalenessQueue` must enforce the
  bounded-staleness invariant for any push/collect interleaving
  (Hypothesis-driven);
* :class:`repro.runtime.RatelRuntime` under ``optimizer_mode`` must be
  bit-identical to sync for K=0 async and for overlap, and report the
  measured staleness for K>=1.

Plus the NumPy-reference bit-exactness tests for the CPU Adam that the
bounded-staleness equivalences stand on.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.baselines import GreedySnakePolicy, ZenFlowPolicy, policy_for_mode
from repro.core import RatelPolicy
from repro.core.schedule import OptimizerMode
from repro.hardware import evaluation_server
from repro.models import llm, profile_model
from repro.runtime import (
    Adam,
    BoundedStalenessQueue,
    CPUAdam,
    CrossEntropyLoss,
    GPTModel,
    OptimizerError,
    RatelOptimizer,
    StorageManager,
    Tensor,
    gradient_importance,
    ratel_hook,
    ratel_init,
)

GB = 1e9


# -- sim policies ----------------------------------------------------------------


class TestOverlapPolicies:
    @pytest.fixture(scope="class")
    def times(self):
        profile = profile_model(llm("13B"), batch_size=8)
        server = evaluation_server()
        return {
            name: policy.evaluate(profile, server).iteration_time
            for name, policy in (
                ("sync", RatelPolicy()),
                ("async", ZenFlowPolicy()),
                ("overlap", GreedySnakePolicy()),
            )
        }

    def test_async_beats_sync(self, times):
        assert times["async"] < times["sync"]

    def test_overlap_beats_sync(self, times):
        assert times["overlap"] < times["sync"]

    def test_async_beats_overlap(self, times):
        # ZenFlow hides the optimizer under fwd+bwd, GreedySnake only
        # under fwd — bounded staleness buys strictly more overlap.
        assert times["async"] < times["overlap"]

    def test_schedules_reshape_ratels_plan(self):
        profile = profile_model(llm("13B"), batch_size=8)
        server = evaluation_server()
        sync = RatelPolicy().compile(profile, server)
        zen = ZenFlowPolicy(stale_k=3, critical_frac=0.1).compile(profile, server)
        snake = GreedySnakePolicy().compile(profile, server)
        assert zen.optimizer_mode is OptimizerMode.ASYNC_BOUNDED
        assert zen.stale_k == 3 and zen.critical_frac == 0.1
        assert snake.optimizer_mode is OptimizerMode.OVERLAP_STEP
        # Algorithm 1's plan is untouched: same blocks, same locations.
        assert zen.blocks == sync.blocks and snake.blocks == sync.blocks
        assert zen.states_location is sync.states_location

    def test_pending_gradients_cost_host_memory(self):
        profile = profile_model(llm("13B"), batch_size=8)
        server = evaluation_server()
        base = RatelPolicy().memory_needs(profile, server).main_bytes
        assert ZenFlowPolicy().memory_needs(profile, server).main_bytes > base
        assert GreedySnakePolicy().memory_needs(profile, server).main_bytes > base
        # K=0 defers nothing, so nothing accumulates host-side.
        assert ZenFlowPolicy(stale_k=0).memory_needs(profile, server).main_bytes == base

    def test_policy_for_mode(self):
        assert isinstance(policy_for_mode("sync"), RatelPolicy)
        assert isinstance(policy_for_mode("async"), ZenFlowPolicy)
        assert policy_for_mode("async", stale_k=5).stale_k == 5
        assert isinstance(policy_for_mode("overlap"), GreedySnakePolicy)
        with pytest.raises(ValueError):
            policy_for_mode("turbo")

    def test_validation(self):
        with pytest.raises(ValueError):
            ZenFlowPolicy(stale_k=-1)
        with pytest.raises(ValueError):
            ZenFlowPolicy(critical_frac=1.0)


# -- NumPy-reference bit-exactness for the CPU Adam --------------------------------


def reference_adam(w, g, m, v, step, lr, b1=0.9, b2=0.999, eps=1e-8, wd=0.0):
    """The exact op sequence of Adam._update, all in ``w``'s dtype."""
    g = g.astype(w.dtype, copy=False)
    m = (m * b1) + (1 - b1) * g
    v = (v * b2) + (1 - b2) * g**2
    m_hat = m / (1 - b1**step)
    v_hat = v / (1 - b2**step)
    if wd:
        w = w - lr * wd * w
    w = w - lr * m_hat / (np.sqrt(v_hat) + eps)
    return w, m, v


class TestAdamBitExact:
    @pytest.mark.parametrize("grad_dtype", [np.float16, np.float32, np.float64])
    def test_adam_matches_reference_bitwise(self, rng, grad_dtype):
        """Adam must track the reference exactly across grad dtypes and steps.

        This pinned down a real drift: the update used the raw gradient,
        so a float16 grad evaluated (1-beta1)*g at half precision instead
        of upcasting first the way CPUAdam does.  (Parameters are always
        fp32 — Tensor normalizes storage to float32.)
        """
        w = rng.normal(size=(32,)).astype(np.float32)
        param = Tensor(w.copy(), requires_grad=True)
        opt = Adam([("w", param)], lr=1e-2)
        m = np.zeros_like(w)
        v = np.zeros_like(w)
        for step in range(1, 8):
            grad = rng.normal(size=(32,)).astype(grad_dtype)
            param.grad = grad.copy()
            opt.step()
            w, m, v = reference_adam(w, grad, m, v, step, lr=1e-2)
            np.testing.assert_array_equal(param.data, w)

    def test_cpu_adam_matches_reference_bitwise(self, rng, tmp_path):
        """The out-of-core pipeline (fp32 states, p16 round-trip), exactly."""
        manager = StorageManager(10**7, 10**7, 10**8, spill_dir=str(tmp_path))
        w0 = rng.normal(size=(64,)).astype(np.float32)
        param = Tensor(w0.copy(), requires_grad=True)
        opt = CPUAdam([("w", param)], manager, lr=5e-3)
        w = w0.copy()
        m = np.zeros_like(w)
        v = np.zeros_like(w)
        for step in range(1, 6):
            grad16 = rng.normal(size=(64,)).astype(np.float16).astype(np.float32)
            fresh = opt.step_param("w", grad16)
            w, m, v = reference_adam(w, grad16, m, v, step, lr=5e-3)
            np.testing.assert_array_equal(opt.master_weights("w"), w)
            np.testing.assert_array_equal(fresh, w.astype(np.float16).astype(np.float32))

    def test_adam_and_cpu_adam_agree_on_fp32_grads(self, rng, tmp_path):
        """Same grads, same fp32 math: the two implementations are twins."""
        manager = StorageManager(10**7, 10**7, 10**8, spill_dir=str(tmp_path))
        w0 = rng.normal(size=(48,)).astype(np.float32)
        ref_param = Tensor(w0.copy(), requires_grad=True)
        in_core = Adam([("w", ref_param)], lr=1e-2)
        out_of_core = CPUAdam(
            [("w", Tensor(w0.copy(), requires_grad=True))], manager, lr=1e-2
        )
        for _step in range(5):
            grad = rng.normal(size=(48,)).astype(np.float32)
            ref_param.grad = grad.copy()
            in_core.step()
            out_of_core.step_param("w", grad)
        np.testing.assert_array_equal(ref_param.data, out_of_core.master_weights("w"))


# -- the bounded-staleness queue (Hypothesis) ---------------------------------------


@st.composite
def push_schedules(draw):
    """Per-step pushes: a list of steps, each a list of (name, importance)."""
    n_steps = draw(st.integers(min_value=1, max_value=6))
    names = ("a", "b", "c", "d", "e")
    schedule = []
    for _ in range(n_steps):
        active = draw(st.lists(st.sampled_from(names), unique=True, max_size=5))
        schedule.append(
            [(name, draw(st.floats(0, 10, allow_nan=False))) for name in active]
        )
    return schedule


@given(
    schedule=push_schedules(),
    stale_k=st.integers(min_value=0, max_value=3),
    critical_frac=st.floats(min_value=0.0, max_value=0.9),
)
@settings(max_examples=200, deadline=None)
def test_bounded_staleness_invariant(schedule, stale_k, critical_frac):
    """No gradient applied > K steps stale; none lost; per-name FIFO."""
    queue = BoundedStalenessQueue(stale_k, critical_frac)
    pushed: list[tuple[str, int]] = []
    applied: list[tuple[str, int, int]] = []  # (name, produced, applied)
    for step, grads in enumerate(schedule, start=1):
        for name, importance in grads:
            queue.push(name, object(), step, importance)
            pushed.append((name, step))
        for item in queue.collect(step):
            applied.append((item.name, item.produced_step, step))
            assert step - item.produced_step <= stale_k
    final_step = len(schedule)
    for item in queue.flush():
        applied.append((item.name, item.produced_step, final_step))
        # flush items were never forced, so they are within the bound too
        assert final_step - item.produced_step <= stale_k
    # Permutation: every push applied exactly once, nothing invented.
    assert sorted(pushed) == sorted((n, p) for n, p, _a in applied)
    # Per-name FIFO: a parameter's Adam state sees grads in production order.
    by_name: dict[str, list[int]] = {}
    for name, produced, _at in applied:
        by_name.setdefault(name, []).append(produced)
    for produced_steps in by_name.values():
        assert produced_steps == sorted(produced_steps)


@given(schedule=push_schedules(), critical_frac=st.floats(0.0, 0.9))
@settings(max_examples=100, deadline=None)
def test_k0_collect_is_same_step(schedule, critical_frac):
    """stale_k=0 forces every gradient to apply in its producing step."""
    queue = BoundedStalenessQueue(0, critical_frac)
    for step, grads in enumerate(schedule, start=1):
        for name, importance in grads:
            queue.push(name, object(), step, importance)
        collected = queue.collect(step)
        assert sorted(item.name for item in collected) == sorted(n for n, _ in grads)
        assert len(queue) == 0


def test_queue_orders_by_importance():
    queue = BoundedStalenessQueue(0, 0.0)
    queue.push("small", object(), 1, 0.1)
    queue.push("large", object(), 1, 5.0)
    queue.push("mid", object(), 1, 1.0)
    assert [i.name for i in queue.collect(1)] == ["large", "mid", "small"]


def test_queue_validation():
    with pytest.raises(OptimizerError):
        BoundedStalenessQueue(-1)
    with pytest.raises(OptimizerError):
        BoundedStalenessQueue(0, 1.0)


def test_gradient_importance():
    assert gradient_importance(np.array([1.0, -3.0])) == pytest.approx(2.0)
    assert gradient_importance(np.array([])) == 0.0


# -- runtime optimizer modes ---------------------------------------------------------


def train_mode(mode: str, steps: int = 4, seed: int = 0, **kwargs):
    data_rng = np.random.default_rng(seed)
    with ratel_init(
        gpu_capacity=GB,
        host_capacity=GB,
        nvme_capacity=4 * GB,
        optimizer_mode=mode,
        **kwargs,
    ):
        model = GPTModel(23, 16, 2, 2, 8, np.random.default_rng(seed + 1))
        runtime = ratel_hook(model)
        RatelOptimizer(model, runtime, lr=1e-2)
        loss_mod = CrossEntropyLoss()
        losses = []
        for _ in range(steps):
            x = data_rng.integers(0, 23, size=(2, 8))
            y = data_rng.integers(0, 23, size=(2, 8))
            losses.append(runtime.train_step(lambda: loss_mod(model(x), y)))
        flushed = runtime.flush_pending()
        params = {name: p.data.copy() for name, p in model.named_parameters()}
        return losses, params, list(runtime.staleness_log), flushed


class TestRuntimeModes:
    @pytest.fixture(scope="class")
    def sync(self):
        return train_mode("sync")

    def test_async_k0_bit_identical_to_sync(self, sync):
        losses, params, log, _flushed = train_mode("async", stale_k=0)
        assert losses == sync[0]
        for name, data in sync[1].items():
            np.testing.assert_array_equal(params[name], data)
        assert all(applied == produced for _n, produced, applied in log)

    def test_overlap_bit_identical_to_sync(self, sync):
        losses, params, log, _flushed = train_mode("overlap")
        assert losses == sync[0]
        for name, data in sync[1].items():
            np.testing.assert_array_equal(params[name], data)
        # Updates land one schedule slot later (the next forward) but
        # always before the parameter's next read — zero value staleness.
        assert log and all(applied - produced <= 1 for _n, produced, applied in log)

    def test_async_k2_diverges_within_bound(self, sync):
        losses, _params, log, flushed = train_mode(
            "async", stale_k=2, critical_frac=0.25
        )
        assert losses != sync[0]  # staleness has a measurable loss cost
        assert losses[0] == sync[0][0]  # nothing is stale on step one
        assert max(applied - produced for _n, produced, applied in log) <= 2
        assert flushed > 0  # tail gradients drained, none lost

    def test_nothing_lost_across_modes(self, sync):
        """Every parameter gets exactly `steps` updates in every mode."""
        for mode, kwargs in (
            ("async", {"stale_k": 2, "critical_frac": 0.5}),
            ("overlap", {}),
        ):
            _losses, _params, log, flushed = train_mode(mode, **kwargs)
            counts: dict[str, int] = {}
            for name, _p, _a in log:
                counts[name] = counts.get(name, 0) + 1
            assert set(counts.values()) == {4}

    def test_mode_validation(self):
        with pytest.raises(ValueError):
            train_mode("turbo")
        with pytest.raises(ValueError):
            train_mode("sync", stale_k=2)
        with pytest.raises(ValueError):
            train_mode("overlap", critical_frac=0.5)


@given(seed=st.integers(0, 2**16), stale_k=st.integers(0, 0))
@settings(max_examples=5, deadline=None)
def test_property_k0_async_identity(seed, stale_k):
    """K=0 async is bit-identical to sync for arbitrary data streams."""
    sync_losses, sync_params, _log, _f = train_mode("sync", steps=3, seed=seed)
    async_losses, async_params, _log2, _f2 = train_mode(
        "async", steps=3, seed=seed, stale_k=stale_k
    )
    assert sync_losses == async_losses
    for name, data in sync_params.items():
        np.testing.assert_array_equal(async_params[name], data)

