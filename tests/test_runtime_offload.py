"""Tests for the functional offload engine — the paper's correctness claims.

The centrepiece: active gradient offloading (updates during backward)
produces *bit-identical* parameters to a deferred optimizer stage, i.e.
no staleness (§IV-C); checkpoint recomputation is faithful; and the byte
counters match the analytic traffic formulas.
"""

from __future__ import annotations

import gc

import numpy as np
import pytest

from repro.runtime import (
    AutogradError,
    CPUAdam,
    CrossEntropyLoss,
    Fp16RangeError,
    GPTModel,
    HOST,
    NVME,
    OptimizerError,
    RatelOptimizer,
    RatelRuntime,
    StorageManager,
    Tensor,
    ratel_hook,
    ratel_init,
)
from repro.runtime.tensor import _unbroadcast

GB = 1e9
VOCAB, DIM, LAYERS, HEADS, SEQ, BATCH = 37, 16, 3, 2, 8, 4


def make_batches(n_steps: int):
    rng = np.random.default_rng(99)
    batches = []
    for _step in range(n_steps):
        ids = rng.integers(0, VOCAB, size=(BATCH, SEQ))
        batches.append((ids, np.roll(ids, -1, axis=1)))
    return batches


def train(active_offload: bool, n_steps: int = 3, checkpoint_tier: str = NVME):
    loss_fn = CrossEntropyLoss()
    with ratel_init(
        gpu_capacity=1 * GB,
        host_capacity=1 * GB,
        nvme_capacity=4 * GB,
        checkpoint_tier=checkpoint_tier,
        active_offload=active_offload,
    ) as context:
        model = GPTModel(VOCAB, DIM, LAYERS, HEADS, SEQ, np.random.default_rng(5))
        runtime = ratel_hook(model)
        RatelOptimizer(model, runtime, lr=1e-2)
        losses = []
        for ids, targets in make_batches(n_steps):
            losses.append(runtime.train_step(lambda: loss_fn(model(ids), targets)))
        params = {name: p.data.copy() for name, p in model.named_parameters()}
        traffic = dict(context.manager.moved_bytes)
        order = list(runtime.update_order)
    return losses, params, traffic, order


class TestNoStaleness:
    """The paper's key §IV-C property, as an executable assertion."""

    def test_active_equals_deferred_bitwise(self):
        active_losses, active_params, _t, _o = train(active_offload=True)
        deferred_losses, deferred_params, _t2, _o2 = train(active_offload=False)
        assert active_losses == deferred_losses
        for name in active_params:
            np.testing.assert_array_equal(active_params[name], deferred_params[name])

    def test_loss_decreases(self):
        losses, _p, _t, _o = train(active_offload=True, n_steps=5)
        assert losses[-1] < losses[0]

    def test_gradients_consumed_last_block_first(self):
        """§IV-C: gradient tensors arrive with decreasing block index."""
        _losses, _params, _traffic, order = train(active_offload=True, n_steps=1)
        block_positions = {}
        for position, name in enumerate(order):
            if name.startswith("block"):
                index = int(name.split(".")[0].removeprefix("block"))
                block_positions.setdefault(index, position)
        indices_in_arrival_order = sorted(block_positions, key=block_positions.get)
        assert indices_in_arrival_order == sorted(block_positions, reverse=True)

    def test_every_parameter_updated_each_step(self):
        _losses, _params, _traffic, order = train(active_offload=True, n_steps=1)
        model = GPTModel(VOCAB, DIM, LAYERS, HEADS, SEQ, np.random.default_rng(5))
        expected = {name for name, _p in model.named_parameters()}
        assert set(order) == expected


class TestDelayedUpdateStaleness:
    """The counter-example: ZeRO-Offload's one-step delayed update.

    The paper rejects it because it introduces parameter staleness
    (§IV-C footnote); here the divergence is directly observable.  The
    delay is bounded staleness with K=1: ``optimizer_mode="async",
    stale_k=1``.
    """

    @staticmethod
    def _train_delayed(n_steps: int = 4):
        loss_fn = CrossEntropyLoss()
        with ratel_init(
            gpu_capacity=1 * GB,
            host_capacity=1 * GB,
            nvme_capacity=4 * GB,
            optimizer_mode="async",
            stale_k=1,
        ):
            model = GPTModel(VOCAB, DIM, LAYERS, HEADS, SEQ, np.random.default_rng(5))
            runtime = ratel_hook(model)
            RatelOptimizer(model, runtime, lr=1e-2)
            losses = []
            for ids, targets in make_batches(n_steps):
                losses.append(runtime.train_step(lambda: loss_fn(model(ids), targets)))
            params = {name: p.data.copy() for name, p in model.named_parameters()}
        return losses, params

    def test_first_step_identical_then_diverges(self):
        sync_losses, sync_params, _t, _o = train(active_offload=True, n_steps=4)
        delayed_losses, delayed_params = self._train_delayed(4)
        # Step 1 computes on identical (initial) parameters...
        assert delayed_losses[0] == sync_losses[0]
        # ...but from step 2 on, the delayed variant trains on stale
        # parameters and the trajectories separate.
        assert delayed_losses[1:] != sync_losses[1:]
        divergence = max(
            float(np.abs(sync_params[name] - delayed_params[name]).max())
            for name in sync_params
        )
        assert divergence > 1e-4


class TestRecomputeFidelity:
    def test_checkpointing_matches_uncheckpointed_training(self):
        """Host-tier checkpointed training against a run without checkpoints.

        Both runs use the same mixed-precision Adam: ``CPUAdam`` rounds
        each model's weights to fp16 compute copies when it registers
        them (15 of this GPT's 42 initial weights change), and every
        gradient is rounded to fp16 before its step.  Host-tier
        checkpoints are not spilled through fp16, so nothing else rounds.
        The three losses are compared to ``rtol`` 1e-6 and the final
        weights to ``atol`` 1e-6; on this configuration they agree bit
        for bit, as does every gradient the optimizer receives.
        """
        active_losses, active_params, _t, _o = train(
            active_offload=True, checkpoint_tier=HOST
        )

        # Reference: no checkpointing at all, same mixed-precision Adam.
        loss_fn = CrossEntropyLoss()
        model = GPTModel(VOCAB, DIM, LAYERS, HEADS, SEQ, np.random.default_rng(5))
        manager = StorageManager(1 * GB, 1 * GB, 4 * GB)
        try:
            optimizer = CPUAdam(list(model.named_parameters()), manager, lr=1e-2, states_tier=HOST)
            reference_losses = []
            for ids, targets in make_batches(3):
                model.zero_grad()
                loss = loss_fn(model(ids), targets)
                loss.backward()
                for name, param in reversed(list(model.named_parameters())):
                    grad16 = param.grad.astype(np.float16).astype(np.float32)
                    param.data = optimizer.step_param(name, grad16).copy()
                    param.zero_grad()
                reference_losses.append(float(loss.data))
        finally:
            manager.close()

        np.testing.assert_allclose(active_losses, reference_losses, rtol=1e-6)
        for name, param in model.named_parameters():
            np.testing.assert_allclose(active_params[name], param.data, atol=1e-6)

    def test_nvme_checkpoints_quantize_to_fp16(self):
        """Spilling boundaries through NVMe rounds them to fp16 — a real
        mixed-precision effect, visible as a small loss difference."""
        host_losses, _p1, _t1, _o1 = train(active_offload=True, checkpoint_tier=HOST)
        nvme_losses, _p2, _t2, _o2 = train(active_offload=True, checkpoint_tier=NVME)
        assert host_losses[0] == pytest.approx(nvme_losses[0], rel=1e-3)


def _backward_keeping_graph(self, grad=None):
    """``Tensor.backward`` as it was before it freed graphs: the oracle.

    The same closures run in the same order and fire the same hooks;
    every node keeps its parents and its closure afterwards.
    """
    if not self.requires_grad:
        raise AutogradError("backward() on a tensor that does not require grad")
    topo, visited, stack = [], set(), [(self, False)]
    while stack:
        node, processed = stack.pop()
        if processed:
            topo.append(node)
            continue
        if id(node) in visited:
            continue
        visited.add(id(node))
        stack.append((node, True))
        for parent in node._parents:
            if id(parent) not in visited:
                stack.append((parent, False))
    if grad is None:
        grad = np.ones_like(self.data)
    self._accumulate(np.asarray(grad, dtype=np.float32))
    pending: dict[int, int] = {}
    for node in topo:
        for parent in node._parents:
            pending[id(parent)] = pending.get(id(parent), 0) + 1
    for node in reversed(topo):
        if node._backward is not None and node.grad is not None:
            node._backward()
        for parent in node._parents:
            pending[id(parent)] -= 1
            if pending[id(parent)] == 0:
                for hook in parent._hooks:
                    hook(parent)
    for hook in self._hooks:
        hook(self)


def _train_recomputing(accumulate: bool):
    """Three NVMe-checkpointed steps, whole-batch or as two micro-batches."""
    loss_fn = CrossEntropyLoss()
    with ratel_init(gpu_capacity=GB, host_capacity=GB, nvme_capacity=4 * GB):
        model = GPTModel(VOCAB, DIM, LAYERS, HEADS, SEQ, np.random.default_rng(5))
        runtime = ratel_hook(model)
        RatelOptimizer(model, runtime, lr=1e-2)
        losses = []
        for ids, targets in make_batches(3):
            if accumulate:
                halves = [(ids[:2], targets[:2]), (ids[2:], targets[2:])]
                loss = runtime.train_step_accumulate(
                    [lambda a=a, b=b: loss_fn(model(a), b) for a, b in halves]
                )
            else:
                loss = runtime.train_step(lambda: loss_fn(model(ids), targets))
            losses.append(float(loss).hex())
        return losses, {name: p.data.copy() for name, p in model.named_parameters()}


class TestFreedGraphs:
    """``backward`` frees each graph it ran; training must not notice."""

    def test_step_leaves_nothing_for_the_collector(self):
        loss_fn = CrossEntropyLoss()
        ((ids, targets),) = make_batches(1)
        with ratel_init(gpu_capacity=GB, host_capacity=GB, nvme_capacity=4 * GB):
            model = GPTModel(VOCAB, DIM, LAYERS, HEADS, SEQ, np.random.default_rng(5))
            runtime = ratel_hook(model)
            RatelOptimizer(model, runtime, lr=1e-2)
            runtime.train_step(lambda: loss_fn(model(ids), targets))
            gc.collect()
            enabled = gc.isenabled()
            gc.disable()
            try:
                runtime.train_step(lambda: loss_fn(model(ids), targets))
                assert gc.collect() == 0
            finally:
                if enabled:
                    gc.enable()

    @pytest.mark.parametrize("accumulate", [False, True], ids=["recompute", "accumulate"])
    def test_training_is_bit_identical_to_a_kept_graph(self, monkeypatch, accumulate):
        freed_losses, freed_params = _train_recomputing(accumulate)
        monkeypatch.setattr(Tensor, "backward", _backward_keeping_graph)
        kept_losses, kept_params = _train_recomputing(accumulate)
        assert freed_losses == kept_losses
        for name, data in kept_params.items():
            np.testing.assert_array_equal(freed_params[name], data, err_msg=name)


def test_autograd_nodes_per_step(monkeypatch):
    """The graph one ``train_step`` of perfbench's GPT builds, node for node.

    Per block: LayerNorm, Linear, attention core, Linear, residual add,
    LayerNorm, Linear, GELU, Linear, residual add (10); around the four
    blocks: embedding, position rows, their sum, final norm, LM head,
    cross entropy and the four checkpoint nodes.  Each block's first,
    graph-free forward builds none.
    """
    vocab, dim, layers, heads, seq, batch = 101, 32, 4, 4, 32, 8
    rng = np.random.default_rng(0)
    ids = rng.integers(0, vocab, size=(batch, seq))
    targets = np.roll(ids, -1, axis=1)
    loss_fn = CrossEntropyLoss()
    built = []
    make_node = Tensor._make_node

    def counting(tensor, parents, backward):
        make_node(tensor, parents, backward)
        if tensor._backward is backward:
            built.append(tensor)

    with ratel_init(gpu_capacity=GB, host_capacity=GB, nvme_capacity=4 * GB):
        model = GPTModel(vocab, dim, layers, heads, seq, np.random.default_rng(1))
        runtime = ratel_hook(model)
        RatelOptimizer(model, runtime, lr=1e-3)
        monkeypatch.setattr(Tensor, "_make_node", counting)
        runtime.train_step(lambda: loss_fn(model(ids), targets))
    assert len(built) == 50


def _accumulate_copying_every_first_contribution(self, grad):
    """``Tensor._accumulate`` before interior nodes borrowed: the oracle."""
    grad = _unbroadcast(grad, self.data.shape)
    if self.grad is None:
        self.grad = grad.astype(np.float32, copy=True)
    else:
        self.grad += grad


@pytest.mark.parametrize("accumulate", [False, True], ids=["recompute", "accumulate"])
def test_borrowed_gradients_train_bit_identically(monkeypatch, accumulate):
    """Interior nodes keep the arrays they are handed; no value moves."""
    borrowed_losses, borrowed_params = _train_recomputing(accumulate)
    monkeypatch.setattr(Tensor, "_accumulate", _accumulate_copying_every_first_contribution)
    copied_losses, copied_params = _train_recomputing(accumulate)
    assert borrowed_losses == copied_losses
    for name, data in copied_params.items():
        np.testing.assert_array_equal(borrowed_params[name], data, err_msg=name)


class TestTrafficAccounting:
    def test_gradient_traffic_matches_g16(self):
        """GPU->host carries every parameter's fp16 gradient per step,
        plus the per-block boundary checkpoints."""
        _losses, _params, traffic, _order = train(active_offload=True, n_steps=2)
        model = GPTModel(VOCAB, DIM, LAYERS, HEADS, SEQ, np.random.default_rng(5))
        n_params = model.n_params()
        boundary = 2 * BATCH * SEQ * DIM  # fp16 block input
        expected = 2 * (2 * n_params + LAYERS * boundary)  # 2 steps
        assert traffic[("gpu", "host")] == pytest.approx(expected)

    def test_optimizer_state_traffic_matches_26_bytes_per_param(self):
        """Per step: 14 B/param read (P32+OS32+P16) and 14 B/param written
        across host<->NVMe (the Eq. 5 optimizer traffic), plus the
        checkpoint spill round trips."""
        _losses, _params, traffic, _order = train(active_offload=True, n_steps=1)
        model = GPTModel(VOCAB, DIM, LAYERS, HEADS, SEQ, np.random.default_rng(5))
        n = model.n_params()
        boundary = 2 * BATCH * SEQ * DIM
        expected_down = 14 * n + LAYERS * boundary  # writes: states + spill
        expected_up = 14 * n + LAYERS * boundary  # reads: states + spill
        # Initialisation pushes P32+OS32+P16 (14 B/param) down once; G16
        # never rests on NVMe.
        assert traffic[("host", "nvme")] == pytest.approx(14 * n + expected_down)
        assert traffic[("nvme", "host")] == pytest.approx(expected_up)

    def test_one_step_moves_each_record_once_each_way(self, monkeypatch):
        """Per step: each optimizer group's state record and P16 go to the
        host and back (four moves per group), each group's G16 crosses to
        the host once, and each block boundary spills and returns (two
        moves per block).  The groups are the blocks and the parameters
        outside them."""
        loss_fn = CrossEntropyLoss()
        with ratel_init(
            gpu_capacity=1 * GB, host_capacity=1 * GB, nvme_capacity=4 * GB
        ) as context:
            model = GPTModel(VOCAB, DIM, LAYERS, HEADS, SEQ, np.random.default_rng(5))
            runtime = ratel_hook(model)
            RatelOptimizer(model, runtime, lr=1e-2)
            moves = 0
            move = context.manager.move

            def counting_move(tensor, dest):
                nonlocal moves
                moves += 1
                move(tensor, dest)

            monkeypatch.setattr(context.manager, "move", counting_move)
            ids, targets = make_batches(1)[0]
            runtime.train_step(lambda: loss_fn(model(ids), targets))
        n_groups = LAYERS + 1
        assert moves == 4 * n_groups + n_groups + 2 * LAYERS


#: (optimizer_mode, active_offload): sync, deferred, overlap and async K=0.
MODES = {
    "sync": ("sync", True),
    "deferred": ("sync", False),
    "overlap": ("overlap", True),
    "async": ("async", True),
}


class TestOptimizerGroups:
    """CPU Adam updates a block's parameters, and the rest, at once."""

    @pytest.mark.parametrize("mode", list(MODES))
    def test_step_param_runs_once_per_group(self, monkeypatch, mode):
        """Two steps and a flush update each group twice; ``async`` keeps
        one group per parameter, so there it is each parameter twice."""
        calls = []
        step_param = CPUAdam.step_param

        def counting_step_param(self, name, grad):
            calls.append(name)
            return step_param(self, name, grad)

        monkeypatch.setattr(CPUAdam, "step_param", counting_step_param)
        optimizer_mode, active = MODES[mode]
        loss_fn = CrossEntropyLoss()
        with ratel_init(
            gpu_capacity=GB, host_capacity=GB, nvme_capacity=4 * GB,
            optimizer_mode=optimizer_mode, active_offload=active,
        ):
            model = GPTModel(VOCAB, DIM, LAYERS, HEADS, SEQ, np.random.default_rng(5))
            runtime = ratel_hook(model)
            RatelOptimizer(model, runtime, lr=1e-2)
            for ids, targets in make_batches(2):
                runtime.train_step(lambda: loss_fn(model(ids), targets))
            runtime.flush_pending()
        if mode == "async":
            groups = [name for name, _param in model.named_parameters()]
        else:
            groups = [f"block{index}" for index in range(LAYERS)] + ["nonblock"]
        assert sorted(calls) == sorted(groups * 2)

    @pytest.mark.parametrize("mode", ["sync", "deferred", "async"])
    def test_a_group_short_of_a_gradient_fails_the_step(self, mode):
        """A parameter that gets no gradient keeps its group from updating:
        the step fails and names it, instead of skipping it silently."""
        optimizer_mode, active = MODES[mode]
        loss_fn = CrossEntropyLoss()
        with ratel_init(
            gpu_capacity=GB, host_capacity=GB, nvme_capacity=4 * GB,
            optimizer_mode=optimizer_mode, active_offload=active,
        ):
            model = GPTModel(VOCAB, DIM, LAYERS, HEADS, SEQ, np.random.default_rng(5))
            model.blocks[1].idle = Tensor(np.zeros(3, dtype=np.float32), requires_grad=True)
            runtime = ratel_hook(model)
            RatelOptimizer(model, runtime, lr=1e-2)
            ((ids, targets),) = make_batches(1)
            with pytest.raises(OptimizerError, match=r"\['block1\.idle'\]"):
                runtime.train_step(lambda: loss_fn(model(ids), targets))


class TestFp16Overflow:
    """A gradient fp16 cannot hold fails the step before its group's states
    are read; it used to turn every master weight into NaN."""

    VOCAB, DIM, LAYERS, HEADS, SEQ, BATCH = 37, 32, 2, 4, 16, 4

    def _train(self, scales):
        """Steps at each loss scale; returns the outcomes, the master and
        the fp16 weights."""
        rng = np.random.default_rng(3)
        ids = rng.integers(0, self.VOCAB, size=(self.BATCH, self.SEQ))
        targets = np.roll(ids, -1, axis=1)
        loss_fn = CrossEntropyLoss()
        outcomes = []
        with ratel_init(
            gpu_capacity=GB, host_capacity=GB, nvme_capacity=4 * GB,
            checkpoint_tier=NVME, states_tier=NVME,
        ):
            model = GPTModel(
                self.VOCAB, self.DIM, self.LAYERS, self.HEADS, self.SEQ,
                np.random.default_rng(5),
            )
            runtime = ratel_hook(model)
            adam = RatelOptimizer(model, runtime, lr=1e-3).cpu_adam
            for scale in scales:
                try:
                    outcomes.append(
                        runtime.train_step(lambda: loss_fn(model(ids), targets) * scale)
                    )
                except Fp16RangeError as exc:
                    outcomes.append(exc)
            masters = {name: adam.master_weights(name) for name in adam.params}
            weights = {name: param.data.copy() for name, param in model.named_parameters()}
        return outcomes, masters, weights

    def test_an_overflowing_step_raises_and_leaves_every_master_weight_finite(self):
        outcomes, masters, _weights = self._train([1e7])
        (error,) = outcomes
        assert isinstance(error, Fp16RangeError) and isinstance(error, OptimizerError)
        message = str(error)
        assert "\n" not in message
        assert message.startswith("gradient of group 'block1' does not fit fp16: largest magnitude")
        largest = float(message.split("largest magnitude ")[1].split()[0])
        assert largest >= 65520
        assert len(masters) == 30
        for name, value in masters.items():
            assert np.isfinite(value).all(), name

    def test_a_failed_step_leaves_no_stored_boundary_behind(self):
        """Block 0's boundary, whose backward never ran, used to stay in the
        NVMe tier and its arena after each failed step (4,096 B each)."""
        rng = np.random.default_rng(3)
        ids = rng.integers(0, self.VOCAB, size=(self.BATCH, self.SEQ))
        targets = np.roll(ids, -1, axis=1)
        loss_fn = CrossEntropyLoss()
        with ratel_init(
            gpu_capacity=GB, host_capacity=GB, nvme_capacity=4 * GB,
            checkpoint_tier=NVME, states_tier=NVME,
        ) as context:
            model = GPTModel(
                self.VOCAB, self.DIM, self.LAYERS, self.HEADS, self.SEQ,
                np.random.default_rng(5),
            )
            runtime = ratel_hook(model)
            RatelOptimizer(model, runtime, lr=1e-3)
            manager = context.manager

            def held():
                return manager.names(), {n: t.used_bytes for n, t in manager.tiers.items()}

            before = held()
            for _ in range(3):
                with pytest.raises(Fp16RangeError):
                    runtime.train_step(lambda: loss_fn(model(ids), targets) * 1e7)
                assert held() == before
            loss = runtime.train_step(lambda: loss_fn(model(ids), targets))
            assert held() == before
        (reference,), _masters, _weights = self._train([1.0])
        assert loss == reference

    def _step_after(self, variant: str, fail: bool):
        """One clean ``variant`` step, after a failing one when ``fail``.

        The failing step's ``loss_fn`` raises after the model's forward
        stored every block boundary.  Returns the clean step's result and
        the storage held before the failure, after it and at the end.
        """
        rng = np.random.default_rng(3)
        ids = rng.integers(0, self.VOCAB, size=(self.BATCH, self.SEQ))
        targets = np.roll(ids, -1, axis=1)
        loss_fn = CrossEntropyLoss()

        def loss():
            return loss_fn(model(ids), targets)

        def failing():
            model(ids)
            raise KeyError("loss_fn failed after the forward")

        steps = {
            "train_step": lambda fn: runtime.train_step(fn),
            "train_step_accumulate": lambda fn: runtime.train_step_accumulate([loss, fn]),
            "train_step_clipped": lambda fn: runtime.train_step_clipped(fn, 1.0),
        }
        with ratel_init(
            gpu_capacity=GB, host_capacity=GB, nvme_capacity=4 * GB,
            checkpoint_tier=NVME, states_tier=NVME,
            active_offload=variant != "train_step_clipped",
        ) as context:
            model = GPTModel(
                self.VOCAB, self.DIM, self.LAYERS, self.HEADS, self.SEQ,
                np.random.default_rng(5),
            )
            runtime = ratel_hook(model)
            RatelOptimizer(model, runtime, lr=1e-3)
            manager = context.manager

            def held():
                return manager.names(), {n: t.used_bytes for n, t in manager.tiers.items()}

            before = after_failure = held()
            if fail:
                with pytest.raises(KeyError):
                    steps[variant](failing)
                after_failure = held()
            result = steps[variant](loss)
            return result, before, after_failure, held()

    @pytest.mark.parametrize(
        "variant", ["train_step", "train_step_accumulate", "train_step_clipped"]
    )
    def test_every_step_variant_drops_what_a_failed_step_stored(self, variant):
        result, before, after_failure, after = self._step_after(variant, fail=True)
        assert after_failure == before
        assert after == before
        assert result == self._step_after(variant, fail=False)[0]

    def test_the_next_unscaled_step_trains_as_if_the_failed_steps_never_ran(self):
        outcomes, masters, weights = self._train([1e7, 1e7, 1.0])
        assert [type(outcome) for outcome in outcomes] == [Fp16RangeError, Fp16RangeError, float]
        reference_outcomes, reference_masters, reference_weights = self._train([1.0])
        assert outcomes[-1] == reference_outcomes[0]
        for name in masters:
            np.testing.assert_array_equal(masters[name], reference_masters[name], err_msg=name)
            np.testing.assert_array_equal(weights[name], reference_weights[name], err_msg=name)


class TestRuntimeConstruction:
    def test_direct_construction_without_api(self, rng):
        model = GPTModel(VOCAB, DIM, LAYERS, HEADS, SEQ, rng)
        manager = StorageManager(1 * GB, 1 * GB, 4 * GB)
        try:
            optimizer = CPUAdam(list(model.named_parameters()), manager, states_tier=HOST)
            runtime = RatelRuntime(model, manager, optimizer, checkpoint_tier=HOST)
            loss_fn = CrossEntropyLoss()
            ids, targets = make_batches(1)[0]
            loss = runtime.train_step(lambda: loss_fn(model(ids), targets))
            assert loss > 0
        finally:
            manager.close()

    def test_invalid_checkpoint_tier_rejected(self, rng):
        model = GPTModel(VOCAB, DIM, 1, 2, SEQ, rng)
        manager = StorageManager(1 * GB, 1 * GB, 1 * GB)
        try:
            optimizer = CPUAdam(list(model.named_parameters()), manager, states_tier=HOST)
            with pytest.raises(ValueError):
                RatelRuntime(model, manager, optimizer, checkpoint_tier="gpu")
        finally:
            manager.close()

    def test_double_handler_install_rejected(self, rng):
        model = GPTModel(VOCAB, DIM, 1, 2, SEQ, rng)
        manager = StorageManager(1 * GB, 1 * GB, 1 * GB)
        try:
            optimizer = CPUAdam(list(model.named_parameters()), manager, states_tier=HOST)
            runtime = RatelRuntime(model, manager, optimizer, checkpoint_tier=HOST)
            with pytest.raises(RuntimeError):
                runtime._install_gradient_handlers()
        finally:
            manager.close()
