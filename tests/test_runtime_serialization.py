"""Tests for checkpoint save/resume and gradient accumulation."""

from __future__ import annotations

import os
from pathlib import Path

import numpy as np
import pytest

from repro.faults import FaultInjected
from repro.runtime import (
    CrossEntropyLoss,
    GPTModel,
    PeriodicCheckpointer,
    RatelOptimizer,
    checkpoint_path,
    checkpoint_step_path,
    latest_checkpoint,
    list_checkpoints,
    ratel_hook,
    ratel_init,
)
from repro.runtime.serialization import CheckpointError, load_checkpoint, save_checkpoint

GB = 1e9
VOCAB, DIM, LAYERS, HEADS, SEQ = 29, 16, 2, 2, 8


def batches(n, seed=11):
    rng = np.random.default_rng(seed)
    out = []
    for _ in range(n):
        ids = rng.integers(0, VOCAB, size=(4, SEQ))
        out.append((ids, np.roll(ids, -1, axis=1)))
    return out


class TestCheckpointRoundtrip:
    def test_resume_is_bit_exact(self, tmp_path):
        """train 4 steps == train 2, save, restore into a fresh run, train 2."""
        loss_fn = CrossEntropyLoss()
        data = batches(4)
        path = str(tmp_path / "ckpt.npz")

        # Uninterrupted reference.
        with ratel_init(gpu_capacity=GB, host_capacity=GB, nvme_capacity=4 * GB):
            model = GPTModel(VOCAB, DIM, LAYERS, HEADS, SEQ, np.random.default_rng(1))
            runtime = ratel_hook(model)
            RatelOptimizer(model, runtime, lr=1e-2)
            for ids, targets in data:
                runtime.train_step(lambda: loss_fn(model(ids), targets))
            reference = {n: p.data.copy() for n, p in model.named_parameters()}

        # Interrupted: 2 steps, save, rebuild everything, load, 2 more.
        with ratel_init(gpu_capacity=GB, host_capacity=GB, nvme_capacity=4 * GB):
            model = GPTModel(VOCAB, DIM, LAYERS, HEADS, SEQ, np.random.default_rng(1))
            runtime = ratel_hook(model)
            optimizer = RatelOptimizer(model, runtime, lr=1e-2)
            for ids, targets in data[:2]:
                runtime.train_step(lambda: loss_fn(model(ids), targets))
            save_checkpoint(path, optimizer.cpu_adam, step=2)

        with ratel_init(gpu_capacity=GB, host_capacity=GB, nvme_capacity=4 * GB):
            model = GPTModel(VOCAB, DIM, LAYERS, HEADS, SEQ, np.random.default_rng(99))
            runtime = ratel_hook(model)
            optimizer = RatelOptimizer(model, runtime, lr=1e-2)
            step = load_checkpoint(path, model, optimizer.cpu_adam)
            assert step == 2
            for ids, targets in data[2:]:
                runtime.train_step(lambda: loss_fn(model(ids), targets))
            resumed = {n: p.data.copy() for n, p in model.named_parameters()}

        for name in reference:
            np.testing.assert_array_equal(reference[name], resumed[name])

    def test_mismatched_model_rejected(self, tmp_path):
        path = str(tmp_path / "ckpt.npz")
        with ratel_init(gpu_capacity=GB, host_capacity=GB, nvme_capacity=4 * GB):
            model = GPTModel(VOCAB, DIM, LAYERS, HEADS, SEQ, np.random.default_rng(1))
            runtime = ratel_hook(model)
            optimizer = RatelOptimizer(model, runtime)
            save_checkpoint(path, optimizer.cpu_adam)
        with ratel_init(gpu_capacity=GB, host_capacity=GB, nvme_capacity=4 * GB):
            other = GPTModel(VOCAB, DIM, LAYERS + 1, HEADS, SEQ, np.random.default_rng(1))
            runtime = ratel_hook(other)
            optimizer = RatelOptimizer(other, runtime)
            with pytest.raises(CheckpointError):
                load_checkpoint(path, other, optimizer.cpu_adam)


def fresh_training(lr=1e-2, seed=1, dim=DIM):
    """Model + runtime + optimizer inside the ambient ratel context."""
    model = GPTModel(VOCAB, dim, LAYERS, HEADS, SEQ, np.random.default_rng(seed))
    runtime = ratel_hook(model)
    optimizer = RatelOptimizer(model, runtime, lr=lr)
    return model, runtime, optimizer


class TestCheckpointFailurePaths:
    """S3: every bad-checkpoint shape raises an actionable CheckpointError."""

    def test_missing_file(self, tmp_path):
        with ratel_init(gpu_capacity=GB, host_capacity=GB, nvme_capacity=4 * GB):
            model, _, optimizer = fresh_training()
            with pytest.raises(CheckpointError, match="does not exist"):
                load_checkpoint(str(tmp_path / "nope.npz"), model, optimizer.cpu_adam)

    def test_truncated_file(self, tmp_path):
        path = str(tmp_path / "ckpt.npz")
        with ratel_init(gpu_capacity=GB, host_capacity=GB, nvme_capacity=4 * GB):
            model, _, optimizer = fresh_training()
            save_checkpoint(path, optimizer.cpu_adam)
            payload = Path(path).read_bytes()
            with open(path, "wb") as handle:
                handle.write(payload[: len(payload) // 2])
            with pytest.raises(CheckpointError, match="unreadable"):
                load_checkpoint(path, model, optimizer.cpu_adam)

    def test_no_version_marker(self, tmp_path):
        path = str(tmp_path / "ckpt.npz")
        np.savez(path, stray=np.zeros(3))
        with ratel_init(gpu_capacity=GB, host_capacity=GB, nvme_capacity=4 * GB):
            model, _, optimizer = fresh_training()
            with pytest.raises(CheckpointError, match="version marker"):
                load_checkpoint(path, model, optimizer.cpu_adam)

    def test_unsupported_version(self, tmp_path):
        path = str(tmp_path / "ckpt.npz")
        np.savez(path, __version__=np.array([99]), __step__=np.array([0]))
        with ratel_init(gpu_capacity=GB, host_capacity=GB, nvme_capacity=4 * GB):
            model, _, optimizer = fresh_training()
            with pytest.raises(CheckpointError, match="version 99"):
                load_checkpoint(path, model, optimizer.cpu_adam)

    def test_shape_mismatch_names_the_configuration(self, tmp_path):
        path = str(tmp_path / "ckpt.npz")
        with ratel_init(gpu_capacity=GB, host_capacity=GB, nvme_capacity=4 * GB):
            _, _, optimizer = fresh_training(dim=DIM)
            save_checkpoint(path, optimizer.cpu_adam)
        with ratel_init(gpu_capacity=GB, host_capacity=GB, nvme_capacity=4 * GB):
            model, _, optimizer = fresh_training(dim=2 * DIM)
            with pytest.raises(CheckpointError, match="different model configuration"):
                load_checkpoint(path, model, optimizer.cpu_adam)

    def test_failed_load_leaves_training_state_untouched(self, tmp_path):
        """Validation runs before installation: a bad file mutates nothing."""
        loss_fn = CrossEntropyLoss()
        [(ids, targets)] = batches(1)
        path = str(tmp_path / "ckpt.npz")
        np.savez(path, __version__=np.array([99]), __step__=np.array([0]))
        with ratel_init(gpu_capacity=GB, host_capacity=GB, nvme_capacity=4 * GB):
            model, runtime, optimizer = fresh_training()
            runtime.train_step(lambda: loss_fn(model(ids), targets))
            params_before = {n: p.data.copy() for n, p in model.named_parameters()}
            masters_before = {
                n: optimizer.cpu_adam.master_weights(n) for n in optimizer.cpu_adam.params
            }
            with pytest.raises(CheckpointError):
                load_checkpoint(path, model, optimizer.cpu_adam)
            for name, param in model.named_parameters():
                np.testing.assert_array_equal(param.data, params_before[name])
            for name in masters_before:
                np.testing.assert_array_equal(
                    optimizer.cpu_adam.master_weights(name), masters_before[name]
                )


class TestAtomicSave:
    def test_save_returns_npz_path_and_cleans_tmp(self, tmp_path):
        with ratel_init(gpu_capacity=GB, host_capacity=GB, nvme_capacity=4 * GB):
            _, _, optimizer = fresh_training()
            final = save_checkpoint(str(tmp_path / "ckpt"), optimizer.cpu_adam)
        assert final.endswith(".npz")
        assert os.path.exists(final)
        assert not [name for name in os.listdir(tmp_path) if name.endswith(".tmp")]

    def test_interrupted_save_preserves_previous_checkpoint(self, tmp_path, monkeypatch):
        path = str(tmp_path / "ckpt.npz")
        with ratel_init(gpu_capacity=GB, host_capacity=GB, nvme_capacity=4 * GB):
            model, _, optimizer = fresh_training()
            save_checkpoint(path, optimizer.cpu_adam, step=1)
            good = Path(path).read_bytes()

            def torn_write(handle, **payload):
                handle.write(b"partial")
                raise OSError("disk full")

            monkeypatch.setattr(np, "savez", torn_write)
            with pytest.raises(OSError):
                save_checkpoint(path, optimizer.cpu_adam, step=2)
            monkeypatch.undo()

            assert Path(path).read_bytes() == good  # previous file untouched
            assert not [n for n in os.listdir(tmp_path) if n.endswith(".tmp")]
            assert load_checkpoint(path, model, optimizer.cpu_adam) == 1


class TestPeriodicCheckpointer:
    def test_cadence(self, tmp_path):
        loss_fn = CrossEntropyLoss()
        data = batches(5)
        path = str(tmp_path / "periodic")
        with ratel_init(gpu_capacity=GB, host_capacity=GB, nvme_capacity=4 * GB):
            model, runtime, optimizer = fresh_training()
            ckpt = PeriodicCheckpointer(path, optimizer.cpu_adam, every_n_steps=2)
            runtime.add_step_hook(ckpt)
            for ids, targets in data:
                runtime.train_step(lambda ids=ids, targets=targets: loss_fn(model(ids), targets))
            assert ckpt.saved_steps == [2, 4]
            step = load_checkpoint(checkpoint_path(path), model, optimizer.cpu_adam)
            assert step == 4

    def test_invalid_cadence_rejected(self):
        with pytest.raises(ValueError):
            PeriodicCheckpointer("x", optimizer=None, every_n_steps=0)

    def test_invalid_keep_last_rejected(self):
        with pytest.raises(ValueError):
            PeriodicCheckpointer("x", optimizer=None, keep_last=0)

    def test_keep_last_retains_newest_n(self, tmp_path):
        loss_fn = CrossEntropyLoss()
        data = batches(6)
        path = str(tmp_path / "periodic")
        with ratel_init(gpu_capacity=GB, host_capacity=GB, nvme_capacity=4 * GB):
            model, runtime, optimizer = fresh_training()
            ckpt = PeriodicCheckpointer(
                path, optimizer.cpu_adam, every_n_steps=2, keep_last=2
            )
            runtime.add_step_hook(ckpt)
            for ids, targets in data:
                runtime.train_step(
                    lambda ids=ids, targets=targets: loss_fn(model(ids), targets)
                )
            assert ckpt.saved_steps == [2, 4, 6]
            # Only the newest two step-stamped files survive the GC.
            kept = list_checkpoints(path)
            assert [step for step, _ in kept] == [4, 6]
            newest = latest_checkpoint(path)
            assert newest == checkpoint_step_path(path, 6)
            assert load_checkpoint(newest, model, optimizer.cpu_adam) == 6

    def test_latest_checkpoint_falls_back_to_legacy_single_file(self, tmp_path):
        path = str(tmp_path / "periodic")
        assert latest_checkpoint(path) is None
        with ratel_init(gpu_capacity=GB, host_capacity=GB, nvme_capacity=4 * GB):
            _, _, optimizer = fresh_training()
            save_checkpoint(checkpoint_path(path), optimizer.cpu_adam, step=3)
        assert latest_checkpoint(path) == checkpoint_path(path)

    def test_crash_during_gc_never_drops_the_newest(self, tmp_path, monkeypatch):
        """The new checkpoint lands atomically *before* GC runs, so a
        crash mid-unlink costs extra disk, never the latest state."""
        from repro.runtime import serialization

        loss_fn = CrossEntropyLoss()
        data = batches(4)
        path = str(tmp_path / "periodic")
        with ratel_init(gpu_capacity=GB, host_capacity=GB, nvme_capacity=4 * GB):
            model, runtime, optimizer = fresh_training()
            ckpt = PeriodicCheckpointer(
                path, optimizer.cpu_adam, every_n_steps=1, keep_last=1
            )
            runtime.add_step_hook(ckpt)

            real_unlink = os.unlink

            def flaky_unlink(target):
                # Only checkpoint GC fails; the NVMe spill layer shares
                # the os module and must keep working.
                if ".step" in str(target):
                    raise OSError("simulated crash mid-GC")
                real_unlink(target)

            monkeypatch.setattr(serialization.os, "unlink", flaky_unlink)
            for ids, targets in data:  # GC failure must not fail the step
                runtime.train_step(
                    lambda ids=ids, targets=targets: loss_fn(model(ids), targets)
                )
            monkeypatch.undo()
            assert ckpt.saved_steps == [1, 2, 3, 4]
            newest = latest_checkpoint(path)
            assert newest == checkpoint_step_path(path, 4)
            assert load_checkpoint(newest, model, optimizer.cpu_adam) == 4

    def test_non_callable_hook_rejected(self):
        with ratel_init(gpu_capacity=GB, host_capacity=GB, nvme_capacity=4 * GB):
            model, runtime, _ = fresh_training()
            with pytest.raises(TypeError):
                runtime.add_step_hook("not callable")


class TestCrashResume:
    def test_mid_step_crash_resumes_bit_exact(self, tmp_path):
        """The acceptance scenario: training killed mid-step resumes from
        the periodic checkpoint with bit-exact parameters AND optimizer
        state (compared member-for-member through save_checkpoint)."""
        loss_fn = CrossEntropyLoss()
        data = batches(6)
        periodic = str(tmp_path / "periodic")

        # Reference: six uninterrupted steps.
        with ratel_init(gpu_capacity=GB, host_capacity=GB, nvme_capacity=4 * GB):
            model, runtime, optimizer = fresh_training()
            for ids, targets in data:
                runtime.train_step(lambda ids=ids, targets=targets: loss_fn(model(ids), targets))
            reference_params = {n: p.data.copy() for n, p in model.named_parameters()}
            ref_state = save_checkpoint(str(tmp_path / "reference"), optimizer.cpu_adam, step=6)

        # Crashy run: checkpoint every 2 steps, power loss mid-step 5.
        with ratel_init(gpu_capacity=GB, host_capacity=GB, nvme_capacity=4 * GB):
            model, runtime, optimizer = fresh_training()
            ckpt = PeriodicCheckpointer(periodic, optimizer.cpu_adam, every_n_steps=2)
            runtime.add_step_hook(ckpt)
            with pytest.raises(FaultInjected):
                for step, (ids, targets) in enumerate(data, start=1):

                    def closure(ids=ids, targets=targets, step=step):
                        loss = loss_fn(model(ids), targets)
                        if step == 5:
                            raise FaultInjected("simulated power loss mid-step")
                        return loss

                    runtime.train_step(closure)
            assert ckpt.saved_steps == [2, 4]  # step 5 never completed

        # Restart from the newest complete checkpoint; replay steps 5-6.
        with ratel_init(gpu_capacity=GB, host_capacity=GB, nvme_capacity=4 * GB):
            model, runtime, optimizer = fresh_training(seed=77)  # wrong init: must be overwritten
            step = load_checkpoint(checkpoint_path(periodic), model, optimizer.cpu_adam)
            assert step == 4
            for ids, targets in data[step:]:
                runtime.train_step(lambda ids=ids, targets=targets: loss_fn(model(ids), targets))
            resumed_params = {n: p.data.copy() for n, p in model.named_parameters()}
            res_state = save_checkpoint(str(tmp_path / "resumed"), optimizer.cpu_adam, step=6)

        for name in reference_params:
            np.testing.assert_array_equal(reference_params[name], resumed_params[name])
        with np.load(ref_state) as ref, np.load(res_state) as res:
            assert set(ref.files) == set(res.files)
            for key in ref.files:
                np.testing.assert_array_equal(ref[key], res[key], err_msg=key)


class TestGradientAccumulation:
    @staticmethod
    def _run(accumulate: bool, micro: int = 4):
        loss_fn = CrossEntropyLoss()
        rng = np.random.default_rng(11)
        ids = rng.integers(0, VOCAB, size=(8, SEQ))
        targets = np.roll(ids, -1, axis=1)
        with ratel_init(
            gpu_capacity=GB, host_capacity=GB, nvme_capacity=4 * GB,
            checkpoint_tier="host",
        ):
            model = GPTModel(VOCAB, DIM, LAYERS, HEADS, SEQ, np.random.default_rng(4))
            runtime = ratel_hook(model)
            RatelOptimizer(model, runtime, lr=1e-2)
            for _step in range(3):
                if accumulate:
                    size = 8 // micro
                    parts = [
                        (ids[i * size : (i + 1) * size], targets[i * size : (i + 1) * size])
                        for i in range(micro)
                    ]
                    runtime.train_step_accumulate(
                        [(lambda a=a, b=b: loss_fn(model(a), b)) for a, b in parts]
                    )
                else:
                    runtime.train_step(lambda: loss_fn(model(ids), targets))
            return {n: p.data.copy() for n, p in model.named_parameters()}

    def test_accumulated_equals_full_batch(self):
        full = self._run(accumulate=False)
        accumulated = self._run(accumulate=True)
        for name in full:
            np.testing.assert_array_equal(full[name], accumulated[name])

    def test_one_optimizer_step_per_accumulated_batch(self):
        loss_fn = CrossEntropyLoss()
        rng = np.random.default_rng(0)
        ids = rng.integers(0, VOCAB, size=(4, SEQ))
        targets = np.roll(ids, -1, axis=1)
        with ratel_init(gpu_capacity=GB, host_capacity=GB, nvme_capacity=4 * GB):
            model = GPTModel(VOCAB, DIM, LAYERS, HEADS, SEQ, np.random.default_rng(4))
            runtime = ratel_hook(model)
            optimizer = RatelOptimizer(model, runtime)
            runtime.train_step_accumulate(
                [lambda: loss_fn(model(ids), targets) for _ in range(3)]
            )
            assert all(count == 1 for count in optimizer.cpu_adam.step_counts.values())

    def test_empty_micro_batches_rejected(self):
        with ratel_init(gpu_capacity=GB, host_capacity=GB, nvme_capacity=4 * GB):
            model = GPTModel(VOCAB, DIM, LAYERS, HEADS, SEQ, np.random.default_rng(4))
            runtime = ratel_hook(model)
            RatelOptimizer(model, runtime)
            with pytest.raises(ValueError):
                runtime.train_step_accumulate([])
