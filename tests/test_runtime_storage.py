"""Tests for the three-tier storage manager (capacities, spill, traffic)."""

from __future__ import annotations

import os

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.faults import FaultInjector
from repro.runtime import (
    GPU,
    HOST,
    NVME,
    CrossEntropyLoss,
    GPTModel,
    RatelOptimizer,
    SpillCorruptionError,
    StorageError,
    StorageManager,
    TierCapacityError,
    ratel_hook,
    ratel_init,
)
from repro.runtime.storage import _Arena

MB = 10**6
GB = 10**9
TIERS = (GPU, HOST, NVME)


@pytest.fixture
def manager(tmp_path):
    mgr = StorageManager(10 * MB, 10 * MB, 100 * MB, spill_dir=str(tmp_path))
    yield mgr
    mgr.close()


class TestCapacities:
    def test_allocation_tracked(self, manager, rng):
        array = rng.normal(size=(1000,)).astype(np.float32)
        stored = manager.put("x", array, GPU, itemsize=2)
        assert stored.nbytes == 2000
        assert manager.tiers[GPU].used_bytes == 2000

    def test_capacity_enforced(self, manager, rng):
        big = rng.normal(size=(6 * MB,)).astype(np.float32)
        with pytest.raises(TierCapacityError):
            manager.put("big", big, GPU, itemsize=2)  # 12 MB > 10 MB

    def test_peak_tracking(self, manager, rng):
        a = manager.put("a", rng.normal(size=(1000,)), GPU)
        manager.put("b", rng.normal(size=(2000,)), GPU)
        manager.drop(a)
        assert manager.tiers[GPU].peak_bytes == 6000
        assert manager.tiers[GPU].used_bytes == 4000

    def test_move_frees_source(self, manager, rng):
        stored = manager.put("x", rng.normal(size=(1000,)), GPU)
        manager.move(stored, HOST)
        assert manager.tiers[GPU].used_bytes == 0
        assert manager.tiers[HOST].used_bytes == stored.nbytes

    def test_duplicate_name_rejected(self, manager, rng):
        manager.put("x", rng.normal(size=(10,)), GPU)
        with pytest.raises(StorageError):
            manager.put("x", rng.normal(size=(10,)), GPU)

    def test_unknown_tier_rejected(self, manager, rng):
        with pytest.raises(StorageError):
            manager.put("x", rng.normal(size=(10,)), "tape")


class TestTrafficAccounting:
    def test_direct_links(self, manager, rng):
        stored = manager.put("x", rng.normal(size=(1000,)), GPU, itemsize=2)
        manager.move(stored, HOST)
        manager.move(stored, NVME)
        assert manager.traffic(GPU, HOST) == 2000
        assert manager.traffic(HOST, NVME) == 2000
        assert manager.traffic(NVME, HOST) == 0

    def test_gpu_to_nvme_bounces_through_host(self, manager, rng):
        """No GPUDirect on consumer GPUs: both hops are charged."""
        stored = manager.put("x", rng.normal(size=(1000,)), GPU, itemsize=2)
        manager.move(stored, NVME)
        assert manager.traffic(GPU, HOST) == 2000
        assert manager.traffic(HOST, NVME) == 2000
        manager.move(stored, GPU)
        assert manager.traffic(NVME, HOST) == 2000
        assert manager.traffic(HOST, GPU) == 2000

    def test_noop_move_counts_nothing(self, manager, rng):
        stored = manager.put("x", rng.normal(size=(1000,)), GPU, itemsize=2)
        manager.move(stored, GPU)
        assert all(v == 0 for v in manager.moved_bytes.values())


class TestSpill:
    def test_nvme_really_spills_to_disk(self, manager, rng, tmp_path):
        stored = manager.put("x", rng.normal(size=(1000,)), HOST, itemsize=4)
        manager.move(stored, NVME)
        assert stored.array is None
        assert len(os.listdir(tmp_path)) == 1

    def test_spilled_data_unreadable_until_fetched(self, manager, rng):
        stored = manager.put("x", rng.normal(size=(1000,)), HOST)
        manager.move(stored, NVME)
        with pytest.raises(StorageError):
            stored.data()

    def test_fp32_roundtrip_exact(self, manager, rng):
        original = rng.normal(size=(1000,)).astype(np.float32)
        stored = manager.put("x", original, HOST, itemsize=4)
        manager.move(stored, NVME)
        manager.move(stored, HOST)
        np.testing.assert_array_equal(stored.data(), original)

    def test_fp16_roundtrip_quantizes(self, manager, rng):
        """fp16 tensors persist at fp16 width — faithful mixed precision."""
        original = rng.normal(size=(1000,)).astype(np.float32)
        stored = manager.put("x", original, HOST, itemsize=2)
        manager.move(stored, NVME)
        manager.move(stored, HOST)
        np.testing.assert_array_equal(
            stored.data(), original.astype(np.float16).astype(np.float32)
        )

    def test_fp16_restored_at_fp16_width(self, manager, rng):
        """Reload keeps the storage dtype: resident bytes match accounting."""
        stored = manager.put("x", rng.normal(size=(1000,)), HOST, itemsize=2)
        manager.move(stored, NVME)
        manager.move(stored, HOST)
        assert stored.data().dtype == np.float16
        assert stored.data().nbytes == stored.nbytes == 2000

    def test_spill_files_cleaned_on_drop(self, manager, rng, tmp_path):
        stored = manager.put("x", rng.normal(size=(1000,)), NVME)
        assert len(os.listdir(tmp_path)) == 1
        manager.drop(stored)
        assert len(os.listdir(tmp_path)) == 0

    def test_close_removes_owned_tempdir(self, rng):
        mgr = StorageManager(MB, MB, MB)
        mgr.put("x", rng.normal(size=(100,)), NVME)
        spill_dir = mgr.spill_dir
        assert os.path.isdir(spill_dir)
        mgr.close()
        assert not os.path.isdir(spill_dir)


class TestInvariants:
    @given(
        moves=st.lists(st.sampled_from([GPU, HOST, NVME]), min_size=1, max_size=12)
    )
    @settings(max_examples=25, deadline=None)
    def test_random_move_sequences_conserve_bytes(self, moves):
        """Usage sums stay equal to the tensor size; data survives."""
        rng = np.random.default_rng(0)
        manager = StorageManager(10 * MB, 10 * MB, 10 * MB)
        try:
            original = rng.normal(size=(500,)).astype(np.float32)
            stored = manager.put("x", original, GPU, itemsize=4)
            for dest in moves:
                manager.move(stored, dest)
                total = sum(tier.used_bytes for tier in manager.tiers.values())
                assert total == stored.nbytes
                assert manager.tiers[stored.tier].used_bytes == stored.nbytes
            if stored.tier == NVME:
                manager.move(stored, HOST)
            np.testing.assert_array_equal(stored.data(), original)
        finally:
            manager.close()

    def test_lookup_by_name(self, manager, rng):
        manager.put("weights", rng.normal(size=(10,)), HOST)
        assert manager.get("weights").name == "weights"
        with pytest.raises(StorageError):
            manager.get("missing")


class TestDroppedTensors:
    @pytest.mark.parametrize("tier", [GPU, NVME])
    def test_dropped_tensor_touches_no_tier_or_counter(self, manager, rng, tier):
        """drop, move and data on a dropped tensor raise; nothing is charged."""
        live = manager.put("live", rng.normal(size=(1000,)), tier, itemsize=2)
        dead = manager.put("dead", rng.normal(size=(1000,)), tier, itemsize=2)
        manager.drop(dead)
        with pytest.raises(StorageError):
            manager.drop(dead)
        for dest in TIERS:
            with pytest.raises(StorageError):
                manager.move(dead, dest)
        with pytest.raises(StorageError):
            dead.data()
        assert dead.nbytes == live.nbytes == 2000
        assert {name: t.used_bytes for name, t in manager.tiers.items()} == {
            name: 2000 if name == tier else 0 for name in TIERS
        }
        assert all(v == 0 for v in manager.moved_bytes.values())


class TestArena:
    def test_corrupt_slot_spares_its_neighbours(self, tmp_path, rng):
        injector = FaultInjector()
        manager = StorageManager(
            10 * MB, 10 * MB, 100 * MB, spill_dir=str(tmp_path), faults=injector
        )
        try:
            originals = [rng.normal(size=(1000,)).astype(np.float32) for _ in range(3)]
            stored = []
            for i, original in enumerate(originals):
                if i == 1:
                    injector.corrupt_next_write()
                stored.append(manager.put(f"t{i}", original, NVME, itemsize=4))
            assert injector.injected_corruptions == 1
            assert len(os.listdir(tmp_path)) == 1
            with pytest.raises(SpillCorruptionError):
                manager.move(stored[1], HOST)
            for i in (0, 2):
                manager.move(stored[i], HOST)
                np.testing.assert_array_equal(stored[i].data(), originals[i])
        finally:
            manager.close()

    def test_short_read_is_corruption(self, manager, rng, tmp_path):
        stored = manager.put("x", rng.normal(size=(1000,)), NVME, itemsize=4)
        (arena,) = os.listdir(tmp_path)
        os.truncate(tmp_path / arena, 1000)
        with pytest.raises(SpillCorruptionError, match="short"):
            manager.move(stored, HOST)
        assert stored.tier == NVME
        assert manager.tiers[HOST].used_bytes == 0

    def test_arena_stops_growing_after_the_first_step(self, tmp_path):
        """Ten steps with states on NVMe reuse the slots the first step made."""
        loss_fn = CrossEntropyLoss()
        ids = np.random.default_rng(0).integers(0, 101, size=(8, 32))
        targets = np.roll(ids, -1, axis=1)
        sizes = []
        with ratel_init(
            gpu_capacity=GB, host_capacity=GB, nvme_capacity=8 * GB, spill_dir=str(tmp_path)
        ) as context:
            model = GPTModel(101, 32, 4, 4, 32, np.random.default_rng(1))
            runtime = ratel_hook(model)
            RatelOptimizer(model, runtime, lr=1e-3)
            for _step in range(10):
                runtime.train_step(lambda: loss_fn(model(ids), targets))
                (arena,) = os.listdir(tmp_path)
                sizes.append(os.path.getsize(tmp_path / arena))
            peak = context.manager.tiers[NVME].peak_bytes
        assert sizes == [sizes[0]] * 10
        assert peak <= sizes[0] < 2 * peak

    @given(st.integers(1, 1 << 40))
    @settings(max_examples=200, deadline=None)
    def test_slots_waste_under_a_quarter_and_are_reused(self, nbytes):
        arena = _Arena("never-written.bin")  # reserve/release touch no file
        arena.reserve(1)  # keeps the arena open across the release below
        offset, size = arena.reserve(nbytes)
        assert size >= nbytes
        if nbytes >= 8:
            assert 4 * (size - nbytes) < nbytes
        arena.release(offset, size)
        assert arena.reserve(nbytes) == (offset, size)

    def test_four_size_classes_per_power_of_two(self):
        arena = _Arena("never-written.bin")
        sizes = {arena.reserve(n)[1] for n in range(1025, 2049)}
        assert sizes == {1280, 1536, 1792, 2048}

    def test_close_empties_caller_owned_spill_dir(self, tmp_path, rng):
        manager = StorageManager(MB, MB, MB, spill_dir=str(tmp_path))
        for i in range(3):
            manager.put(f"x{i}", rng.normal(size=(100,)), NVME)
        manager.close()
        assert tmp_path.is_dir()
        assert os.listdir(tmp_path) == []
