"""Tests for the fault-injection subsystem (:mod:`repro.faults`).

Covers the three substrates the faults package plugs into:

* the **simulator** — :class:`FaultSchedule` events (SSD dropout,
  bandwidth sag, latency stall) perturbing a machine mid-iteration;
* the **machine model** — :meth:`Machine.fail_ssds` / channel derating;
* the **functional storage layer** — :class:`FaultInjector` driving the
  hardened spill/load path (retry, corruption detection, atomicity).
"""

from __future__ import annotations

import os
import time

import numpy as np
import pytest

from repro.core import RatelPolicy
from repro.core.engine import run_iteration
from repro.faults import (
    BandwidthSag,
    FaultInjected,
    FaultInjector,
    FaultSchedule,
    FaultScheduleError,
    FlakyThenSlowPolicy,
    InjectedIOError,
    LatencyStall,
    SSDDropout,
)
from repro.hardware import evaluation_server
from repro.models import llm, profile_model
from repro.runtime import (
    HOST,
    NVME,
    SpillCorruptionError,
    SpillError,
    StorageManager,
)
from repro.sim.resources import Machine

MB = 10**6


class TestScheduleValidation:
    def test_dropout_rejects_negative_time(self):
        with pytest.raises(FaultScheduleError):
            SSDDropout(at=-1.0)

    def test_dropout_rejects_zero_count(self):
        with pytest.raises(FaultScheduleError):
            SSDDropout(at=1.0, count=0)

    @pytest.mark.parametrize("factor", [0.0, 1.0, 1.5, -0.2])
    def test_sag_factor_must_be_fractional(self, factor):
        with pytest.raises(FaultScheduleError):
            BandwidthSag(at=1.0, duration=2.0, factor=factor)

    def test_sag_rejects_nonpositive_duration(self):
        with pytest.raises(FaultScheduleError):
            BandwidthSag(at=1.0, duration=0.0, factor=0.5)

    def test_stall_rejects_nonpositive_duration(self):
        with pytest.raises(FaultScheduleError):
            LatencyStall(at=1.0, duration=-1.0)

    def test_schedule_truthiness(self):
        assert not FaultSchedule(())
        assert FaultSchedule((SSDDropout(at=1.0),))


class TestScheduleComposition:
    """A schedule is a *set* of physically distinct faults — duplicates
    and same-channel window overlaps are authoring errors, not scenarios."""

    def test_duplicate_event_rejected(self):
        event = SSDDropout(at=5.0, count=2)
        with pytest.raises(FaultScheduleError, match="duplicate"):
            FaultSchedule((event, event))

    def test_duplicate_by_value_rejected(self):
        # Frozen dataclasses compare by value: two separately constructed
        # but identical events are still the same fault scheduled twice.
        with pytest.raises(FaultScheduleError, match="duplicate"):
            FaultSchedule(
                (
                    BandwidthSag(at=1.0, duration=2.0, factor=0.5),
                    BandwidthSag(at=1.0, duration=2.0, factor=0.5),
                )
            )

    def test_overlapping_sags_on_one_channel_rejected(self):
        with pytest.raises(FaultScheduleError, match="overlapping"):
            FaultSchedule(
                (
                    BandwidthSag(at=0.0, duration=10.0, factor=0.5),
                    BandwidthSag(at=5.0, duration=10.0, factor=0.25),
                )
            )

    def test_overlapping_stalls_on_one_channel_rejected(self):
        with pytest.raises(FaultScheduleError, match="overlapping"):
            FaultSchedule(
                (
                    LatencyStall(at=2.0, duration=3.0),
                    LatencyStall(at=4.0, duration=1.0),
                )
            )

    def test_back_to_back_windows_are_not_an_overlap(self):
        # [0, 5) then [5, 8): the first window has ended when the second
        # begins, so the derates never compound.
        assert FaultSchedule(
            (
                BandwidthSag(at=0.0, duration=5.0, factor=0.5),
                BandwidthSag(at=5.0, duration=3.0, factor=0.5),
            )
        )

    def test_different_event_types_may_overlap(self):
        # A sag during a stall is a meaningful compound scenario.
        assert FaultSchedule(
            (
                BandwidthSag(at=0.0, duration=10.0, factor=0.5),
                LatencyStall(at=5.0, duration=2.0),
            )
        )

    def test_same_type_on_different_channels_may_overlap(self):
        assert FaultSchedule(
            (
                BandwidthSag(at=0.0, duration=10.0, factor=0.5, resource="ssd"),
                BandwidthSag(at=5.0, duration=10.0, factor=0.5, resource="host"),
            )
        )


class TestBareChannelNames:
    """A bare ``gpu``, ``pcie_m2g`` or ``pcie_g2m`` names device 0's channel
    everywhere a fault event is seen, as it does in ``Machine.channel``."""

    def test_stall_records_on_the_lane_it_holds(self):
        server = evaluation_server()
        schedule = RatelPolicy().compile(profile_model(llm("13B"), 32), server)
        healthy = run_iteration(server, schedule).trace.busy_time("gpu0")
        stall = LatencyStall(at=1.0, duration=2.0, resource="gpu")
        trace = run_iteration(server, schedule, faults=FaultSchedule((stall,))).trace
        assert trace.busy_time("gpu0") == pytest.approx(healthy + 2.0)
        assert "gpu" not in {interval.resource for interval in trace.intervals}

    def test_overlapping_sags_under_both_names_rejected(self):
        with pytest.raises(FaultScheduleError, match="overlapping"):
            FaultSchedule(
                (
                    BandwidthSag(at=0.0, duration=10.0, factor=0.5, resource="gpu"),
                    BandwidthSag(at=5.0, duration=10.0, factor=0.5, resource="gpu0"),
                )
            )

    def test_same_stall_under_both_names_is_a_duplicate(self):
        with pytest.raises(FaultScheduleError, match="duplicate"):
            FaultSchedule(
                (
                    LatencyStall(at=1.0, duration=2.0, resource="pcie_m2g"),
                    LatencyStall(at=1.0, duration=2.0, resource="pcie_m2g0"),
                )
            )


class TestFlakyThenSlowPolicy:
    """The retry/timeout chaos probe: raise once, then dawdle forever."""

    def test_first_attempt_raises_then_retries_sleep(self, tmp_path):
        policy = FlakyThenSlowPolicy(str(tmp_path), delay_s=0.05)
        profile = profile_model(llm("13B"), 8)
        server = evaluation_server()
        with pytest.raises(FaultInjected):
            policy.evaluate(profile, server)
        started = time.perf_counter()
        outcome = policy.evaluate(profile, server)
        assert time.perf_counter() - started >= 0.05
        assert not outcome.feasible  # chaos policies never really train

    def test_rejects_negative_delay(self, tmp_path):
        with pytest.raises(ValueError):
            FlakyThenSlowPolicy(str(tmp_path), delay_s=-1.0)


@pytest.fixture(scope="module")
def workload():
    """A compiled Ratel schedule that genuinely uses the SSD lane."""
    server = evaluation_server().with_ssds(6)
    profile = profile_model(llm("135B"), 40)
    schedule = RatelPolicy().compile(profile, server)
    return server, schedule


class TestSimulatedFaults:
    def test_dropout_slows_iteration(self, workload):
        server, schedule = workload
        healthy = run_iteration(server, schedule)
        faults = FaultSchedule((SSDDropout(at=5.0, count=2),))
        degraded = run_iteration(server, schedule, faults=faults)
        assert degraded.iteration_time > healthy.iteration_time
        assert healthy.remaining_ssds == server.n_ssds
        assert degraded.remaining_ssds == server.n_ssds - 2

    def test_more_failures_cost_more(self, workload):
        server, schedule = workload
        one = run_iteration(
            server, schedule, faults=FaultSchedule((SSDDropout(at=5.0, count=1),))
        ).iteration_time
        four = run_iteration(
            server, schedule, faults=FaultSchedule((SSDDropout(at=5.0, count=4),))
        ).iteration_time
        assert four > one

    def test_bandwidth_sag_slows_iteration(self, workload):
        server, schedule = workload
        healthy = run_iteration(server, schedule).iteration_time
        faults = FaultSchedule((BandwidthSag(at=1.0, duration=220.0, factor=0.2),))
        sagged = run_iteration(server, schedule, faults=faults).iteration_time
        assert sagged > healthy

    def test_latency_stall_slows_iteration(self, workload):
        server, schedule = workload
        healthy = run_iteration(server, schedule).iteration_time
        faults = FaultSchedule((LatencyStall(at=5.0, duration=10.0),))
        stalled = run_iteration(server, schedule, faults=faults).iteration_time
        assert stalled > healthy

    def test_fault_runs_are_deterministic(self, workload):
        server, schedule = workload
        faults = FaultSchedule((SSDDropout(at=5.0, count=2),))
        a = run_iteration(server, schedule, faults=faults).iteration_time
        b = run_iteration(server, schedule, faults=faults).iteration_time
        assert a == b

    def test_empty_schedule_is_a_noop(self, workload):
        server, schedule = workload
        healthy = run_iteration(server, schedule).iteration_time
        empty = run_iteration(server, schedule, faults=FaultSchedule(())).iteration_time
        assert empty == healthy

    def test_faults_recorded_in_trace(self, workload):
        server, schedule = workload
        faults = FaultSchedule((SSDDropout(at=5.0, count=1),))
        trace = run_iteration(server, schedule, faults=faults).trace
        labels = {interval.label for interval in trace.intervals}
        assert any("fault" in label for label in labels)


class TestMachineFaults:
    def test_fail_ssds_reduces_bandwidth(self):
        # Six drives: below the platform cap, so each loss costs bandwidth.
        machine = Machine(evaluation_server().with_ssds(6))
        before = machine.ssd.rate
        machine.fail_ssds(3)
        assert machine.failed_ssds == 3
        assert machine.ssd.rate < before

    def test_losing_every_drive_zeroes_the_array(self, server):
        machine = Machine(server)
        machine.fail_ssds(server.n_ssds)
        assert machine.ssd.base_rate == 0.0
        assert machine.ssd.base_write_rate == 0.0

    def test_channel_lookup(self, server):
        machine = Machine(server)
        assert machine.channel("ssd") is machine.ssd
        assert machine.channel("gpu") is machine.channel("gpu0")
        machine.channel("pcie_m2g")
        with pytest.raises(KeyError):
            machine.channel("quantum_link")

    def test_derate_is_multiplicative_and_reversible(self, server):
        machine = Machine(server)
        channel = machine.channel("pcie_m2g")
        base = channel.rate
        channel.derate(0.5)
        assert channel.rate == pytest.approx(base * 0.5)
        channel.derate(1 / 0.5)
        assert channel.rate == pytest.approx(base)


class TestFaultInjector:
    @pytest.mark.parametrize("field", ["read_error_rate", "write_error_rate", "corrupt_rate"])
    def test_rates_validated(self, field):
        with pytest.raises(ValueError):
            FaultInjector(**{field: 1.5})

    def test_one_shot_read_faults_fire_exactly(self):
        injector = FaultInjector()
        injector.fail_next_reads(2)
        for _ in range(2):
            with pytest.raises(InjectedIOError):
                injector.on_read("x.npy")
        injector.on_read("x.npy")  # third read is clean
        assert injector.injected_read_errors == 2

    def test_seeded_rates_replay_identically(self):
        def fire_pattern(injector, n=20):
            pattern = []
            for _ in range(n):
                try:
                    injector.on_write("x.npy")
                    pattern.append(False)
                except InjectedIOError:
                    pattern.append(True)
            return pattern

        a = fire_pattern(FaultInjector(write_error_rate=0.5, seed=7))
        b = fire_pattern(FaultInjector(write_error_rate=0.5, seed=7))
        assert a == b
        assert any(a)


@pytest.fixture
def injector():
    return FaultInjector()


@pytest.fixture
def manager(tmp_path, injector):
    mgr = StorageManager(
        10 * MB,
        10 * MB,
        100 * MB,
        spill_dir=str(tmp_path),
        faults=injector,
        sleep=lambda s: None,
    )
    yield mgr
    mgr.close()


class TestStorageFaults:
    def test_spill_survives_transient_write_errors(self, manager, injector, rng):
        injector.fail_next_writes(2)
        stored = manager.put("x", rng.normal(size=(1000,)), HOST)
        manager.move(stored, NVME)
        assert injector.injected_write_errors == 2
        assert stored.tier == NVME

    def test_load_survives_transient_read_errors(self, manager, injector, rng):
        stored = manager.put("x", rng.normal(size=(1000,)), NVME)
        injector.fail_next_reads(3)  # MAX_RETRIES=3 -> 4 attempts
        manager.move(stored, HOST)
        assert injector.injected_read_errors == 3
        np.testing.assert_array_equal(stored.data(), stored.data())

    def test_spill_error_after_retry_exhaustion(self, manager, injector, rng):
        stored = manager.put("x", rng.normal(size=(1000,)), HOST)
        injector.fail_next_writes(10)
        with pytest.raises(SpillError):
            manager.move(stored, NVME)
        # The failed move left everything in the source state.
        assert stored.tier == HOST
        assert manager.tiers[NVME].used_bytes == 0
        assert manager.traffic(HOST, NVME) == 0

    def test_failed_put_to_nvme_frees_allocation(self, manager, injector, rng):
        injector.fail_next_writes(10)
        with pytest.raises(SpillError):
            manager.put("x", rng.normal(size=(1000,)), NVME)
        assert manager.tiers[NVME].used_bytes == 0

    def test_corruption_detected_on_load(self, manager, injector, rng):
        injector.corrupt_next_write(1)
        stored = manager.put("x", rng.normal(size=(1000,)), NVME)
        assert injector.injected_corruptions == 1
        with pytest.raises(SpillCorruptionError):
            manager.move(stored, HOST)

    def test_failed_spill_leaves_no_file(self, manager, injector, rng, tmp_path):
        stored = manager.put("x", rng.normal(size=(1000,)), HOST)
        injector.fail_next_writes(10)
        with pytest.raises(SpillError):
            manager.move(stored, NVME)
        assert os.listdir(tmp_path) == []

    def test_fp16_tensor_reloads_at_fp16_width(self, manager, rng):
        stored = manager.put("x", rng.normal(size=(1000,)), HOST, itemsize=2)
        manager.move(stored, NVME)
        manager.move(stored, HOST)
        assert stored.data().dtype == np.float16
        assert stored.nbytes == 2000
        assert manager.tiers[HOST].used_bytes == 2000

    def test_fp32_tensor_reloads_at_fp32_width(self, manager, rng):
        payload = rng.normal(size=(1000,)).astype(np.float32)
        stored = manager.put("x", payload, HOST, itemsize=4)
        manager.move(stored, NVME)
        manager.move(stored, HOST)
        assert stored.data().dtype == np.float32
        np.testing.assert_array_equal(stored.data(), payload)
