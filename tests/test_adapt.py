"""Tests for online adaptive resilience (:mod:`repro.adapt`).

Covers the four layers of the subsystem:

* **drift detection** — :class:`HealthMonitor` EWMAs, the hysteresis
  band between trip and recovery thresholds, typed drift events;
* **the ladder** — every rung compiles to a runnable schedule, the
  knobs (floor swap, spill share, micro-batch scale, optimizer mode)
  do what they claim, and comparisons stay in seconds-per-token;
* **the controller** — replanning on drift, cooldown, step-down when
  rung 0 stops fitting, hysteresis step-up, zero flapping on a
  noisy-but-healthy trace, metrics + ledger recording;
* **the drill** — the standard fault drill's acceptance bars: adaptive
  strictly beats the stale plan and lands within 10% of the
  replan-once oracle;
* **the runtime hook** — :class:`RuntimeHealth` walking the live
  :class:`RatelRuntime` ladder on step-time drift and injected errors.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import pytest

from repro.adapt import (
    AdaptError,
    AdaptiveController,
    BandwidthDrift,
    DEFAULT_LADDER,
    DrillStep,
    DriveDrift,
    Ewma,
    HealthMonitor,
    LadderRung,
    RuntimeHealth,
    StageOverrun,
    compile_rung,
    drill_outcome,
    rung_shortfalls,
    run_drill,
    ssd_effective_bandwidth,
    standard_drill,
)
from repro.adapt.health import BW_RATIO, OVERRUN_RATIO, RECOVER_RATIO
from repro.adapt.runtime_hook import RUNTIME_RUNGS
from repro.core import RatelPolicy
from repro.core.schedule import OptimizerMode
from repro.hardware import evaluation_server
from repro.models import llm, profile_model
from repro.obs.ledger import RunLedger
from repro.obs.metrics import MetricsRegistry

SSDS = 6


@pytest.fixture(scope="module")
def drill_server():
    return evaluation_server().with_ssds(SSDS)


@pytest.fixture(scope="module")
def profile_135b():
    return profile_model(llm("135B"), 40)


@pytest.fixture(scope="module")
def hardware(profile_135b, drill_server):
    return RatelPolicy().hardware_profile(profile_135b, drill_server)


# -- thresholds and EWMAs ------------------------------------------------------


class TestThresholds:
    def test_defaults_form_a_hysteresis_band(self):
        assert BW_RATIO < RECOVER_RATIO <= 1
        assert OVERRUN_RATIO > 1


class TestEwma:
    def test_first_sample_seeds_the_average(self):
        ewma = Ewma()
        assert ewma.value is None
        assert ewma.update(4.0) == 4.0

    def test_smoothing(self):
        ewma = Ewma()
        ewma.update(1.0)
        assert ewma.update(2.0) == pytest.approx(1.5)

    def test_reset(self):
        ewma = Ewma()
        ewma.update(1.0)
        ewma.reset()
        assert ewma.value is None


# -- trace bandwidth extraction ------------------------------------------------


@dataclass(frozen=True)
class _Interval:
    resource: str
    start: float
    end: float
    amount: float


@dataclass(frozen=True)
class _Trace:
    intervals: tuple


class TestEffectiveBandwidth:
    def test_sums_real_transfers(self):
        trace = _Trace(
            (
                _Interval("ssd", 0.0, 2.0, 10.0),
                _Interval("ssd", 2.0, 3.0, 5.0),
            )
        )
        assert ssd_effective_bandwidth(trace) == (15.0, 3.0)

    def test_fault_markers_do_not_inflate_busy_time(self):
        """A ``fault_bw_sag`` window is recorded with amount == 0; counting
        its duration as busy would understate the effective rate."""
        trace = _Trace(
            (
                _Interval("ssd", 0.0, 2.0, 10.0),
                _Interval("ssd", 0.0, 100.0, 0.0),  # sag marker
            )
        )
        assert ssd_effective_bandwidth(trace) == (10.0, 2.0)

    def test_other_resources_ignored(self):
        trace = _Trace((_Interval("pcie", 0.0, 1.0, 7.0),))
        assert ssd_effective_bandwidth(trace) is None

    def test_window_clips_proportionally(self):
        trace = _Trace((_Interval("ssd", 0.0, 4.0, 8.0),))
        moved, busy = ssd_effective_bandwidth(trace, window_start=2.0, window_end=4.0)
        assert moved == pytest.approx(4.0)
        assert busy == pytest.approx(2.0)

    def test_empty_window_is_none(self):
        trace = _Trace((_Interval("ssd", 0.0, 1.0, 8.0),))
        assert ssd_effective_bandwidth(trace, window_start=5.0) is None


# -- the monitor ---------------------------------------------------------------


class TestHealthMonitor:
    def test_bandwidth_trip_raises_typed_event(self, hardware):
        monitor = HealthMonitor(hardware)
        monitor.observe_bandwidth("ssd", observed_bw=5e9, expected_bw=10e9)
        events = monitor.poll()
        assert len(events) == 1
        event = events[0]
        assert isinstance(event, BandwidthDrift)
        assert event.kind == "bandwidth_sag"
        assert event.ratio == pytest.approx(0.5)
        assert not monitor.healthy()

    def test_hysteresis_band_fires_nothing(self, hardware):
        """Between trip (0.85) and recovery (0.93) a channel is neither
        drifting nor healthy — the dead zone that prevents flapping."""
        monitor = HealthMonitor(hardware)
        monitor.observe_bandwidth("ssd", observed_bw=9e9, expected_bw=10e9)
        assert monitor.poll() == []
        assert not monitor.healthy()

    def test_healthy_above_recovery_edge(self, hardware):
        monitor = HealthMonitor(hardware)
        monitor.observe_bandwidth("ssd", observed_bw=9.9e9, expected_bw=10e9)
        assert monitor.poll() == []
        assert monitor.healthy()

    def test_first_drive_observation_is_the_baseline(self, hardware):
        monitor = HealthMonitor(hardware)
        monitor.observe_drives(5)
        assert monitor.poll() == []

    def test_drive_change_fires_exactly_once(self, hardware):
        monitor = HealthMonitor(hardware)
        monitor.observe_drives(6)
        monitor.observe_drives(4)
        events = monitor.poll()
        assert events == [DriveDrift(previous=6, remaining=4)]
        assert events[0].kind == "drive_loss"
        assert monitor.poll() == []  # acknowledged

    def test_drive_restore_is_an_event_too(self, hardware):
        monitor = HealthMonitor(hardware)
        monitor.observe_drives(4)
        monitor.observe_drives(6)
        (event,) = monitor.poll()
        assert event.kind == "drive_restored"

    def test_stage_overrun_must_be_sustained(self, hardware):
        monitor = HealthMonitor(hardware)
        monitor.observe_stage("forward", observed_s=2.0, predicted_s=1.0)
        assert monitor.poll() == []  # one slow poll is not drift
        monitor.observe_stage("forward", observed_s=2.0, predicted_s=1.0)
        (event,) = monitor.poll()
        assert isinstance(event, StageOverrun)
        assert event.stage == "forward"
        assert event.polls >= 2

    def test_rebase_clears_plan_relative_state_keeps_machine_state(self, hardware):
        monitor = HealthMonitor(hardware)
        monitor.observe_bandwidth("ssd", observed_bw=5e9, expected_bw=10e9)
        monitor.observe_drives(6)
        monitor.observe_drives(5)
        monitor.poll()  # acknowledge the drive change
        monitor.rebase(hardware, None)
        assert monitor.poll() == []  # the sag ratio was priced into the replan
        assert monitor.remaining_drives == 5  # drives describe the machine

    def test_event_strings_are_human_readable(self):
        assert "lost 2 drive(s)" in str(DriveDrift(previous=6, remaining=4))
        assert "restored" in str(DriveDrift(previous=4, remaining=6))
        sag = BandwidthDrift("ssd", observed_bw=5e9, expected_bw=10e9)
        assert "50%" in str(sag)


# -- the ladder ----------------------------------------------------------------


class TestLadder:
    def test_default_ladder_rung_order(self):
        names = [rung.name for rung in DEFAULT_LADDER]
        assert names == ["planned", "recompute", "spill", "microbatch", "sync_optimizer"]

    @pytest.mark.parametrize(
        "kwargs",
        [{"batch_scale": 0.0}, {"batch_scale": 1.5}, {"ssd_spill_share": 1.0}],
    )
    def test_rung_validation(self, kwargs):
        with pytest.raises(AdaptError):
            LadderRung("bad", "invalid knobs", **kwargs)

    def test_recompute_rung_pins_the_floor(self, profile_135b, hardware):
        plan = compile_rung(DEFAULT_LADDER[1], profile_135b, hardware)
        assert plan.a_g2m == profile_135b.inter_block_bytes

    def test_spill_rung_shrinks_the_main_budget(self, profile_135b, hardware):
        plan = compile_rung(DEFAULT_LADDER[2], profile_135b, hardware)
        assert plan.hardware.mem_avail_main <= 0.5 * plan.a_g2m
        assert plan.a_to_main <= plan.hardware.mem_avail_main * (1 + 1e-9)

    def test_microbatch_rung_rescales_the_profile(self, profile_135b, hardware):
        plan = compile_rung(DEFAULT_LADDER[3], profile_135b, hardware)
        assert plan.profile.batch_size == 20
        assert "[microbatch]" in plan.schedule.name

    def test_sync_optimizer_rung_defers_the_optimizer(self, profile_135b, hardware):
        plan = compile_rung(DEFAULT_LADDER[4], profile_135b, hardware)
        assert plan.schedule.optimizer_mode == OptimizerMode.DEFERRED_CPU

    def test_planned_rung_is_fastest_at_full_batch(self, profile_135b, hardware):
        """Algorithm 1 searches a superset of every constrained full-batch
        rung, so rung 0 never loses to rungs 1-2 in seconds-per-token."""
        plans = [compile_rung(rung, profile_135b, hardware) for rung in DEFAULT_LADDER[:3]]
        assert plans[0].seconds_per_token == min(p.seconds_per_token for p in plans)

    def test_swap_split_accounting(self, profile_135b, hardware):
        plan = compile_rung(DEFAULT_LADDER[0], profile_135b, hardware)
        assert plan.a_to_main + plan.a_to_ssd == pytest.approx(plan.a_g2m)
        assert plan.a_to_main >= 0 and plan.a_to_ssd >= 0

    def test_shortfalls_empty_when_feasible(self, profile_135b, hardware, drill_server):
        plan = compile_rung(DEFAULT_LADDER[0], profile_135b, hardware)
        assert rung_shortfalls(plan, drill_server) == {}

    def test_shortfalls_name_the_overflowing_tier(self, drill_server):
        profile = profile_model(llm("135B"), 80)  # working set > 24 GB GPU
        hardware = RatelPolicy().hardware_profile(profile, drill_server)
        plan = compile_rung(DEFAULT_LADDER[0], profile, hardware)
        assert "gpu" in rung_shortfalls(plan, drill_server)


# -- the controller ------------------------------------------------------------


class TestController:
    def test_healthy_iterations_hold(self, profile_135b, drill_server):
        controller = AdaptiveController(profile_135b, drill_server)
        for _ in range(4):
            decision = controller.finish_iteration()
            assert decision.action == "hold"
        assert controller.plan_swaps == 0

    def test_noisy_but_healthy_trace_never_flaps(self, profile_135b, drill_server):
        """Acceptance bar: bandwidth hovering inside the hysteresis band
        (and wobbling across its recovery edge) causes zero plan swaps."""
        controller = AdaptiveController(profile_135b, drill_server)
        expected = 10e9
        for i in range(12):
            wobble = 0.88 if i % 2 else 0.95  # straddles recover_ratio=0.93
            controller.monitor.observe_bandwidth("ssd", wobble * expected, expected)
            controller.finish_iteration(remaining_ssds=SSDS)
        assert controller.plan_swaps == 0
        assert controller._sag == 1.0

    def test_drive_loss_triggers_replan(self, profile_135b, drill_server):
        controller = AdaptiveController(profile_135b, drill_server)
        controller.finish_iteration(remaining_ssds=SSDS)
        decision = controller.finish_iteration(remaining_ssds=SSDS - 1)
        assert decision.action == "replan"
        assert decision.events[0]["kind"] == "drive_loss"
        assert controller.current_server.n_ssds == SSDS - 1

    def test_cooldown_suppresses_reaction_to_own_swap(self, profile_135b, drill_server):
        controller = AdaptiveController(profile_135b, drill_server)
        controller.finish_iteration(remaining_ssds=SSDS)
        controller.finish_iteration(remaining_ssds=SSDS - 1)  # swap
        controller.monitor.observe_bandwidth("ssd", 1e9, 10e9)  # severe sag sample
        decision = controller.finish_iteration(remaining_ssds=SSDS - 1)
        assert decision.action == "hold"
        assert "cooldown" in decision.reason

    def test_drive_events_bypass_cooldown(self, profile_135b, drill_server):
        controller = AdaptiveController(profile_135b, drill_server)
        controller.finish_iteration(remaining_ssds=SSDS)
        controller.finish_iteration(remaining_ssds=SSDS - 1)  # swap, cooldown starts
        decision = controller.finish_iteration(remaining_ssds=SSDS - 2)
        assert decision.action == "replan"

    def test_bandwidth_sag_folds_into_the_profile(self, profile_135b, drill_server):
        controller = AdaptiveController(profile_135b, drill_server)
        expected = controller.plan.hardware.bw_s2m
        controller.monitor.observe_bandwidth("ssd", 0.5 * expected, expected)
        decision = controller.finish_iteration()
        assert decision.action == "replan"
        assert decision.events[0]["kind"] == "bandwidth_sag"
        assert controller._sag == pytest.approx(0.5)
        assert controller.plan.hardware.bw_s2m == pytest.approx(0.5 * expected)

    def test_infeasible_rung0_steps_down_to_microbatch(self, drill_server):
        """Batch 80's GPU working set overflows the 4090; the first drift
        forces a replan, rung 0-2 fail their shortfall check and the
        controller lands on the half micro-batch rung."""
        profile = profile_model(llm("135B"), 80)
        controller = AdaptiveController(profile, drill_server)
        controller.finish_iteration(remaining_ssds=SSDS)
        decision = controller.finish_iteration(remaining_ssds=SSDS - 1)
        assert decision.action == "step_down"
        assert decision.rung == "microbatch"
        assert controller.plan.profile.batch_size == 40

    def test_no_step_up_while_rung0_stays_infeasible(self, drill_server):
        profile = profile_model(llm("135B"), 80)
        controller = AdaptiveController(profile, drill_server)
        controller.finish_iteration(remaining_ssds=SSDS)
        controller.finish_iteration(remaining_ssds=SSDS - 1)  # step_down
        swaps_after_down = controller.plan_swaps
        for _ in range(6):
            controller.finish_iteration(remaining_ssds=SSDS - 1)
        assert controller.plan_swaps == swaps_after_down
        assert controller.plan.rung.name == "microbatch"

    def test_healthy_streak_steps_back_up(self, profile_135b, drill_server):
        controller = AdaptiveController(profile_135b, drill_server)
        plan1 = compile_rung(
            controller.ladder[1], profile_135b, controller._profile_hardware()
        )
        controller._adopt(1, plan1, "step_down", "test setup", [])
        controller._cooldown = 0
        actions = [controller.finish_iteration().action for _ in range(4)]
        assert actions[:3] == ["hold", "hold", "step_up"]
        assert controller.rung_index == 0
        assert controller.plan.rung.name == "planned"

    def test_recovery_requires_consecutive_healthy_polls(self, profile_135b, drill_server):
        controller = AdaptiveController(profile_135b, drill_server)
        plan1 = compile_rung(
            controller.ladder[1], profile_135b, controller._profile_hardware()
        )
        controller._adopt(1, plan1, "step_down", "test setup", [])
        controller._cooldown = 0
        controller.finish_iteration()  # healthy 1
        controller.finish_iteration()  # healthy 2
        # an in-band wobble resets the streak ...
        controller.monitor.observe_bandwidth("ssd", 8.8e9, 10e9)
        assert controller.finish_iteration().action == "hold"
        # ... so recovery needs three fresh healthy polls again
        controller.monitor.rebase(controller.plan.hardware, controller.plan.estimate)
        assert controller.finish_iteration().action == "hold"
        assert controller.finish_iteration().action == "hold"
        assert controller.finish_iteration().action == "step_up"

    def test_total_array_loss_holds_rather_than_crashing(self, profile_135b, drill_server):
        controller = AdaptiveController(profile_135b, drill_server)
        controller.finish_iteration(remaining_ssds=SSDS)
        decision = controller.finish_iteration(remaining_ssds=0)
        assert decision.action == "hold"
        assert "no feasible rung" in decision.reason

    def test_decisions_count_into_the_registry(self, profile_135b, drill_server):
        registry = MetricsRegistry()
        controller = AdaptiveController(profile_135b, drill_server, registry=registry)
        controller.finish_iteration(remaining_ssds=SSDS)
        controller.finish_iteration(remaining_ssds=SSDS - 1)
        assert registry.counter("adapt_decisions_total").value(action="hold") == 1
        assert registry.counter("adapt_decisions_total").value(action="replan") == 1
        assert registry.counter("adapt_plan_swaps_total").value() == 1
        assert (
            registry.counter("adapt_drift_events_total").value(kind="drive_loss") == 1
        )


# -- the drill -----------------------------------------------------------------


class TestDrill:
    @pytest.fixture(scope="class")
    def outcome(self, tmp_path_factory):
        ledger_path = tmp_path_factory.mktemp("adapt") / "ledger.jsonl"
        ledger = RunLedger(str(ledger_path))
        outcome = drill_outcome(ledger=ledger)
        return outcome, ledger

    def test_standard_drill_shape(self):
        drill = standard_drill()
        assert len(drill) == 8
        assert any(step.dropout_count for step in drill)  # mid-iteration loss
        assert any(step.sag_factor for step in drill)  # thermal sag
        assert drill[-1] == DrillStep()  # ends healed

    def test_adaptive_beats_stale(self, outcome):
        result, _ = outcome
        m = result.metrics
        assert m["adaptive_s_per_token"] < m["stale_s_per_token"]

    def test_adaptive_within_10pct_of_oracle(self, outcome):
        result, _ = outcome
        m = result.metrics
        assert m["adaptive_s_per_token"] <= 1.1 * m["oracle_s_per_token"]

    def test_controller_actually_swapped_plans(self, outcome):
        result, _ = outcome
        assert result.metrics["plan_swaps"] >= 2  # degrade and recover

    def test_standard_drill_is_pinned(self, outcome):
        """The drill's decisions and seconds-per-token, bit for bit: a
        change to a threshold or controller constant shows up here."""
        result, _ = outcome
        m = result.metrics
        assert [(d["iteration"], d["action"], d["rung"]) for d in m["decisions"]] == [
            (3, "replan", "planned"),
            (5, "replan", "planned"),
            (7, "replan", "planned"),
        ]
        assert m["adaptive_s_per_token"] == float.fromhex("0x1.b1cfa38651cc5p-8")
        assert m["oracle_s_per_token"] == float.fromhex("0x1.b1cfa38651cc5p-8")
        assert m["stale_s_per_token"] == float.fromhex("0x1.bd58383730b73p-8")

    def test_every_swap_lands_in_the_ledger_with_its_trigger(self, outcome):
        result, ledger = outcome
        entries = [e for e in ledger.entries() if e.kind == "adapt"]
        assert len(entries) == result.metrics["plan_swaps"]
        for entry in entries:
            decision = entry.metrics["decision"]
            assert decision["action"] != "hold"
            assert decision["events"] or "recovered" in decision["reason"]
            assert entry.label.startswith("adapt:")

    def test_drill_step_validation(self):
        with pytest.raises(AdaptError):
            DrillStep(n_failed=-1)
        with pytest.raises(AdaptError):
            DrillStep(sag_factor=1.5)

    def test_unknown_posture_rejected(self):
        with pytest.raises(AdaptError):
            run_drill("clairvoyant")


# -- the runtime hook ----------------------------------------------------------


class _FakeInjector:
    def __init__(self):
        self.injected_read_errors = 0
        self.injected_write_errors = 0
        self.injected_corruptions = 0


class _FakeManager:
    def __init__(self):
        self.faults = _FakeInjector()


class _FakeRuntime:
    def __init__(self):
        self.step = 0
        self.checkpoint_tier = "nvme"
        self.active_offload = True
        self.manager = _FakeManager()


class TestRuntimeHealth:
    def _feed(self, health, runtime, dt, times):
        for _ in range(times):
            runtime.step += 1
            health.on_step(runtime, dt)

    def test_validation(self):
        with pytest.raises(AdaptError):
            RuntimeHealth(warmup_steps=0)
        with pytest.raises(AdaptError):
            RuntimeHealth(recover_polls=0)

    def test_sustained_overrun_steps_down(self):
        health = RuntimeHealth(warmup_steps=3)
        runtime = _FakeRuntime()
        self._feed(health, runtime, 1.0, 3)  # baseline
        self._feed(health, runtime, 2.0, 2)  # 2x for overrun_polls=2 polls
        assert health.rung == 1
        assert runtime.checkpoint_tier != "nvme"
        assert [t[1] for t in health.transitions] == ["step_down"]
        assert health.events[-1]["kind"] == "stage_overrun"

    def test_single_slow_step_is_not_drift(self):
        health = RuntimeHealth(warmup_steps=3)
        runtime = _FakeRuntime()
        self._feed(health, runtime, 1.0, 3)
        # One 1.4x step trips the ratio EWMA once, but it decays below
        # the threshold before the second poll — not sustained drift.
        self._feed(health, runtime, 1.4, 1)
        self._feed(health, runtime, 1.0, 4)
        assert health.rung == 0
        assert health.transitions == []

    def test_second_overrun_reaches_sync_optimizer(self):
        health = RuntimeHealth(warmup_steps=2)
        runtime = _FakeRuntime()
        self._feed(health, runtime, 1.0, 2)
        self._feed(health, runtime, 2.0, 2)  # -> host_checkpoints, rebase
        self._feed(health, runtime, 2.0, 2)  # new baseline at 2.0
        self._feed(health, runtime, 4.0, 2)  # -> sync_optimizer
        assert health.rung == 2
        assert runtime.active_offload is False

    def test_recovery_steps_up_and_restores_settings(self):
        health = RuntimeHealth(warmup_steps=2, recover_polls=2)
        runtime = _FakeRuntime()
        self._feed(health, runtime, 1.0, 2)
        self._feed(health, runtime, 2.0, 2)  # step down
        assert runtime.checkpoint_tier == "host"
        self._feed(health, runtime, 1.0, 2)  # rebased baseline at 1.0
        self._feed(health, runtime, 1.0, 2)  # healthy streak
        assert health.rung == 0
        assert runtime.checkpoint_tier == "nvme"  # original restored

    def test_injected_errors_step_down_immediately(self):
        health = RuntimeHealth(warmup_steps=10)
        runtime = _FakeRuntime()
        self._feed(health, runtime, 1.0, 1)
        runtime.manager.faults.injected_read_errors = 1
        self._feed(health, runtime, 1.0, 1)
        assert health.rung == 1
        assert health.events[-1]["kind"] == "io_error"

    def test_bottom_rung_absorbs_further_drift(self):
        health = RuntimeHealth(warmup_steps=1, recover_polls=100)
        runtime = _FakeRuntime()
        for _ in range(4):
            self._feed(health, runtime, 1.0, 1)
            self._feed(health, runtime, 10.0, 2)
        assert health.rung == len(RUNTIME_RUNGS) - 1
        assert len(health.transitions) == 2  # one per rung, no repeats

    def test_registry_counts_transitions(self):
        registry = MetricsRegistry()
        health = RuntimeHealth(warmup_steps=2, registry=registry)
        runtime = _FakeRuntime()
        self._feed(health, runtime, 1.0, 2)
        self._feed(health, runtime, 2.0, 2)
        assert (
            registry.counter("adapt_runtime_transitions_total").value(
                action="step_down", rung="host_checkpoints"
            )
            == 1
        )


class TestRuntimeIntegration:
    """The hook on a live NumPy runtime: register, monitor, flip settings."""

    GB = 1e9

    def _training_setup(self):
        from repro.runtime import (
            CrossEntropyLoss,
            GPTModel,
            RatelOptimizer,
            ratel_hook,
            ratel_init,
        )

        ctx = ratel_init(
            gpu_capacity=1 * self.GB,
            host_capacity=4 * self.GB,
            nvme_capacity=4 * self.GB,
            checkpoint_tier="host",
            states_tier="host",
            active_offload=True,
        )
        ctx.__enter__()
        model = GPTModel(53, 32, 2, 4, 16, np.random.default_rng(3))
        rt = ratel_hook(model)
        RatelOptimizer(model, rt, lr=1e-2)
        loss = CrossEntropyLoss()
        rng = np.random.default_rng(17)
        ids = rng.integers(0, 53, size=(4, 16))
        targets = np.roll(ids, -1, axis=1)
        return ctx, rt, lambda: loss(model(ids), targets), model

    def test_attached_monitor_sees_every_step(self):
        """Registered as a step hook, the monitor folds every step of
        every variant: plain, accumulated and clipped."""
        ctx, runtime, loss_fn, _ = self._training_setup()
        try:
            health = RuntimeHealth(warmup_steps=100)
            runtime.add_step_hook(health)
            for _ in range(3):
                runtime.train_step(loss_fn)
            assert health._seen == 3
            for _ in range(3):
                runtime.train_step_accumulate([loss_fn, loss_fn])
            assert health._seen == 6
            runtime.active_offload = False  # clipping needs deferred mode
            for _ in range(2):
                runtime.train_step_clipped(loss_fn, max_grad_norm=1.0)
            assert health._seen == 8
            assert health.rung == 0  # a healthy run never transitions
        finally:
            ctx.__exit__(None, None, None)

    def test_live_sync_optimizer_flip_keeps_training(self):
        """Stepping down to the sync-optimizer rung mid-run must not lose
        updates: gradients accumulated after the flip flow through the
        deferred optimizer stage instead of the per-tensor handlers."""
        ctx, runtime, loss_fn, model = self._training_setup()
        try:
            runtime.train_step(loss_fn)
            before = [p.data.copy() for p in model.parameters()]
            runtime.active_offload = False  # what _step_down does live
            runtime.train_step(loss_fn)
            after = [p.data.copy() for p in model.parameters()]
            changed = sum(
                0 if np.array_equal(a, b) else 1 for a, b in zip(before, after)
            )
            assert changed > 0  # the deferred path still applied updates
        finally:
            ctx.__exit__(None, None, None)
