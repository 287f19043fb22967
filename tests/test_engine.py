"""Tests for the discrete-event iteration engine."""

from __future__ import annotations

import pytest

from repro.core import (
    OptimizerMode,
    RatelPolicy,
    StatesLocation,
    build_blocks,
    run_iteration,
)
from repro.core.schedule import IterationSchedule
from repro.hardware import GB
from repro.models import llm, profile_model


def simple_schedule(profile, mode=OptimizerMode.ACTIVE_OPTIMIZED, **kwargs):
    blocks = build_blocks(
        profile,
        act_to_main_total=profile.inter_block_bytes,
        act_to_ssd_total=0.0,
        recompute_flops_total=profile.recompute_flops_for(profile.inter_block_bytes),
    )
    return IterationSchedule(
        name="test",
        model=profile,
        blocks=blocks,
        states_location=StatesLocation.SSD,
        optimizer_mode=mode,
        **kwargs,
    )


class TestScheduleConstruction:
    def test_build_blocks_conserves_totals(self, profile_13b_bs32):
        p = profile_13b_bs32
        blocks = build_blocks(
            p,
            act_to_main_total=30 * GB,
            act_to_ssd_total=10 * GB,
            recompute_flops_total=1e15,
        )
        assert sum(b.act_to_main for b in blocks) == pytest.approx(30 * GB)
        assert sum(b.act_to_ssd for b in blocks) == pytest.approx(10 * GB)
        assert sum(b.recompute_flops for b in blocks) == pytest.approx(1e15)
        assert sum(b.fwd_flops for b in blocks) == pytest.approx(p.forward_flops)
        assert sum(b.opt_params for b in blocks) == pytest.approx(p.n_params)

    def test_head_flops_attach_to_last_block(self, profile_13b_bs32):
        blocks = build_blocks(
            profile_13b_bs32,
            act_to_main_total=0.0,
            act_to_ssd_total=0.0,
            recompute_flops_total=0.0,
        )
        assert blocks[-1].fwd_flops > blocks[0].fwd_flops

    def test_states_offloaded_false_zeroes_traffic(self, profile_13b_bs32):
        blocks = build_blocks(
            profile_13b_bs32,
            act_to_main_total=0.0,
            act_to_ssd_total=0.0,
            recompute_flops_total=0.0,
            states_offloaded=False,
        )
        assert all(b.p16_bytes == 0 and b.grad_bytes == 0 and b.opt_params == 0 for b in blocks)

    def test_schedule_validation(self, profile_13b_bs32):
        with pytest.raises(ValueError):
            simple_schedule(profile_13b_bs32, prefetch_depth=0)
        with pytest.raises(ValueError):
            simple_schedule(profile_13b_bs32, ssd_efficiency=1.5)
        with pytest.raises(ValueError):
            simple_schedule(profile_13b_bs32, sync_overhead_per_block=-1.0)


class TestEngineConservation:
    """Every byte and FLOP the schedule specifies must appear in the trace."""

    def test_gpu_flops_conserved(self, server, profile_13b_bs32):
        schedule = simple_schedule(profile_13b_bs32)
        result = run_iteration(server, schedule)
        gpu_work = result.trace.moved("gpu0")
        expected = (
            profile_13b_bs32.forward_flops
            + profile_13b_bs32.backward_flops
            + schedule.total_recompute_flops
        )
        assert gpu_work == pytest.approx(expected, rel=1e-6)

    def test_gradient_bytes_conserved(self, server, profile_13b_bs32):
        result = run_iteration(server, simple_schedule(profile_13b_bs32))
        grads = result.trace.moved("pcie_g2m0", label_prefix="grad")
        assert grads == pytest.approx(profile_13b_bs32.states.g16, rel=1e-6)

    def test_activation_traffic_conserved(self, server, profile_13b_bs32):
        schedule = simple_schedule(profile_13b_bs32)
        result = run_iteration(server, schedule)
        out = result.trace.moved("pcie_g2m0", label_prefix="act_out")
        back = result.trace.moved("pcie_m2g0", label_prefix="act_back")
        assert out == pytest.approx(schedule.total_swapped, rel=1e-6)
        assert back == pytest.approx(schedule.total_swapped, rel=1e-6)

    def test_optimizer_state_traffic(self, server, profile_13b_bs32):
        result = run_iteration(server, simple_schedule(profile_13b_bs32))
        states = profile_13b_bs32.states
        reads = result.trace.moved("ssd", label_prefix="opt_read")
        writes = result.trace.moved("ssd", label_prefix="opt_write")
        assert reads == pytest.approx(states.optimizer_read, rel=1e-6)
        assert writes == pytest.approx(states.optimizer_write, rel=1e-6)

    def test_cpu_adam_updates_every_parameter(self, server, profile_13b_bs32):
        result = run_iteration(server, simple_schedule(profile_13b_bs32))
        updated = result.trace.moved("cpu_adam")
        assert updated == pytest.approx(profile_13b_bs32.n_params, rel=1e-6)


class TestStageWindows:
    def test_active_mode_has_no_optimizer_stage(self, server, profile_13b_bs32):
        result = run_iteration(server, simple_schedule(profile_13b_bs32))
        assert result.optimizer_time == 0.0
        assert "optimizer" not in result.stage_windows

    def test_deferred_mode_has_optimizer_stage(self, server, profile_13b_bs32):
        schedule = simple_schedule(profile_13b_bs32, mode=OptimizerMode.DEFERRED_CPU)
        result = run_iteration(server, schedule)
        assert result.optimizer_time > 1.0
        assert result.optimizer_fraction > 0.1

    def test_windows_are_contiguous(self, server, profile_13b_bs32):
        schedule = simple_schedule(profile_13b_bs32, mode=OptimizerMode.DEFERRED_CPU)
        result = run_iteration(server, schedule)
        fwd = result.stage_windows["forward"]
        bwd = result.stage_windows["backward"]
        opt = result.stage_windows["optimizer"]
        assert fwd[0] == 0.0
        assert fwd[1] == bwd[0]
        assert bwd[1] == opt[0]
        assert result.iteration_time == pytest.approx(opt[1])

    def test_metrics_are_consistent(self, server, profile_13b_bs32):
        result = run_iteration(server, simple_schedule(profile_13b_bs32))
        tokens = profile_13b_bs32.tokens_per_iteration
        assert result.tokens_per_s == pytest.approx(tokens / result.iteration_time)
        assert 0 < result.gpu_busy_fraction <= 1.0


class TestOptimizerModes:
    """The Fig. 3/7 ordering: optimized <= naive <= deferred iteration time."""

    def test_fig3_ordering(self, server, profile_13b_bs32):
        times = {}
        for mode in (
            OptimizerMode.ACTIVE_OPTIMIZED,
            OptimizerMode.ACTIVE_NAIVE,
            OptimizerMode.DEFERRED_CPU,
        ):
            result = run_iteration(server, simple_schedule(profile_13b_bs32, mode=mode))
            times[mode] = result.iteration_time
        assert times[OptimizerMode.ACTIVE_OPTIMIZED] <= times[OptimizerMode.ACTIVE_NAIVE]
        assert times[OptimizerMode.ACTIVE_OPTIMIZED] < times[OptimizerMode.DEFERRED_CPU]

    def test_serial_deferred_slower_than_pipelined(self, server, profile_13b_bs32):
        pipelined = run_iteration(
            server, simple_schedule(profile_13b_bs32, mode=OptimizerMode.DEFERRED_CPU)
        )
        serial = run_iteration(
            server,
            simple_schedule(profile_13b_bs32, mode=OptimizerMode.DEFERRED_CPU_SERIAL),
        )
        assert serial.optimizer_time > pipelined.optimizer_time

    def test_gpu_optimizer_transfers_states(self, server, profile_13b_bs32):
        schedule = simple_schedule(profile_13b_bs32, mode=OptimizerMode.DEFERRED_GPU)
        result = run_iteration(server, schedule)
        inbound = result.trace.moved("pcie_m2g0", label_prefix="opt_in")
        assert inbound == pytest.approx(profile_13b_bs32.states.optimizer_read, rel=1e-6)


class TestAgreementWithAnalyticModel:
    def test_des_within_25_percent_of_eq15(self, server):
        """The engine realises the schedule Eqs. 1-5 assume, so the two
        must agree up to pipeline fill/drain and FIFO-interleaving effects."""
        policy = RatelPolicy()
        for batch in (16, 32, 64):
            profile = profile_model(llm("13B"), batch)
            plan = policy.plan(profile, server)
            analytic = plan.t_iter
            simulated = policy.simulate(profile, server).iteration_time
            assert simulated == pytest.approx(analytic, rel=0.25)

    def test_efficiency_knob_slows_ssd(self, server, profile_13b_bs32):
        fast = run_iteration(
            server, simple_schedule(profile_13b_bs32, mode=OptimizerMode.DEFERRED_CPU)
        )
        slow = run_iteration(
            server,
            simple_schedule(
                profile_13b_bs32, mode=OptimizerMode.DEFERRED_CPU, ssd_efficiency=0.5
            ),
        )
        assert slow.optimizer_time > fast.optimizer_time

    def test_sync_overhead_stretches_stages(self, server, profile_13b_bs32):
        clean = run_iteration(server, simple_schedule(profile_13b_bs32))
        bubbled = run_iteration(
            server, simple_schedule(profile_13b_bs32, sync_overhead_per_block=0.2)
        )
        n = profile_13b_bs32.n_blocks
        extra = bubbled.iteration_time - clean.iteration_time
        assert extra == pytest.approx(2 * n * 0.2, rel=0.35)
