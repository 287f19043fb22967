"""Tests for the analytic Eq. 1-8 iteration-time model."""

from __future__ import annotations

import math

import pytest
from hypothesis import given, settings, strategies as st

from repro.core import (
    HardwareProfile,
    IterationTimeModel,
    ProfilingError,
    is_convex_on_grid,
    profile_hardware,
)
from repro.hardware import GB, TFLOPS, evaluation_server, GiB
from repro.models import llm, profile_model


def make_model(batch=32, name="13B", mem_avail=200 * GB, **overrides) -> IterationTimeModel:
    hw = HardwareProfile(
        thp_gpu=overrides.get("thp_gpu", 165 * TFLOPS),
        bw_gpu=overrides.get("bw_gpu", 21 * GB),
        bw_s2m=overrides.get("bw_s2m", 32 * GB),
        bw_m2s=overrides.get("bw_m2s", 32 * GB),
        mem_avail_main=mem_avail,
        cpu_adam_params_per_s=overrides.get("cpu", 1.3e9),
    )
    return IterationTimeModel(profile_model(llm(name), batch), hw)


class TestProfiling:
    def test_profile_hardware_reads_spec(self, server):
        hw = profile_hardware(server)
        assert hw.thp_gpu == server.gpu.peak_fp16_flops
        assert hw.bw_gpu == pytest.approx(21 * GB)
        assert hw.bw_s2m == pytest.approx(32 * GB)
        assert hw.mem_avail_main == pytest.approx(server.usable_main_memory_bytes)

    def test_overhead_reduces_activation_budget(self, server):
        hw = profile_hardware(server, main_memory_overhead=100 * GB)
        assert hw.mem_avail_main == pytest.approx(
            server.usable_main_memory_bytes - 100 * GB
        )

    def test_excessive_overhead_clamps_to_zero(self, server):
        hw = profile_hardware(server, main_memory_overhead=10_000 * GB)
        assert hw.mem_avail_main == 0.0

    def test_negative_overhead_rejected(self, server):
        with pytest.raises(ProfilingError):
            profile_hardware(server, main_memory_overhead=-1.0)

    def test_invalid_profile_rejected(self):
        with pytest.raises(ProfilingError):
            HardwareProfile(0, 1, 1, 1, 0, 1)


class TestSpill:
    def test_no_spill_under_budget(self):
        model = make_model(mem_avail=500 * GB)
        assert model.a_to_ssd(100 * GB) == 0.0

    def test_spill_is_excess_over_budget(self):
        model = make_model(mem_avail=50 * GB)
        assert model.a_to_ssd(80 * GB) == pytest.approx(30 * GB)

    def test_negative_a_rejected(self):
        with pytest.raises(ValueError):
            make_model().a_to_ssd(-1.0)

    def test_a_beyond_total_rejected(self):
        model = make_model()
        with pytest.raises(ValueError):
            model.iteration_time(model.model.activation_bytes_total * 2)


class TestNonFinite:
    """Every comparison with NaN is false, so range checks alone let it pass."""

    @pytest.fixture(scope="class")
    def model(self):
        server = evaluation_server(main_memory_bytes=256 * GiB, n_ssds=6)
        return IterationTimeModel(profile_model(llm("13B"), 8), profile_hardware(server))

    @pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
    @pytest.mark.parametrize(
        "entry", ["recompute_flops_for", "iteration_time", "a_to_ssd", "estimate"]
    )
    def test_rejected_with_one_line_error(self, model, entry, value):
        target = model.model if entry == "recompute_flops_for" else model
        with pytest.raises(ValueError, match="must be finite") as info:
            getattr(target, entry)(value)
        assert "\n" not in str(info.value)


class TestEquations:
    def test_forward_components_match_eq4(self):
        """Hand-evaluate Eq. 4 for a known point."""
        model = make_model(batch=32, mem_avail=100 * GB)
        a = 120 * GB
        stage = model.forward_time(a)
        p16 = model.model.states.p16
        assert stage.components["pcie_g2m"] == pytest.approx(a / (21 * GB))
        assert stage.components["pcie_m2g"] == pytest.approx(p16 / (21 * GB))
        spill = a - 100 * GB
        assert stage.components["ssd"] == pytest.approx(
            p16 / (32 * GB) + spill / (32 * GB)
        )
        assert stage.total == max(stage.components.values())

    def test_backward_components_match_eq5(self):
        model = make_model(batch=32, mem_avail=100 * GB)
        a = model.model.inter_block_bytes
        stage = model.backward_time(a)
        states = model.model.states
        assert stage.components["pcie_g2m"] == pytest.approx(states.g16 / (21 * GB))
        assert stage.components["pcie_m2g"] == pytest.approx(
            (states.p16 + a) / (21 * GB)
        )
        # 14P read (12P states + 2P P16) and 14P written.
        assert stage.components["ssd"] == pytest.approx(
            (states.optimizer_read + states.p16) / (32 * GB)
            + states.optimizer_write / (32 * GB)
        )

    def test_iteration_is_sum_of_stages(self):
        model = make_model()
        a = model.model.inter_block_bytes
        assert model.iteration_time(a) == pytest.approx(
            model.forward_time(a).total + model.backward_time(a).total
        )

    def test_cpu_adam_shorter_than_state_io(self):
        """The paper's §IV-D assumption must hold on the calibrated server."""
        model = make_model(batch=32)
        stage = model.backward_time(model.model.inter_block_bytes)
        assert stage.components["cpu_adam"] < stage.components["ssd"]

    def test_occupancy_discounts_gpu_time(self):
        small = make_model(batch=1)
        large = make_model(batch=64)
        assert small.effective_thp < large.effective_thp

    def test_stage_bottleneck_and_utilization(self):
        model = make_model(batch=64)
        stage = model.backward_time(model.model.inter_block_bytes)
        assert stage.components[stage.bottleneck] == pytest.approx(stage.total)
        assert stage.utilization(stage.bottleneck) == pytest.approx(1.0)

    def test_no_ssd_server_rejects_ssd_traffic(self):
        model = make_model()
        object.__setattr__(model.hardware, "bw_s2m", 0.0)
        with pytest.raises(ValueError):
            model.backward_time(model.model.inter_block_bytes)


class TestConvexity:
    """The paper's §IV-D proof, checked numerically (Theorems 1-4)."""

    def test_paper_configuration_is_convex(self):
        assert is_convex_on_grid(make_model(batch=32))

    @given(
        batch=st.sampled_from([8, 16, 24, 32, 48, 64]),
        mem_gb=st.floats(min_value=10, max_value=800),
        bw_gpu=st.floats(min_value=5, max_value=64),
        bw_ssd=st.floats(min_value=2, max_value=64),
        thp=st.floats(min_value=30, max_value=400),
    )
    @settings(max_examples=40, deadline=None)
    def test_convex_for_arbitrary_hardware(self, batch, mem_gb, bw_gpu, bw_ssd, thp):
        model = make_model(
            batch=batch,
            mem_avail=mem_gb * GB,
            bw_gpu=bw_gpu * GB,
            bw_s2m=bw_ssd * GB,
            bw_m2s=bw_ssd * GB,
            thp_gpu=thp * TFLOPS,
        )
        assert is_convex_on_grid(model)

    def test_convex_for_other_models(self):
        for name in ("6B", "30B", "70B"):
            assert is_convex_on_grid(make_model(batch=16, name=name))
