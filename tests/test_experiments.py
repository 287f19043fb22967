"""Integration tests: every experiment harness reproduces its paper shape."""

from __future__ import annotations

import pytest

from repro.experiments import (
    fig1_breakdown,
    fig2_motivation,
    fig5_throughput,
    fig6_max_model,
    fig7_gradient_offload,
    fig8_act_to_ssd,
    fig9_act_strategy,
    fig10_ssd_scaling,
    fig11_multi_gpu,
    fig12_diffusion,
    fig13_cost,
)
from repro.experiments.common import is_failed


def last(values):
    return values[-1]


class TestFig1:
    @pytest.fixture(scope="class")
    def result(self):
        return fig1_breakdown.run()

    def test_three_systems(self, result):
        assert [row[0] for row in result.rows] == ["ZeRO-Infinity", "G10", "Ratel"]

    def test_ratel_has_no_optimizer_stage(self, result):
        by_name = {row[0]: row for row in result.rows}
        assert by_name["Ratel"][3] == 0.0
        assert by_name["ZeRO-Infinity"][3] > 10
        assert by_name["G10"][3] > 5

    def test_ratel_fastest_iteration(self, result):
        iters = {row[0]: row[4] for row in result.rows}
        assert iters["Ratel"] < iters["G10"] < iters["ZeRO-Infinity"]

    def test_zero_infinity_near_paper_breakdown(self, result):
        row = next(r for r in result.rows if r[0] == "ZeRO-Infinity")
        assert row[1] == pytest.approx(14, rel=0.35)  # forward
        assert row[2] == pytest.approx(26, rel=0.35)  # backward
        assert row[3] == pytest.approx(23, rel=0.35)  # optimizer

    def test_renders(self, result):
        text = result.render()
        assert "fig1" in text and "Ratel" in text


class TestFig2:
    def test_fig2a_flashneuron_flat_and_small(self):
        result = fig2_motivation.run_fig2a()
        flash = result.column("FlashNeuron")
        assert max(flash) < 2.0
        assert min(flash) == max(flash)

    def test_fig2a_zero_infinity_grows_with_memory(self):
        result = fig2_motivation.run_fig2a()
        zero = result.column("ZeRO-Infinity")
        assert zero == sorted(zero)
        assert zero[-1] < 200  # paper: <= 135B even at 768 GB

    def test_fig2b_gpu_busy_low(self):
        result = fig2_motivation.run_fig2b()
        for row in result.rows:
            for value in row[1:]:
                if not is_failed(value):
                    assert value < 60.0

    def test_fig2c_optimizer_share_30_to_60(self):
        result = fig2_motivation.run_fig2c()
        batch_8_row = next(row for row in result.rows if row[0] == 8)
        for value in batch_8_row[1:]:
            if not is_failed(value):
                assert 30.0 < value < 65.0


class TestFig5:
    @pytest.fixture(scope="class")
    def fig5a(self):
        return fig5_throughput.run_fig5a()

    def test_ratel_wins_every_batch(self, fig5a):
        ratel = fig5a.column("Ratel")
        for name in ("Colossal-AI", "ZeRO-Infinity", "ZeRO-Offload"):
            for ours, theirs in zip(ratel, fig5a.column(name)):
                if not is_failed(theirs):
                    assert ours > theirs

    def test_paper_speedup_ratios_at_best_batch(self, fig5a):
        """>= 2.32x / 3.46x / 8.02x in the paper; we require >= 2/2.5/4."""
        ratel = max(fig5a.column("Ratel"))
        assert ratel / max(v for v in fig5a.column("ZeRO-Offload") if not is_failed(v)) > 1.6
        assert ratel / max(v for v in fig5a.column("ZeRO-Infinity") if not is_failed(v)) > 1.8
        assert ratel / max(v for v in fig5a.column("Colossal-AI") if not is_failed(v)) > 4.0

    def test_fig5b_3090_same_ordering(self):
        result = fig5_throughput.run_fig5b()
        row32 = next(row for row in result.rows if row[0] == 32)
        colossal, zero_inf, zero_off, ratel = row32[1:]
        assert ratel > zero_off > zero_inf > colossal

    def test_fig5c_ratel_near_peak_below_70b(self):
        result = fig5_throughput.run_fig5c()
        peak = result.rows[0][-1]
        for row in result.rows:
            if row[0] in ("13B", "30B", "70B"):
                ratel = row[3]
                assert ratel > 0.85 * peak

    def test_fig5c_baselines_well_below_peak(self):
        result = fig5_throughput.run_fig5c()
        peak = result.rows[0][-1]
        for row in result.rows:
            zero_inf = row[1]
            if not is_failed(zero_inf):
                assert zero_inf < 0.6 * peak


class TestFig6:
    @pytest.fixture(scope="class")
    def fig6a(self):
        return fig6_max_model.run_fig6a()

    def test_ratel_dominates_every_point(self, fig6a):
        ratel = fig6a.column("Ratel")
        for name in ("FlashNeuron", "Colossal-AI", "ZeRO-Infinity", "ZeRO-Offload"):
            for ours, theirs in zip(ratel, fig6a.column(name)):
                assert ours > theirs

    def test_headline_276b_at_768gb(self, fig6a):
        at_768 = fig6a.rows[-1]
        assert at_768[0] == 768
        ratel = at_768[-1]
        assert ratel >= 276

    def test_175b_at_256gb(self, fig6a):
        at_256 = next(row for row in fig6a.rows if row[0] == 256)
        assert at_256[-1] >= 175

    def test_4080_still_reaches_175b_at_256gb(self):
        fig6b = fig6_max_model.run_fig6b()
        at_256 = next(row for row in fig6b.rows if row[0] == 256)
        assert at_256[-1] >= 175


class TestFig7:
    def test_optimized_wins_at_large_batch(self):
        result = fig7_gradient_offload.run_fig7a()
        row64 = next(row for row in result.rows if row[0] == 64)
        zero, naive, optimized = row64[1:]
        assert optimized > naive
        assert optimized > 1.2 * zero

    def test_gain_shrinks_at_small_batch(self):
        """Paper: little overlap opportunity at batch 8."""
        result = fig7_gradient_offload.run_fig7a()
        row8 = next(row for row in result.rows if row[0] == 8)
        row64 = next(row for row in result.rows if row[0] == 64)
        gain8 = row8[3] / row8[1]
        gain64 = row64[3] / row64[1]
        assert gain64 > gain8 * 0.8

    def test_175b_panel_runs(self):
        result = fig7_gradient_offload.run_fig7b()
        assert len(result.rows) == 2
        for row in result.rows:
            assert row[3] > 0


class TestFig8:
    def test_ssd_swapping_extends_frontier(self):
        result = fig8_act_to_ssd.run_panel(128)
        for row in result.rows:
            batch, cpuact, optimized, ratio = row
            assert optimized >= cpuact
        ratios = result.column("ratio")
        assert max(ratios) >= 2.0  # paper: 2x-5x


class TestFig9:
    @pytest.fixture(scope="class")
    def fig9(self):
        return fig9_act_strategy.run_fig9a()

    def test_checkmate_fails_at_128(self, fig9):
        _throughput, batches = fig9
        row128 = next(row for row in batches.rows if row[0] == 128)
        assert "Failed" in row128

    def test_ratel_and_g10_keep_batch_32(self, fig9):
        _throughput, batches = fig9
        for row in batches.rows:
            assert row[3] == 32  # Ratel+G10
            assert row[5] == 32  # Ratel

    def test_ratel_steady_across_memory(self, fig9):
        throughput, _batches = fig9
        ratel = throughput.column("Ratel")
        assert min(ratel) > 0.85 * max(ratel)

    def test_ratel_best_at_128gb(self, fig9):
        throughput, _batches = fig9
        row128 = next(row for row in throughput.rows if row[0] == 128)
        ratel = row128[-1]
        others = [v for v in row128[1:-1] if not is_failed(v)]
        assert ratel > max(others)

    def test_fig9b_curves_and_stars(self):
        result = fig9_act_strategy.run_fig9b(n_points=9)
        assert len(result.rows) == 9
        # every curve positive; larger batch = larger times
        for row in result.rows:
            assert row[1] < row[2] < row[3] < row[4]


class TestFig10:
    def test_near_linear_then_saturating(self):
        result = fig10_ssd_scaling.run_fig10a()
        ratel = result.column("Ratel")
        n = result.column("n_ssds")
        # 1 -> 3 SSDs nearly triples throughput
        assert ratel[n.index(3)] > 2.2 * ratel[n.index(1)]
        # 6 -> 12 gains little
        assert ratel[n.index(12)] < 1.35 * ratel[n.index(6)]

    def test_ratel_beats_zero_everywhere(self):
        result = fig10_ssd_scaling.run_fig10a()
        for row in result.rows:
            assert row[2] > row[1]

    def test_larger_batch_needs_fewer_ssds(self):
        result = fig10_ssd_scaling.run_fig10b()
        by_n = {row[0]: row for row in result.rows}
        # At 3 SSDs, bigger batches achieve a larger fraction of their
        # 12-SSD throughput.
        frac32 = by_n[3][1] / by_n[12][1]
        frac64 = by_n[3][3] / by_n[12][3]
        assert frac64 > frac32


class TestFig11:
    def test_ratel_beats_zero_on_all_panels(self):
        for panel in fig11_multi_gpu.run():
            for row in panel.rows:
                zero, ratel = row[1], row[2]
                if not is_failed(zero) and not is_failed(ratel):
                    assert ratel > zero


class TestFig12:
    @pytest.fixture(scope="class")
    def result(self):
        return fig12_diffusion.run()

    def test_fastdit_oom_past_1_4b(self, result):
        for row in result.rows:
            if row[0] in ("10B", "20B", "40B"):
                assert row[2] == "OOM"

    def test_ratel_trains_everything(self, result):
        for row in result.rows:
            assert not is_failed(row[3])

    def test_ratel_wins_where_both_fit(self, result):
        for row in result.rows:
            if row[2] != "OOM":
                assert row[3] > row[1]


class TestFig13:
    @pytest.fixture(scope="class")
    def result(self):
        return fig13_cost.run()

    def test_peak_ratio_near_paper(self, result):
        """Paper: at most 2.17x over the DGX; we accept 1.5x-3.5x."""
        ratios = [row[3] for row in result.rows if not is_failed(row[3])]
        assert 1.5 < max(ratios) < 3.5

    def test_monotone_then_flattening(self, result):
        ce = [row[1] for row in result.rows if not is_failed(row[1])]
        assert ce[0] < ce[-1]
        n = result.column("n_ssds")
        gain_6_to_12 = ce[n.index(12)] / ce[n.index(6)]
        assert gain_6_to_12 < 1.25  # knee: more SSDs stop paying off
