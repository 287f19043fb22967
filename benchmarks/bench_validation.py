"""Bench: internal consistency — analytic Eq. 1-5 vs the DES engine,
and Algorithm 1 vs brute force over its own candidate points."""

import pytest

from repro.core import run_agreement_report
from repro.hardware import EVALUATION_SERVER

from conftest import run_once, write_bench_json


def test_analytic_vs_engine_agreement(benchmark, emit):
    emit(run_once(benchmark, lambda: run_agreement_report(EVALUATION_SERVER)))


def test_algorithm1_star_quality(benchmark, emit):
    from repro.core import run_star_quality_report
    from repro.hardware import GiB, evaluation_server

    server = evaluation_server(main_memory_bytes=128 * GiB)
    emit(run_once(benchmark, lambda: run_star_quality_report(server)))


#: The grid ``tests/test_plan_golden.py`` pins: 19 configs x 3 batches x
#: 3 servers x 4 Ratel variants = 684 plans.
GOLDEN_BATCHES = (1, 8, 32)
GOLDEN_VARIANTS = ("optimized", "naive", "zero", "cpuact")
GOLDEN_SYNTHETIC_BILLIONS = (0.3, 2, 50, 300, 700)


@pytest.mark.bench_smoke
def test_algorithm1_vs_brute_force():
    """Worst gap between a plan and the best of Algorithm 1's own candidates.

    The candidates are the ``A_interBlock`` floor and every benefit-order
    prefix at or above it.  Algorithm 1 advances only on a relative gain
    of 1e-4, so no gap may exceed that; the curve is also checked for
    convexity on each plan's domain.
    """
    from repro.core import IterationTimeModel, RatelPolicy, is_convex_on_grid
    from repro.core.activation_swap import plan_activation_swapping
    from repro.hardware import RTX_3090, RTX_4080, RTX_4090, GiB, evaluation_server
    from repro.models import DIT_PRESETS, LLM_PRESETS, profile_model, synthetic_llm

    configs = [
        *LLM_PRESETS.values(),
        *DIT_PRESETS.values(),
        *(synthetic_llm(b * 1e9) for b in GOLDEN_SYNTHETIC_BILLIONS),
    ]
    servers = [
        evaluation_server(gpu=RTX_4090, main_memory_bytes=768 * GiB, n_ssds=12),
        evaluation_server(gpu=RTX_3090, main_memory_bytes=256 * GiB, n_ssds=6),
        evaluation_server(gpu=RTX_4080, main_memory_bytes=128 * GiB, n_ssds=1),
    ]
    worst_gap, worst_at, plans, non_convex = 0.0, "", 0, 0
    for variant in GOLDEN_VARIANTS:
        policy = RatelPolicy(variant)
        for config in configs:
            for batch in GOLDEN_BATCHES:
                profile = profile_model(config, batch)
                for server in servers:
                    model = IterationTimeModel(profile, policy.hardware_profile(profile, server))
                    plan = plan_activation_swapping(model)
                    floor = profile.inter_block_bytes
                    a_g2m, _spill, t_iter = model.prefix_curve()
                    best = min(model.iteration_time(floor), t_iter[a_g2m >= floor].min())
                    gap = plan.t_iter / best - 1
                    if gap > worst_gap:
                        worst_gap = gap
                        worst_at = f"{variant}/{config.name}/b{batch}@{server.gpu.name}"
                    plans += 1
                    non_convex += not is_convex_on_grid(model)

    write_bench_json(
        "validation",
        {
            "algorithm1_vs_brute_force": {
                "plans": plans,
                "worst_gap": worst_gap,
                "worst_at": worst_at,
                "bound": 1e-4,
                "non_convex": non_convex,
            }
        },
    )
    print(f"\nAlgorithm 1 vs brute force: {plans} plans, worst gap {worst_gap:.3g} ({worst_at})")
    assert plans == 684
    assert worst_gap <= 1e-4
    assert non_convex == 0
