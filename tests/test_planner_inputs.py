"""Inputs the planner must refuse with a one-line typed error.

Every comparison with NaN is false, so ``<= 0`` range checks let it
through: a NaN GPU rate gave a NaN iteration time, a NaN PCIe rate a
finite but meaningless plan, and an infinite saturation point a
``ZeroDivisionError`` from deep inside the plan.  A grid of fewer than
two points cannot span ``[A_interBlock, A_all]``.
"""

from __future__ import annotations

import math

import pytest

from repro.core import (
    HardwareProfile,
    IterationTimeModel,
    ProfilingError,
    is_convex_on_grid,
    profile_hardware,
    sweep_iteration_time,
)
from repro.hardware import GB, TFLOPS, evaluation_server
from repro.models import llm, profile_model

VALID = {
    "thp_gpu": 165 * TFLOPS,
    "bw_gpu": 21 * GB,
    "bw_s2m": 32 * GB,
    "bw_m2s": 32 * GB,
    "mem_avail_main": 100 * GB,
    "cpu_adam_params_per_s": 1.3e9,
    "gpu_saturation_tokens": 4096.0,
}

REJECTED = [
    *((field, value) for field in ("thp_gpu", "bw_gpu", "cpu_adam_params_per_s")
      for value in (math.nan, math.inf, 0.0, -1.0)),
    *((field, value) for field in ("bw_s2m", "bw_m2s", "gpu_saturation_tokens")
      for value in (math.nan, math.inf, -1.0)),
    ("mem_avail_main", math.nan),
    ("mem_avail_main", -1.0),
]


@pytest.mark.parametrize("field, value", REJECTED)
def test_hardware_profile_rejects(field, value):
    with pytest.raises(ProfilingError) as info:
        HardwareProfile(**{**VALID, field: value})
    assert "\n" not in str(info.value)


@pytest.mark.parametrize(
    "field, value",
    [
        ("mem_avail_main", math.inf),  # the cpuact variant's unbounded budget
        ("mem_avail_main", 0.0),
        ("gpu_saturation_tokens", 0.0),  # full occupancy
        ("bw_s2m", 0.0),  # no SSDs: the planner reports it when SSD traffic appears
        ("bw_m2s", 0.0),
    ],
)
def test_hardware_profile_accepts_boundaries(field, value):
    assert getattr(HardwareProfile(**{**VALID, field: value}), field) == value


def test_profile_hardware_rejects_nan_overhead():
    with pytest.raises(ProfilingError):
        profile_hardware(evaluation_server(), main_memory_overhead=math.nan)


@pytest.fixture(scope="module")
def model() -> IterationTimeModel:
    return IterationTimeModel(profile_model(llm("13B"), 8), HardwareProfile(**VALID))


@pytest.mark.parametrize("n_points", [-1, 0, 1])
@pytest.mark.parametrize("grid", [sweep_iteration_time, is_convex_on_grid])
def test_grid_needs_two_points(model, grid, n_points):
    with pytest.raises(ValueError, match="at least 2 points"):
        grid(model, n_points)


def test_two_point_grid_spans_the_domain(model):
    (lo, _), (hi, _) = sweep_iteration_time(model, 2)
    assert lo == model.model.inter_block_bytes
    assert hi == model.model.activation_bytes_total
    assert is_convex_on_grid(model, 2)
