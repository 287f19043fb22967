"""Bench: the functional runtime's training step, lane by lane.

Not a paper figure — this times the NumPy substrate itself: a full
forward/backward/active-optimizer iteration of the small GPT that
perfbench's ``train_step`` workload runs, with checkpointed blocks,
NVMe-tier states and CPU-Adam handlers that update each block's
parameters (and the ones outside every block) at once.  After two
warm-up steps it observes STEPS more, each under its own
:func:`repro.obs.observe` block with a metrics registry, and records for
every ``rt_*`` lane the busy milliseconds (``rt_busy_seconds_total``),
minimum over the steps, plus the storage moves per step (spans on the
tier-link lanes), the CPU-Adam updates per step (spans on
``rt_cpu_adam``) and the autograd nodes per step (``Tensor._make_node``
calls that link a node, counted over the untimed warm-up steps).

It also keeps the float32 gradients the last warm-up step hands
:func:`~repro.runtime.round_fp16` (one array per optimizer group) and
records the share of their elements in fp16's subnormal range (0 <
|x| < 2**-14, where NumPy's float32 -> float16 cast is slow), and the
milliseconds per step, minimum over REPEATS passes, of ``round_fp16``
and of NumPy's ``astype(float16).astype(float32)`` over the same
arrays.  Likewise it keeps the arrays the last warm-up step reduces
over their last axis (softmax, LayerNorm and cross-entropy rows) and
records their count, the milliseconds per step of NumPy's
``sum(axis=-1)`` and of the runtime's product with ones over them, and
each one's largest deviation from a float64 sum, in units of the row's
sum of magnitudes (the scale float32 rounding error grows with).

Lanes nest, so they do not add up to ``rt_step``: a tier move's lane
includes the spill or load it runs on ``rt_ssd``, and ``rt_cpu_adam``
includes the moves of the group's states.  Results land in
``benchmarks/results/BENCH_runtime.json``; its ``before`` block is this
file run at 334937e on the same host.  Runs under the ``bench_smoke``
marker.
"""

from __future__ import annotations

import os
import platform
import time

import numpy as np
import pytest

from repro.obs import RT_CPU_ADAM, MetricsRegistry, link_lane, observe
from repro.runtime import (
    GPU,
    HOST,
    NVME,
    CrossEntropyLoss,
    GPTModel,
    RatelOptimizer,
    Tensor,
    ratel_hook,
    ratel_init,
    round_fp16,
)
from repro.runtime import offload, tensor

from conftest import write_bench_json

GB = 1e9
WARMUP, STEPS = 2, 5
REPEATS = 50
LINK_LANES = {
    link_lane(source, dest)
    for source in (GPU, HOST, NVME)
    for dest in (GPU, HOST, NVME)
    if source != dest
}


def _lane_totals(registry: MetricsRegistry, name: str) -> dict[str, float]:
    return {
        sample.labels["lane"]: sample.value
        for sample in registry.snapshot().samples
        if sample.name == name
    }


def _counting_nodes(built: list):
    """``Tensor._make_node`` that appends each tensor it links to ``built``."""
    make_node = Tensor._make_node

    def counting(tensor, parents, backward):
        make_node(tensor, parents, backward)
        if tensor._backward is backward:
            built.append(tensor)

    return counting


def _capturing_rounding(arrays: list):
    """``round_fp16`` that appends a copy of each input to ``arrays``."""

    def capturing(x, what, out=None):
        arrays.append(x.copy())
        return round_fp16(x, what, out=out)

    return capturing


def _capturing_row_sums(arrays: list):
    """``tensor._row_sum`` that appends a copy of each input to ``arrays``."""
    row_sum = tensor._row_sum

    def capturing(x):
        arrays.append(x.copy())
        return row_sum(x)

    return capturing


def _min_ms(fn, arrays: list) -> float:
    """Fastest of REPEATS passes of ``fn`` over ``arrays``, in ms."""
    best = float("inf")
    for _ in range(REPEATS):
        started = time.perf_counter()
        for array in arrays:
            fn(array)
        best = min(best, time.perf_counter() - started)
    return best * 1e3


def _numpy_cast(x: np.ndarray) -> np.ndarray:
    return x.astype(np.float16).astype(np.float32)


def _numpy_row_sum(x: np.ndarray) -> np.ndarray:
    return x.sum(axis=-1, keepdims=True)


def _row_sum_error(fn, arrays: list) -> float:
    """Largest deviation of ``fn`` from a float64 row sum, per row magnitude."""
    worst = 0.0
    for x in arrays:
        wide = x.astype(np.float64)
        error = np.abs(fn(x) - wide.sum(axis=-1, keepdims=True))
        magnitude = np.abs(wide).sum(axis=-1, keepdims=True)
        worst = max(worst, float(np.max(error / np.maximum(magnitude, np.finfo(float).tiny))))
    return worst


@pytest.mark.bench_smoke
def test_runtime_train_step(monkeypatch):
    rng = np.random.default_rng(0)
    loss_fn = CrossEntropyLoss()
    busy_ms: dict[str, float] = {}
    moves = set()
    adam_updates = set()
    with ratel_init(gpu_capacity=GB, host_capacity=GB, nvme_capacity=8 * GB):
        model = GPTModel(101, 32, 4, 4, 32, np.random.default_rng(1))
        runtime = ratel_hook(model)
        RatelOptimizer(model, runtime, lr=1e-3)
        ids = rng.integers(0, 101, size=(8, 32))
        targets = np.roll(ids, -1, axis=1)

        def step() -> float:
            return runtime.train_step(lambda: loss_fn(model(ids), targets))

        nodes = set()
        row_sums = set()
        for _ in range(WARMUP):
            built: list = []
            gradients: list = []
            reduced: list = []
            with monkeypatch.context() as patch:
                patch.setattr(Tensor, "_make_node", _counting_nodes(built))
                patch.setattr(offload, "round_fp16", _capturing_rounding(gradients))
                patch.setattr(tensor, "_row_sum", _capturing_row_sums(reduced))
                step()
            nodes.add(len(built))
            row_sums.add(len(reduced))
        for _ in range(STEPS):
            registry = MetricsRegistry()
            with observe(registry=registry):
                assert step() > 0
            for lane, seconds in _lane_totals(registry, "rt_busy_seconds_total").items():
                busy_ms[lane] = min(busy_ms.get(lane, float("inf")), seconds * 1e3)
            spans = _lane_totals(registry, "rt_spans_total")
            moves.add(sum(count for lane, count in spans.items() if lane in LINK_LANES))
            adam_updates.add(spans[RT_CPU_ADAM])
    assert len(moves) == 1, f"moves per step differ between steps: {sorted(moves)}"
    assert len(adam_updates) == 1, f"Adam updates differ between steps: {sorted(adam_updates)}"
    assert len(nodes) == 1, f"autograd nodes differ between steps: {sorted(nodes)}"
    assert len(row_sums) == 1, f"row reductions differ between steps: {sorted(row_sums)}"
    assert {len(gradients)} == adam_updates, "one rounded gradient per group update"
    for array in gradients:
        np.testing.assert_array_equal(
            round_fp16(array, "gradient").view(np.uint32), _numpy_cast(array).view(np.uint32)
        )
    flat = np.concatenate(gradients)
    magnitude = np.abs(flat)
    rounding = {
        "gradient_elements_per_step": int(flat.size),
        "subnormal_share": float(np.mean((magnitude > 0) & (magnitude < 2.0**-14))),
        "round_fp16_ms_per_step": _min_ms(lambda x: round_fp16(x, "gradient"), gradients),
        "numpy_cast_ms_per_step": _min_ms(_numpy_cast, gradients),
        "repeats": REPEATS,
    }
    reductions = {
        "arrays_per_step": len(reduced),
        "elements_per_step": int(sum(x.size for x in reduced)),
        "numpy_sum_ms_per_step": _min_ms(_numpy_row_sum, reduced),
        "matvec_ms_per_step": _min_ms(tensor._row_sum, reduced),
        "numpy_sum_max_error": _row_sum_error(_numpy_row_sum, reduced),
        "matvec_max_error": _row_sum_error(tensor._row_sum, reduced),
        "repeats": REPEATS,
    }
    write_bench_json(
        "runtime",
        {
            "host": f"{platform.machine()}, {os.cpu_count()} CPUs, Python {platform.python_version()}",
            "busy_ms": busy_ms,
            "moves_per_step": moves.pop(),
            "adam_updates_per_step": adam_updates.pop(),
            "autograd_nodes_per_step": nodes.pop(),
            "fp16_rounding": rounding,
            "row_reductions": reductions,
        },
    )
    print(
        "\ntrain step busy ms: "
        + ", ".join(f"{lane} {ms:.1f}" for lane, ms in sorted(busy_ms.items()))
    )
    print(
        f"fp16 rounding of {rounding['gradient_elements_per_step']} gradient elements per "
        f"step ({rounding['subnormal_share']:.1%} subnormal): round_fp16 "
        f"{rounding['round_fp16_ms_per_step']:.3f} ms, NumPy's cast "
        f"{rounding['numpy_cast_ms_per_step']:.3f} ms"
    )
    print(
        f"row sums of {reductions['arrays_per_step']} arrays per step "
        f"({reductions['elements_per_step']} elements): NumPy's sum "
        f"{reductions['numpy_sum_ms_per_step']:.3f} ms, product with ones "
        f"{reductions['matvec_ms_per_step']:.3f} ms; largest errors "
        f"{reductions['numpy_sum_max_error']:.1e} and {reductions['matvec_max_error']:.1e}"
    )
