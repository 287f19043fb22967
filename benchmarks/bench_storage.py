"""Bench: the functional storage hierarchy's real disk-spill cost.

Unlike the simulation benches, this measures actual work: moving a
tensor host -> NVMe writes its payload, at its storage dtype, into the
manager's spill arena, and moving it back reads it and checks its CRC32.
Three timings, each the minimum over repeats:

* a host -> NVMe -> host round trip at 1, 4, 16 and 64 KiB and 1 MiB,
  in fp16 and fp32, with one other tensor held spilled (a training
  step's steady state: the other parameters' states stay on NVMe);
* the same round trip for a 16 MB fp16 tensor;
* one ``CPUAdam.step_param`` over 1M parameters with NVMe states.

The numbers characterise the test machine's page cache and disk, not
the paper's SSD array: they show the spill path is real and catch
regressions in the storage manager.  Results land in
``benchmarks/results/BENCH_storage.json``.  Its ``before`` block is this
file run at 334937e, which wrote one ``.npy`` file per spill, on the
same host; the bench uses only APIs both versions have.  Runs under the
``bench_smoke`` marker.
"""

from __future__ import annotations

import os
import platform
import time

import numpy as np
import pytest

from repro.runtime import HOST, NVME, CPUAdam, StorageManager, Tensor

from conftest import write_bench_json

GB = 10**9
SIZES = {"1KiB": 1 << 10, "4KiB": 4 << 10, "16KiB": 16 << 10, "64KiB": 64 << 10, "1MiB": 1 << 20}
WIDTHS = {"fp16": 2, "fp32": 4}
REPEATS = 100
LARGE_REPEATS = 5


def _host() -> str:
    return f"{platform.machine()}, {os.cpu_count()} CPUs, Python {platform.python_version()}"


def _min_roundtrip_us(manager: StorageManager, stored, repeats: int) -> float:
    best = float("inf")
    for _ in range(repeats):
        started = time.perf_counter()
        manager.move(stored, NVME)
        manager.move(stored, HOST)
        best = min(best, time.perf_counter() - started)
    return best * 1e6


def _roundtrip_us(manager, rng, name: str, nbytes: int, itemsize: int, repeats: int) -> float:
    original = rng.normal(size=(nbytes // itemsize,)).astype(np.float32)
    stored = manager.put(name, original, HOST, itemsize=itemsize)
    us = _min_roundtrip_us(manager, stored, repeats)
    expected = original.astype(np.float16) if itemsize == 2 else original
    np.testing.assert_array_equal(stored.data(), expected)
    manager.drop(stored)
    return us


@pytest.mark.bench_smoke
def test_spill_roundtrip():
    rng = np.random.default_rng(0)
    manager = StorageManager(GB, GB, GB)
    try:
        manager.put("held", rng.normal(size=(4096,)), NVME)
        roundtrip_us = {
            width: {
                label: _roundtrip_us(manager, rng, f"{width}/{label}", nbytes, itemsize, REPEATS)
                for label, nbytes in SIZES.items()
            }
            for width, itemsize in WIDTHS.items()
        }
        large_us = _roundtrip_us(manager, rng, "16MB", 16 * 10**6, 2, LARGE_REPEATS)
    finally:
        manager.close()
    write_bench_json(
        "storage",
        {
            "host": _host(),
            "roundtrip_us": roundtrip_us,
            "roundtrip_16mb_fp16_us": large_us,
        },
    )
    print(
        "\nspill round trip (fp16): "
        + ", ".join(f"{label} {us:.0f} us" for label, us in roundtrip_us["fp16"].items())
        + f", 16 MB {large_us / 1e3:.1f} ms"
    )


@pytest.mark.bench_smoke
def test_cpu_adam_step_1m_params():
    rng = np.random.default_rng(0)
    n = 10**6
    manager = StorageManager(GB, GB, GB)
    try:
        param = Tensor(rng.normal(size=(n,)).astype(np.float32), requires_grad=True)
        optimizer = CPUAdam([("w", param)], manager, states_tier=NVME)
        grad = rng.normal(size=(n,)).astype(np.float32)
        best = float("inf")
        for _ in range(LARGE_REPEATS):
            started = time.perf_counter()
            optimizer.step_param("w", grad)
            best = min(best, time.perf_counter() - started)
    finally:
        manager.close()
    write_bench_json("storage", {"host": _host(), "cpu_adam_1m_params_us": best * 1e6})
    print(f"\nCPU Adam step, 1M params, NVMe states: {best * 1e3:.1f} ms")
