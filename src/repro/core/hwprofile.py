"""Hardware-aware profiling (paper §IV-B).

The profiling stage gathers everything the holistic swapping manager
needs: peak GPU throughput ``THP_G``, PCIe bandwidths ``BW_G`` /
``BW_S2M`` / ``BW_M2S``, the minimum unallocated main memory
``MEM^avail_M``, and per-layer FLOPs/sizes (the latter live on
:class:`repro.models.ModelProfile`).

On the real system these numbers come from a first instrumented
iteration; on our simulated server they derive from the
:class:`~repro.hardware.ServerSpec` directly, so :func:`profile_hardware`
plays the role of that first iteration.  ``overhead`` describes the main
memory the executing policy itself occupies (pinned I/O buffers,
optimizer windows), which determines how much is left for activations.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.hardware.spec import ServerSpec


_INF = float("inf")


class ProfilingError(ValueError):
    """Raised when profiling inputs are inconsistent."""


@dataclass(frozen=True)
class HardwareProfile:
    """The quantities in the paper's Table I that describe the machine.

    ``mem_avail_main`` is MEM^avail_M: main-memory bytes left for holding
    swapped activations after the policy's own buffers.  ``bw_s2m`` and
    ``bw_m2s`` are the aggregate SSD-array rates; ``bw_gpu`` is the
    per-direction GPU<->host PCIe rate.
    """

    thp_gpu: float
    bw_gpu: float
    bw_s2m: float
    bw_m2s: float
    mem_avail_main: float
    cpu_adam_params_per_s: float
    gpu_saturation_tokens: float = 4096.0

    def __post_init__(self) -> None:
        # Chained comparisons are false for NaN, so each check rejects it too.
        if not (0 < self.thp_gpu < _INF and 0 < self.bw_gpu < _INF):
            raise ProfilingError(
                "GPU throughput and PCIe bandwidth must be finite and positive, "
                f"got {self.thp_gpu} and {self.bw_gpu}"
            )
        if not (0 <= self.bw_s2m < _INF and 0 <= self.bw_m2s < _INF):
            raise ProfilingError(
                "SSD bandwidths must be finite and non-negative, "
                f"got {self.bw_s2m} and {self.bw_m2s}"
            )
        # +inf is an unbounded activation budget (the cpuact variant's).
        if not 0 <= self.mem_avail_main <= _INF:
            raise ProfilingError(
                f"available main memory must be non-negative, got {self.mem_avail_main}"
            )
        if not 0 < self.cpu_adam_params_per_s < _INF:
            raise ProfilingError(
                "CPU Adam throughput must be finite and positive, "
                f"got {self.cpu_adam_params_per_s}"
            )
        # 0 means kernels run at full occupancy from the first token.
        if not 0 <= self.gpu_saturation_tokens < _INF:
            raise ProfilingError(
                "GPU saturation tokens must be finite and non-negative, "
                f"got {self.gpu_saturation_tokens}"
            )


def profile_hardware(
    server: ServerSpec, *, main_memory_overhead: float = 0.0
) -> HardwareProfile:
    """Derive a :class:`HardwareProfile` from a server spec.

    ``main_memory_overhead`` is the policy's resident main-memory use
    (pinned staging, optimizer in-flight window); what remains of the
    usable DRAM becomes ``mem_avail_main``.  A policy whose overhead
    already exceeds usable DRAM is infeasible — callers detect that via
    the capacity planner, so here the activation budget just clamps at 0.
    """
    if not main_memory_overhead >= 0:
        raise ProfilingError(
            f"main memory overhead must be non-negative, got {main_memory_overhead}"
        )
    available = max(0.0, server.usable_main_memory_bytes - main_memory_overhead)
    return HardwareProfile(
        thp_gpu=server.gpu.peak_fp16_flops,
        bw_gpu=server.gpu_link.bandwidth_per_dir,
        bw_s2m=server.ssd_read_bw,
        bw_m2s=server.ssd_write_bw,
        mem_avail_main=available,
        cpu_adam_params_per_s=server.cpu.adam_params_per_s,
        gpu_saturation_tokens=server.gpu.saturation_tokens,
    )
