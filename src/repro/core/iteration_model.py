"""Ratel's analytic iteration-time model (paper Eqs. 1-8).

Given the amount of activations swapped out of the GPU, ``A_G2M``, the
model predicts the forward and backward stage times as the maximum over
the four contended resources — GPU compute, GPU->host PCIe, host->GPU
PCIe, and the (simplex) SSD array — assuming compute and transfers are
fully overlapped, which is what Ratel's pipelined engine achieves.

With active gradient offloading (§IV-C), the optimizer runs inside the
backward stage, so ``T_iter = T_f + T_b`` (Eq. 1) and the backward SSD
term carries the optimizer's model-state traffic (Eq. 5).

The module also proves the paper's convexity claim numerically:
:func:`is_convex_on_grid` validates Theorems 1-4 on any model/hardware
combination (exercised by the property-based tests).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import reduce
from typing import Union

import numpy as np

from repro.hardware.spec import gpu_occupancy
from repro.models.profile import ModelProfile
from repro.util.cached import cached_value

from .hwprofile import HardwareProfile

#: One swap amount, or one per benefit-order prefix.
Amount = Union[float, np.ndarray]

#: The resources of Eq. 4's ``max``, in component-tuple order.
_FORWARD_RESOURCES = ("gpu", "pcie_g2m", "pcie_m2g", "ssd")
#: The resources of Eq. 5's ``max``, in component-tuple order.
_BACKWARD_RESOURCES = ("gpu", "pcie_g2m", "pcie_m2g", "ssd", "cpu_adam")


@dataclass(frozen=True)
class StageTime:
    """One pipelined stage: total time plus the per-resource components."""

    total: float
    components: dict[str, float]

    @property
    def bottleneck(self) -> str:
        """Name of the resource whose component equals the stage time."""
        return max(self.components, key=self.components.__getitem__)

    def utilization(self, component: str) -> float:
        """Fraction of the stage this resource is busy (component / total)."""
        if self.total <= 0:
            return 0.0
        return self.components[component] / self.total


@dataclass(frozen=True)
class IterationEstimate:
    """Titer for one choice of ``A_G2M`` with full breakdowns."""

    a_g2m: float
    a_to_ssd: float
    recompute_flops: float
    forward: StageTime
    backward: StageTime

    @property
    def total(self) -> float:
        """T_iter = T_f + T_b (Eq. 1)."""
        return self.forward.total + self.backward.total


class IterationTimeModel:
    """Evaluate Eqs. 2-5 for a model on profiled hardware.

    The model is exact under the full-overlap assumption; Ratel's
    discrete-event engine realises the same schedule, so the two agree to
    within pipeline fill/drain effects (verified in the integration
    tests).
    """

    def __init__(self, model: ModelProfile, hardware: HardwareProfile) -> None:
        self.model = model
        self.hardware = hardware

    @cached_value
    def effective_thp(self) -> float:
        """Peak GPU FLOPS discounted by kernel occupancy at this batch."""
        occupancy = gpu_occupancy(
            self.model.tokens_per_iteration, self.hardware.gpu_saturation_tokens
        )
        return self.hardware.thp_gpu * occupancy

    # -- traffic helpers ---------------------------------------------------

    def a_to_ssd(self, a_g2m: float) -> float:
        """alpha * A_G2M (Eq. 3): activation bytes overflowing to SSDs.

        Main memory absorbs swapped activations first; only the excess
        over ``MEM^avail_M`` continues to the SSD array.
        """
        self._check_a_g2m(a_g2m)
        return max(0.0, a_g2m - self.hardware.mem_avail_main)

    def recompute_flops(self, a_g2m: float) -> float:
        """FLOP_r for the benefit-ordered swap covering ``a_g2m`` bytes (Eq. 7)."""
        return self.model.recompute_flops_for(a_g2m)

    # -- stage times ---------------------------------------------------------

    def forward_time(self, a_g2m: float) -> StageTime:
        """T_f (Eq. 4), with its per-resource components."""
        components = self._forward_components(a_g2m, self.a_to_ssd(a_g2m))
        return _stage(components, _FORWARD_RESOURCES)

    def backward_time(self, a_g2m: float) -> StageTime:
        """T_b (Eq. 5), with its per-resource components."""
        components = self._backward_components(
            a_g2m, self.a_to_ssd(a_g2m), self.recompute_flops(a_g2m)
        )
        return _stage(components, _BACKWARD_RESOURCES)

    def estimate(self, a_g2m: float) -> IterationEstimate:
        """Full :class:`IterationEstimate` for one swap amount."""
        spill = self.a_to_ssd(a_g2m)
        flop_r = self.recompute_flops(a_g2m)
        return IterationEstimate(
            a_g2m=a_g2m,
            a_to_ssd=spill,
            recompute_flops=flop_r,
            forward=_stage(self._forward_components(a_g2m, spill), _FORWARD_RESOURCES),
            backward=_stage(
                self._backward_components(a_g2m, spill, flop_r), _BACKWARD_RESOURCES
            ),
        )

    def iteration_time(self, a_g2m: float) -> float:
        """T_iter = T_f + T_b (Eq. 1)."""
        spill = self.a_to_ssd(a_g2m)
        flop_r = self.recompute_flops(a_g2m)
        return max(self._forward_components(a_g2m, spill)) + max(
            self._backward_components(a_g2m, spill, flop_r)
        )

    def prefix_curve(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """``(A_G2M, alpha*A_G2M, T_iter)`` at every benefit-order prefix.

        Element ``k`` is the state after swapping the first ``k`` segments
        of :meth:`ModelProfile.segments_by_benefit`, i.e. the points
        Algorithm 1 steps through.  The Eq. 4-5 terms come from the same
        builders :meth:`iteration_time` uses, applied to whole arrays;
        elementwise ``+ - * /`` and ``maximum`` round like the scalar
        operations, so ``t_iter[k] == iteration_time(a_g2m[k])`` bit for
        bit.
        """
        a_g2m, flop_r = self.model.benefit_prefixes()
        spill = np.maximum(0.0, a_g2m - self.hardware.mem_avail_main)
        forward = reduce(np.maximum, self._forward_components(a_g2m, spill))
        backward = reduce(np.maximum, self._backward_components(a_g2m, spill, flop_r))
        return a_g2m, spill, forward + backward

    # -- internals -----------------------------------------------------------
    #
    # The component builders take floats or NumPy arrays alike: the scalar
    # entry points pass one swap amount, ``prefix_curve`` passes every
    # prefix at once, and each term is written once for both.

    def _forward_components(self, a_g2m: Amount, spill: Amount) -> tuple[Amount, ...]:
        """Eq. 4's terms, in ``_FORWARD_RESOURCES`` order.

        GPU forward compute; swapped activations leaving the GPU; the fp16
        parameters entering the GPU; and the SSD array reading P16 plus
        absorbing the activation overflow ``spill``.
        """
        hw = self.hardware
        p16 = self.model.states.p16
        return (
            self.model.forward_flops / self.effective_thp,
            a_g2m / hw.bw_gpu,
            p16 / hw.bw_gpu,
            self._ssd_time(read=p16, write=spill),
        )

    def _backward_components(
        self, a_g2m: Amount, spill: Amount, flop_r: Amount
    ) -> tuple[Amount, ...]:
        """Eq. 5's terms, in ``_BACKWARD_RESOURCES`` order.

        GPU backward plus the recomputation ``flop_r``; gradients leaving
        the GPU; parameters and swapped activations re-entering; the SSD
        array carrying the optimizer's model states (12P read + 14P
        written, i.e. P32+OS32 both ways plus the fresh P16) plus P16
        prefetch for the next iteration and the activation overflow read
        back; and the CPU Adam workers (optimizer traffic included via
        active offloading).
        """
        hw = self.hardware
        model = self.model
        states = model.states
        ssd_read = states.optimizer_read + states.p16 + spill  # 12P + 2P + spill
        return (
            (model.backward_flops + flop_r) / self.effective_thp,
            states.g16 / hw.bw_gpu,
            (states.p16 + a_g2m) / hw.bw_gpu,
            self._ssd_time(read=ssd_read, write=states.optimizer_write),  # 14P written
            model.n_params / hw.cpu_adam_params_per_s,
        )

    def _ssd_time(self, *, read: Amount, write: Amount) -> Amount:
        """Simplex SSD array time for a read+write mix.

        Eq. 2's note: SSD I/O counts as a whole because reads and writes
        share the lane budget; each direction moves at its own rate.
        Both stages always read P16, so the array is never idle.
        """
        hw = self.hardware
        if hw.bw_s2m <= 0 or hw.bw_m2s <= 0:
            raise ValueError("model requires SSD traffic but the server has no SSDs")
        return read / hw.bw_s2m + write / hw.bw_m2s

    def _check_a_g2m(self, a_g2m: float) -> None:
        if not math.isfinite(a_g2m):
            raise ValueError(f"A_G2M must be finite, got {a_g2m}")
        if a_g2m < 0:
            raise ValueError(f"A_G2M cannot be negative, got {a_g2m}")
        limit = self.model.activation_bytes_total
        if a_g2m > limit * (1 + 1e-9):
            raise ValueError(
                f"A_G2M {a_g2m:.3e} exceeds total activations {limit:.3e}"
            )


def _check_grid(n_points: int) -> None:
    """A grid spans ``[A_interBlock, A_all]`` end to end, so it needs two points."""
    if n_points < 2:
        raise ValueError(f"a grid over A_G2M needs at least 2 points, got {n_points}")


def _stage(components: tuple[float, ...], resources: tuple[str, ...]) -> StageTime:
    return StageTime(max(components), dict(zip(resources, components)))


def is_convex_on_grid(model: IterationTimeModel, n_points: int = 64) -> bool:
    """Check T_iter's convexity in A_G2M on an even grid (paper §IV-D proof).

    Convexity is what lets Algorithm 1 stop at the first inflection; this
    numeric check backs the paper's analytic proof on arbitrary inputs.
    The grid covers the algorithm's valid domain
    ``[A_interBlock, A_all]`` — below the floor the embedding output
    (zero recompute FLOPs, always swapped first) makes FLOP_r flat and
    the curve non-convex, which is precisely why the paper enforces
    ``A_G2M >= A_interBlock``.  A small relative tolerance absorbs
    floating-point noise.
    """
    _check_grid(n_points)
    lo = model.model.inter_block_bytes
    total = model.model.activation_bytes_total
    xs = [lo + (total - lo) * i / (n_points - 1) for i in range(n_points)]
    ys = [model.iteration_time(x) for x in xs]
    scale = max(ys) if ys else 1.0
    for i in range(1, n_points - 1):
        if ys[i] > (ys[i - 1] + ys[i + 1]) / 2 + 1e-9 * scale:
            return False
    return True
