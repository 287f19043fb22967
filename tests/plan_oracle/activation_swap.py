"""Holistic traffic-aware activation swapping management (paper §IV-D).

Algorithm 1: walk the activation segments in decreasing offloading
benefit, accumulating the swapped amount ``A_G2M`` and shedding
recomputation FLOPs, evaluate ``T_iter`` at every step, and stop at the
first point past the ``A_interBlock`` floor where the time stops
improving — valid because ``T_iter`` is convex in ``A_G2M`` (proved in
the paper; checked numerically by
:func:`repro.core.iteration_model.is_convex_on_grid`).

The three outcome cases of §IV-D:

1. ``PCIE_BOUND``   — T_iter rises with A_G2M: transfers dominate, swap
   only the minimum safe set (the inter-block activations).
2. ``GPU_BOUND``    — T_iter falls all the way: GPU compute dominates,
   swap everything (A_G2M = A_all).
3. ``INTERIOR``     — T_iter dips then rises: pick the inflection point.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field

from .iteration_model import IterationEstimate, IterationTimeModel


class SwapCase(enum.Enum):
    """Which of the paper's three §IV-D cases the plan landed in."""

    PCIE_BOUND = 1
    GPU_BOUND = 2
    INTERIOR = 3


@dataclass(frozen=True)
class SwapPlan:
    """The output of Algorithm 1.

    ``swapped`` lists the chosen segment names (with multiplicity across
    blocks aggregated), in the order they were selected.  ``estimate``
    carries the predicted stage times at the chosen ``a_g2m``.
    """

    a_g2m: float
    case: SwapCase
    estimate: IterationEstimate
    swapped: tuple[str, ...] = field(default_factory=tuple)

    @property
    def a_to_main(self) -> float:
        """Swapped bytes that main memory absorbs."""
        return self.a_g2m - self.estimate.a_to_ssd

    @property
    def a_to_ssd(self) -> float:
        """Swapped bytes overflowing to the SSD array (alpha * A_G2M)."""
        return self.estimate.a_to_ssd

    @property
    def t_iter(self) -> float:
        """Predicted iteration time at the chosen swap amount."""
        return self.estimate.total


def plan_activation_swapping(model: IterationTimeModel) -> SwapPlan:
    """Run Algorithm 1 and return the chosen plan.

    Follows the paper's pseudocode: segments sorted by offloading benefit,
    one pass, early exit at the first non-improving step beyond the
    ``A_interBlock`` floor.  The embedding output participates with
    infinite priority (it cannot be recomputed), so the floor is always
    reached before the break condition can fire.
    """
    profile = model.model
    floor = profile.inter_block_bytes
    segments = profile.segments_by_benefit()

    # Two refinements over the paper's pseudocode, both motivated by the
    # discrete-event engine's behaviour on (near-)flat stretches of the
    # convex curve:
    #
    # * on an *exact* tie that adds no SSD spill, prefer the larger swap
    #   amount — equal predicted time with less recomputation wastes no
    #   GPU work;
    # * require a minimum relative improvement before advancing the
    #   optimum: the analytic model treats slack on non-bottleneck
    #   resources as free, but microscopic (<0.01%) predicted gains from
    #   extra SSD spill cost more in queueing than they save.
    break_tolerance = 1e-3
    min_improvement = 1e-4

    a_g2m = 0.0
    best_a: float | None = None
    best_t = float("inf")
    best_spill = 0.0
    swapped: list[str] = []
    reached_end = True
    for segment in segments:
        a_g2m += segment.nbytes
        t_iter = model.iteration_time(a_g2m)
        spill = model.a_to_ssd(a_g2m)
        past_floor = a_g2m - segment.nbytes >= floor * (1 - 1e-9)
        if t_iter > best_t * (1 + break_tolerance) and past_floor:
            reached_end = False
            break
        improved = t_iter < best_t * (1 - min_improvement)
        flat_no_spill = t_iter <= best_t * (1 + 1e-9) and spill <= best_spill + 1e-6
        if improved or flat_no_spill or best_a is None:
            best_t = min(best_t, t_iter)
            best_a = a_g2m
            best_spill = spill
            swapped.append(segment.name)

    if best_a is None:  # degenerate: a model with a single segment
        best_a = a_g2m
        best_t = model.iteration_time(a_g2m)

    chosen = max(best_a, floor)
    case = _classify(model, chosen, floor, reached_end)
    return SwapPlan(
        a_g2m=chosen,
        case=case,
        estimate=model.estimate(chosen),
        swapped=tuple(dict.fromkeys(swapped)),
    )


def sweep_iteration_time(
    model: IterationTimeModel, n_points: int = 33
) -> list[tuple[float, float]]:
    """(A_G2M, T_iter) samples across the valid domain — Fig. 9b's curves."""
    lo = model.model.inter_block_bytes
    hi = model.model.activation_bytes_total
    points = []
    for i in range(n_points):
        a = lo + (hi - lo) * i / (n_points - 1)
        points.append((a, model.iteration_time(a)))
    return points


def _classify(
    model: IterationTimeModel, chosen: float, floor: float, reached_end: bool
) -> SwapCase:
    """Map the chosen point onto the paper's three cases."""
    total = model.model.activation_bytes_total
    tolerance = 1e-6 * max(total, 1.0)
    if chosen <= floor + tolerance:
        return SwapCase.PCIE_BOUND
    if reached_end or chosen >= total - tolerance:
        return SwapCase.GPU_BOUND
    return SwapCase.INTERIOR
