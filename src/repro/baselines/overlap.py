"""Stall-free optimizer baselines: ZenFlow and GreedySnake (PAPERS.md).

Both systems attack the same weakness in Ratel's design: the CPU Adam is
*synchronous* — every iteration waits for the optimizer drain before the
next forward may start.  They keep Ratel's holistic activation plan
(Algorithm 1 decides what swaps where exactly as before) and reshape only
the optimizer leg of the schedule:

* :class:`ZenFlowPolicy` — bounded-staleness asynchronous updates.  The
  CPU optimizer runs fully decoupled from the GPU pipeline, applying
  gradients up to ``stale_k`` steps late; the importance-prioritized
  top-``critical_frac`` of each block's gradients updates synchronously
  on the GPU so the loss-relevant directions never go stale.  Steady
  state: iteration time = max(GPU pipeline, CPU optimizer pipeline).
* :class:`GreedySnakePolicy` — optimizer-step overlap with the next
  forward.  Each block's states are updated just before that block's
  next forward reads them, so the optimizer hides under the next
  iteration's forward without introducing *any* staleness.

The functional-runtime twins of these schedules live in
:mod:`repro.runtime.offload` (``optimizer_mode={'async','overlap'}``);
the ``ext_overlap`` experiment puts the simulated speed of these policies
and the runtime's *measured* loss divergence on one frontier table.
"""

from __future__ import annotations

from dataclasses import replace

from repro.core.memory_model import ResourceNeeds
from repro.core.ratel import RatelPolicy
from repro.core.schedule import OptimizerMode
from repro.models.profile import ModelProfile

#: ZenFlow defaults: gradients may wait at most this many steps, and the
#: most important ~quarter of each block's gradient applies synchronously.
DEFAULT_STALE_K = 2
DEFAULT_CRITICAL_FRAC = 0.25


class ZenFlowPolicy(RatelPolicy):
    """Ratel's plan with ZenFlow-style bounded-staleness async updates."""

    optimizer_mode = OptimizerMode.ASYNC_BOUNDED

    def __init__(
        self,
        stale_k: int = DEFAULT_STALE_K,
        critical_frac: float = DEFAULT_CRITICAL_FRAC,
    ) -> None:
        super().__init__("optimized")
        if stale_k < 0:
            raise ValueError(f"stale_k must be >= 0, got {stale_k}")
        if not 0 <= critical_frac < 1:
            raise ValueError(f"critical_frac must be in [0, 1), got {critical_frac}")
        self.stale_k = stale_k
        self.critical_frac = critical_frac
        self.name = f"ZenFlow(K={stale_k})"

    def needs_for_split(
        self, profile: ModelProfile, to_main: float, to_ssd: float
    ) -> ResourceNeeds:
        needs = super().needs_for_split(profile, to_main, to_ssd)
        if self.stale_k == 0:
            return needs
        # Deferred fp16 gradients accumulate host-side until applied.
        return replace(needs, main_bytes=needs.main_bytes + 2.0 * profile.n_params)


class GreedySnakePolicy(RatelPolicy):
    """Ratel's plan with GreedySnake-style optimizer/next-forward overlap."""

    optimizer_mode = OptimizerMode.OVERLAP_STEP

    def __init__(self) -> None:
        super().__init__("optimized")
        self.name = "GreedySnake"

    def needs_for_split(
        self, profile: ModelProfile, to_main: float, to_ssd: float
    ) -> ResourceNeeds:
        needs = super().needs_for_split(profile, to_main, to_ssd)
        # One step's fp16 gradients wait host-side for the next forward.
        return replace(needs, main_bytes=needs.main_bytes + 2.0 * profile.n_params)


def policy_for_mode(mode: str, *, stale_k: int | None = None) -> RatelPolicy:
    """The Ratel-family policy implementing one runtime optimizer mode.

    ``sync`` is the paper's synchronous Ratel; ``async`` and ``overlap``
    are the stall-free variants above.  This is the one mapping the CLI's
    ``--optimizer-mode`` flag, the fleet drill and the experiments share.
    """
    if mode == "sync":
        return RatelPolicy()
    if mode == "async":
        return ZenFlowPolicy() if stale_k is None else ZenFlowPolicy(stale_k=stale_k)
    if mode == "overlap":
        return GreedySnakePolicy()
    raise ValueError(
        f"unknown optimizer mode {mode!r}; choose from 'sync', 'async', 'overlap'"
    )
