"""The four-rung answer-degradation ladder.

When the exact path (ledger hit, cache hit, or a fresh simulation) is
unavailable — breaker open, deadline exhausted, pool saturated — the
service does not guess and does not hang.  It steps down a fixed
ladder, each rung cheaper and tagged with its fidelity:

====  ============  ==========================================================
rung  name          answer
====  ============  ==========================================================
0     exact         simulated (or previously simulated) result for this key
1     neighbor      nearest cached/ledgered point (same policy/model/server,
                    closest batch), tagged with staleness + distance
2     analytic      :class:`~repro.core.iteration_model.IterationTimeModel`
                    closed-form estimate (Eqs. 1-8, floor swap) — milliseconds,
                    no simulation
3     unavailable   explicit 503 + Retry-After
====  ============  ==========================================================

This mirrors the graceful-degradation ladder of :mod:`repro.adapt`: the
same "never fail silently, always say which fidelity you got" contract,
applied to answers instead of training schedules.

**Monotone within an episode.**  Once the service has degraded, later
requests in the same overload episode are served *at or below* the
current floor — fidelity never flaps upward mid-episode (which would
make two adjacent answers incomparable).  The floor resets only when
the episode ends (breaker closed, queue drained), which bumps
``episode`` — the property tests key off that counter.
"""

from __future__ import annotations

import threading
from collections import deque

#: Ladder rungs from best to worst fidelity.
RUNGS = ("exact", "neighbor", "analytic", "unavailable")

#: Resolved answers kept in :attr:`DegradationLadder.history` (the
#: newest ones), so a long-running service holds a bounded record.
HISTORY_LEN = 1024


def rung_index(name: str) -> int:
    """The ladder position of a rung name."""
    try:
        return RUNGS.index(name)
    except ValueError:
        raise ValueError(f"unknown rung {name!r}; choose from {RUNGS}") from None


def rung_name(index: int) -> str:
    """The rung name at a ladder position."""
    if not 0 <= index < len(RUNGS):
        raise ValueError(f"rung index out of range: {index}")
    return RUNGS[index]


class DegradationLadder:
    """Thread-safe fidelity floor with episode accounting.

    ``resolve(requested)`` clamps a requested rung to the episode floor;
    ``escalate(rung)`` raises the floor (entering an episode when coming
    from exact); ``reset()`` ends the episode.  ``history`` records
    ``(episode, served, floor)`` for the newest ``HISTORY_LEN`` resolved
    answers — the monotonicity property asserts the floor never
    decreases within one episode and every served rung sits at or below
    it in fidelity.
    """

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._floor = 0
        self.episode = 0
        self.history: deque[tuple[int, int, int]] = deque(maxlen=HISTORY_LEN)

    @property
    def floor(self) -> int:
        with self._lock:
            return self._floor

    @property
    def degraded(self) -> bool:
        return self.floor > 0

    def resolve(self, requested: int) -> int:
        """The rung actually served for a ``requested`` rung (clamped)."""
        with self._lock:
            served = max(requested, self._floor)
            self.history.append((self.episode, served, self._floor))
            return served

    def escalate(self, rung: int) -> int:
        """Raise the floor to ``rung`` (no-op if already at or below)."""
        if not 0 <= rung < len(RUNGS):
            raise ValueError(f"rung index out of range: {rung}")
        with self._lock:
            if rung > self._floor:
                self._floor = rung
            return self._floor

    def reset(self) -> bool:
        """End the overload episode; True when a degraded floor was cleared."""
        with self._lock:
            if self._floor == 0:
                return False
            self._floor = 0
            self.episode += 1
            return True
