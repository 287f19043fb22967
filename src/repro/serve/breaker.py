"""Circuit breaker around the simulation backend.

The planner service's expensive dependency is the simulation stack; a
wedged or crashing backend must not take every request thread down with
it.  The breaker is the classic three-state machine:

* **closed** — requests flow; consecutive failures are counted and
  ``failure_threshold`` of them trips the breaker.
* **open** — requests are refused instantly (callers fall down the
  degradation ladder); after ``cooldown_s`` the next caller is let
  through as a probe.
* **half_open** — one probe runs at a time; ``success_threshold``
  successes close the breaker, any failure re-opens it (with a fresh
  cooldown).

The clock is injectable, so the hypothesis property tests drive the
state machine through simulated time.  Every transition is appended to
``transitions`` and reported through ``on_transition`` — the service
ledgers them, making breaker history auditable after the fact.
"""

from __future__ import annotations

import threading
import time
from dataclasses import dataclass
from typing import Callable

#: Legal breaker states.
STATES = ("closed", "open", "half_open")


class BreakerOpen(RuntimeError):
    """Raised (or signalled) when the breaker refuses a call."""


@dataclass(frozen=True)
class BreakerTransition:
    """One state change, timestamped on the breaker's clock."""

    time: float
    from_state: str
    to_state: str
    reason: str


class CircuitBreaker:
    """Thread-safe three-state circuit breaker with an injectable clock."""

    def __init__(
        self,
        *,
        failure_threshold: int = 3,
        cooldown_s: float = 1.0,
        success_threshold: int = 1,
        clock: Callable[[], float] = time.monotonic,
        on_transition: Callable[[BreakerTransition], None] | None = None,
    ) -> None:
        if failure_threshold < 1:
            raise ValueError("failure_threshold must be at least 1")
        if cooldown_s < 0:
            raise ValueError("cooldown_s cannot be negative")
        if success_threshold < 1:
            raise ValueError("success_threshold must be at least 1")
        self.failure_threshold = failure_threshold
        self.cooldown_s = cooldown_s
        self.success_threshold = success_threshold
        self.clock = clock
        self.on_transition = on_transition
        self.transitions: list[BreakerTransition] = []
        self._lock = threading.Lock()
        self._state = "closed"
        self._failures = 0
        self._probe_successes = 0
        self._probe_in_flight = False
        self._opened_at = 0.0

    # -- state inspection ------------------------------------------------------

    @property
    def state(self) -> str:
        """Current state, advancing open → half_open when cooldown elapsed."""
        with self._lock:
            self._tick()
            return self._state

    def cooldown_remaining(self) -> float:
        """Seconds until an open breaker starts probing (0 otherwise)."""
        with self._lock:
            self._tick()
            if self._state != "open":
                return 0.0
            return max(0.0, self._opened_at + self.cooldown_s - self.clock())

    # -- the protocol ----------------------------------------------------------

    def allow(self) -> bool:
        """May a call proceed right now?

        In half-open state one call is admitted at a time; each admitted
        call *must* be followed by ``record_success`` or
        ``record_failure``.
        """
        with self._lock:
            self._tick()
            if self._state == "closed":
                return True
            if self._state == "open":
                return False
            if self._probe_in_flight:
                return False
            self._probe_in_flight = True
            return True

    def record_success(self) -> None:
        with self._lock:
            self._tick()
            if self._state == "half_open":
                self._probe_in_flight = False
                self._probe_successes += 1
                if self._probe_successes >= self.success_threshold:
                    self._transition("closed", "probe quota met")
            elif self._state == "closed":
                self._failures = 0

    def record_failure(self, reason: str = "backend failure") -> None:
        with self._lock:
            self._tick()
            if self._state == "half_open":
                self._probe_in_flight = False
                self._transition("open", f"probe failed: {reason}")
            elif self._state == "closed":
                self._failures += 1
                if self._failures >= self.failure_threshold:
                    self._transition(
                        "open", f"{self._failures} consecutive failures: {reason}"
                    )

    # -- internals (lock held) -------------------------------------------------

    def _tick(self) -> None:
        """Advance open → half_open once the cooldown has elapsed."""
        if self._state == "open" and (
            self.clock() >= self._opened_at + self.cooldown_s
        ):
            self._transition("half_open", "cooldown elapsed")

    def _transition(self, to_state: str, reason: str) -> None:
        from_state = self._state
        self._state = to_state
        if to_state == "open":
            self._opened_at = self.clock()
            self._failures = 0
            self._probe_successes = 0
            self._probe_in_flight = False
        elif to_state == "half_open":
            self._probe_successes = 0
            self._probe_in_flight = False
        elif to_state == "closed":
            self._failures = 0
            self._probe_successes = 0
            self._probe_in_flight = False
        transition = BreakerTransition(
            time=self.clock(), from_state=from_state, to_state=to_state, reason=reason
        )
        self.transitions.append(transition)
        if self.on_transition is not None:
            self.on_transition(transition)
