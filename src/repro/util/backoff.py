"""One retry/backoff vocabulary for every transient-failure boundary.

Three boundaries retry transient failures with exponential backoff: the
storage layer's spill I/O (:class:`~repro.runtime.storage.StorageManager`),
the planner service's sim-backend calls and the sweep runner's point
retries (:class:`~repro.runner.Sweep`).  All three retry through
:func:`retry_call`, except that the runner's process pool, which must not
block on one worker, resubmits a failed point after the same policy's
:meth:`BackoffPolicy.delay`:

* :class:`BackoffPolicy` — the *schedule*: exponential growth from
  ``base_s`` by ``factor``, an optional ``max_delay_s`` cap, a bounded
  ``max_attempts``, and *full jitter* (each delay drawn uniformly from
  ``[0, raw]``, the AWS-style variant that de-synchronises retry storms
  — exactly what a flooded service needs its clients to do).  Jitter is
  opt-out (``jitter="none"``) for call sites whose tests pin exact
  delays.
* :func:`retry_call` — the loop: run a callable, retry on the configured
  exception types, sleep the policy's delays in between, re-raise the
  final failure unchanged so callers can wrap it in a domain error.

Determinism: jittered policies draw from an injectable
``random.Random``; every caller that needs replayable behaviour passes
a seeded one (or disables jitter).
"""

from __future__ import annotations

import logging
import random
import time
from dataclasses import dataclass
from typing import Callable, Iterator, TypeVar

logger = logging.getLogger("repro.util.backoff")

T = TypeVar("T")

#: Jitter modes a policy accepts.
JITTER_MODES = ("full", "none")


class BackoffError(ValueError):
    """Raised for malformed backoff policies."""


@dataclass(frozen=True)
class BackoffPolicy:
    """An exponential-backoff schedule with full jitter and bounded attempts.

    ``max_attempts`` counts *total* tries (first call included), so a
    policy with ``max_attempts=1`` never sleeps.  ``delay(attempt)``
    returns the sleep *after* failed attempt ``attempt`` (0-based);
    with ``jitter="full"`` it is drawn uniformly from ``[0, raw]`` where
    ``raw = min(base_s * factor**attempt, max_delay_s)``.
    """

    base_s: float = 0.005
    factor: float = 2.0
    max_attempts: int = 4
    jitter: str = "full"
    max_delay_s: float | None = None

    def __post_init__(self) -> None:
        if self.base_s < 0:
            raise BackoffError(f"base_s cannot be negative, got {self.base_s}")
        if self.factor < 1:
            raise BackoffError(f"factor must be >= 1, got {self.factor}")
        if self.max_attempts < 1:
            raise BackoffError(
                f"max_attempts must be at least 1, got {self.max_attempts}"
            )
        if self.jitter not in JITTER_MODES:
            raise BackoffError(
                f"unknown jitter mode {self.jitter!r}; choose from {JITTER_MODES}"
            )
        if self.max_delay_s is not None and self.max_delay_s < 0:
            raise BackoffError(
                f"max_delay_s cannot be negative, got {self.max_delay_s}"
            )

    @property
    def retries(self) -> int:
        """Retries after the first attempt (``max_attempts - 1``)."""
        return self.max_attempts - 1

    def raw_delay(self, attempt: int) -> float:
        """The un-jittered delay after 0-based failed attempt ``attempt``."""
        if attempt < 0:
            raise BackoffError(f"attempt cannot be negative, got {attempt}")
        raw = self.base_s * self.factor**attempt
        if self.max_delay_s is not None:
            raw = min(raw, self.max_delay_s)
        return raw

    def delay(self, attempt: int, rng: random.Random | None = None) -> float:
        """The (possibly jittered) delay after failed attempt ``attempt``."""
        raw = self.raw_delay(attempt)
        if self.jitter == "none" or raw <= 0:
            return raw
        return (rng or random).uniform(0.0, raw)

    def delays(self, rng: random.Random | None = None) -> Iterator[float]:
        """The sleeps between attempts, in order (``max_attempts - 1`` of them)."""
        for attempt in range(self.max_attempts - 1):
            yield self.delay(attempt, rng)


def retry_call(
    fn: Callable[[], T],
    *,
    policy: BackoffPolicy,
    what: str,
    retry_on: tuple[type[BaseException], ...] = (OSError,),
    sleep: Callable[[float], None] = time.sleep,
    rng: random.Random | None = None,
    on_retry: Callable[[int, BaseException], None] | None = None,
) -> T:
    """Run ``fn`` under ``policy``, retrying exceptions in ``retry_on``.

    ``on_retry(attempt, exc)`` fires before each sleep (attempt is the
    1-based try that just failed) — the hook call sites use to bump
    their retry counters.  The final failure re-raises the last
    exception unchanged so callers can wrap it in a domain error.
    """
    for attempt in range(1, policy.max_attempts + 1):
        try:
            return fn()
        except retry_on as exc:
            if attempt == policy.max_attempts:
                raise
            delay = policy.delay(attempt - 1, rng)
            if on_retry is not None:
                on_retry(attempt, exc)
            logger.warning(
                "%s failed (attempt %d/%d): %s; retrying in %.3fs",
                what,
                attempt,
                policy.max_attempts,
                exc,
                delay,
            )
            if delay > 0:
                sleep(delay)
    raise AssertionError("unreachable")  # pragma: no cover
