"""Drift detection: EWMA health estimates vs the active hardware profile.

The :class:`HealthMonitor` folds the observability signals the repo
already emits into exponentially-weighted moving averages and compares
them against what the active plan *assumed*:

* **channel bandwidth** — the effective SSD-array rate achieved by real
  transfers (from a sim :class:`~repro.sim.trace.Trace` or runtime
  spans) against the §IV-B profile's ``BW_S2M``/``BW_M2S`` blend for the
  observed read/write mix;
* **stage time** — measured forward/backward durations against
  Algorithm 1's :class:`~repro.core.iteration_model.IterationEstimate`;
* **drive count** — surviving drives in the array against the count the
  profile was measured on;
* **I/O errors** — storage-layer error rates (a
  :class:`~repro.faults.FaultInjector` or any counter source).

Crossing one of the module's threshold constants (``BW_RATIO``,
``OVERRUN_RATIO``, ``IO_ERROR_RATE``) raises a typed drift event on the
next :meth:`HealthMonitor.poll`.  The monitor never acts — acting is
the :class:`~repro.adapt.controller.AdaptiveController`'s job — and it
is substrate-agnostic: the sim drill, the NumPy runtime hook and the
tests all feed the same ``observe_*`` surface.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any

from repro.core.hwprofile import HardwareProfile
from repro.core.iteration_model import IterationEstimate


class AdaptError(ValueError):
    """Raised for inconsistent adaptation configuration."""


#: Observed/expected bandwidth ratio below which a channel drifts.
BW_RATIO = 0.85
#: Ratio a channel must climb back above to count as healthy.  With
#: ``BW_RATIO`` it straddles a hysteresis band, so a ratio hovering at
#: the trip point never flaps between states.
RECOVER_RATIO = 0.93
#: Observed/predicted stage-time ratio above which a stage overruns.
OVERRUN_RATIO = 1.25
#: Consecutive over-threshold polls before an overrun is sustained: a
#: single slow iteration (GC pause, cache miss storm) is not drift.
OVERRUN_POLLS = 2
#: I/O error rate (errors per operation) above which storage drifts.
IO_ERROR_RATE = 0.01


class Ewma:
    """An exponentially-weighted moving average (``None`` until fed)."""

    def __init__(self, alpha: float = 0.5) -> None:
        if not 0 < alpha <= 1:
            raise AdaptError(f"EWMA alpha must be in (0, 1], got {alpha}")
        self.alpha = alpha
        self.value: float | None = None

    def update(self, sample: float) -> float:
        if self.value is None:
            self.value = float(sample)
        else:
            self.value += self.alpha * (float(sample) - self.value)
        return self.value

    def reset(self) -> None:
        self.value = None


# -- typed drift events --------------------------------------------------------


@dataclass(frozen=True)
class BandwidthDrift:
    """A channel's effective bandwidth sagged below the profiled rate."""

    channel: str
    observed_bw: float
    expected_bw: float
    kind: str = field(default="bandwidth_sag", init=False)

    @property
    def ratio(self) -> float:
        return self.observed_bw / self.expected_bw if self.expected_bw > 0 else 0.0

    def to_payload(self) -> dict[str, Any]:
        return {
            "kind": self.kind,
            "channel": self.channel,
            "observed_bw": self.observed_bw,
            "expected_bw": self.expected_bw,
            "ratio": self.ratio,
        }

    def __str__(self) -> str:
        return (
            f"bandwidth sag on {self.channel}: {self.observed_bw / 1e9:.1f} GB/s "
            f"observed vs {self.expected_bw / 1e9:.1f} GB/s profiled "
            f"({100 * self.ratio:.0f}%)"
        )


@dataclass(frozen=True)
class DriveDrift:
    """The SSD array's drive count changed (loss, or a hot-swap restore)."""

    previous: int
    remaining: int

    @property
    def kind(self) -> str:
        return "drive_loss" if self.remaining < self.previous else "drive_restored"

    def to_payload(self) -> dict[str, Any]:
        return {"kind": self.kind, "previous": self.previous, "remaining": self.remaining}

    def __str__(self) -> str:
        if self.remaining < self.previous:
            return (
                f"SSD array lost {self.previous - self.remaining} drive(s): "
                f"{self.remaining} of {self.previous} remain"
            )
        return f"SSD array restored to {self.remaining} drive(s) (was {self.previous})"


@dataclass(frozen=True)
class StageOverrun:
    """A stage ran sustainedly past its Algorithm-1 prediction."""

    stage: str
    observed_s: float
    predicted_s: float
    polls: int
    kind: str = field(default="stage_overrun", init=False)

    @property
    def ratio(self) -> float:
        return self.observed_s / self.predicted_s if self.predicted_s > 0 else float("inf")

    def to_payload(self) -> dict[str, Any]:
        return {
            "kind": self.kind,
            "stage": self.stage,
            "observed_s": self.observed_s,
            "predicted_s": self.predicted_s,
            "ratio": self.ratio,
            "polls": self.polls,
        }

    def __str__(self) -> str:
        return (
            f"sustained {self.stage} overrun: {self.observed_s:.2f}s observed vs "
            f"{self.predicted_s:.2f}s planned over {self.polls} poll(s)"
        )


@dataclass(frozen=True)
class IOErrorDrift:
    """Storage-layer error rate climbed past the threshold."""

    errors: int
    operations: int
    rate: float
    kind: str = field(default="io_error", init=False)

    def to_payload(self) -> dict[str, Any]:
        return {
            "kind": self.kind,
            "errors": self.errors,
            "operations": self.operations,
            "rate": self.rate,
        }

    def __str__(self) -> str:
        return (
            f"storage error rate {100 * self.rate:.2f}% "
            f"({self.errors}/{self.operations} operations)"
        )


DriftEvent = BandwidthDrift | DriveDrift | StageOverrun | IOErrorDrift


# -- trace helpers -------------------------------------------------------------


def ssd_effective_bandwidth(
    trace, window_start: float = 0.0, window_end: float = float("inf"), resource: str = "ssd"
) -> tuple[float, float] | None:
    """``(bytes_moved, busy_seconds)`` of real transfers on ``resource``.

    Fault markers (``fault_stall`` windows, sag and dropout ticks) carry
    ``amount == 0``; a stall window would otherwise count as busy time, so
    only intervals that actually carried bytes count.  Returns ``None``
    when the resource moved nothing in the window.
    """
    moved = 0.0
    busy = 0.0
    for interval in trace.intervals:
        if interval.resource != resource or interval.amount <= 0:
            continue
        lo = max(interval.start, window_start)
        hi = min(interval.end, window_end)
        if hi <= lo:
            continue
        span = interval.end - interval.start
        fraction = (hi - lo) / span if span > 0 else 1.0
        moved += interval.amount * fraction
        busy += hi - lo
    if moved <= 0 or busy <= 0:
        return None
    return moved, busy


def expected_ssd_bandwidth(
    hardware: HardwareProfile, read_bytes: float, written_bytes: float
) -> float:
    """The profile's effective rate for a read/write traffic mix.

    The simplex array serves ``R`` read bytes at ``BW_S2M`` and ``W``
    written bytes at ``BW_M2S`` back to back (Eq. 2's note), so the
    blended rate is ``(R+W) / (R/BW_S2M + W/BW_M2S)``.
    """
    total = read_bytes + written_bytes
    if total <= 0:
        return 0.0
    seconds = 0.0
    if read_bytes > 0:
        if hardware.bw_s2m <= 0:
            return 0.0
        seconds += read_bytes / hardware.bw_s2m
    if written_bytes > 0:
        if hardware.bw_m2s <= 0:
            return 0.0
        seconds += written_bytes / hardware.bw_m2s
    return total / seconds


# -- the monitor ---------------------------------------------------------------


class HealthMonitor:
    """EWMA health estimates vs the active profile and plan estimate.

    ``hardware`` is the :class:`HardwareProfile` the active plan was
    built against; ``estimate`` (optional) the plan's
    :class:`IterationEstimate` for stage-overrun comparison.  Every
    EWMA uses :class:`Ewma`'s default ``alpha`` of 0.5, which reacts
    within two observations while still halving single-sample noise.
    """

    def __init__(
        self, hardware: HardwareProfile, estimate: IterationEstimate | None = None
    ) -> None:
        self.hardware = hardware
        self.estimate = estimate
        self._bw_ratio: dict[str, Ewma] = {}
        self._bw_last: dict[str, tuple[float, float]] = {}  # observed, expected
        self._stage_ratio: dict[str, Ewma] = {}
        self._stage_last: dict[str, tuple[float, float]] = {}
        self._stage_over: dict[str, int] = {}
        self._io_rate = Ewma()
        self._io_last: tuple[int, int] = (0, 0)
        #: Surviving drives as last observed (``None`` until first fed).
        self.remaining_drives: int | None = None
        self._reported_drives: int | None = None

    # -- feeding observations --------------------------------------------------

    def observe_bandwidth(self, channel: str, observed_bw: float, expected_bw: float) -> None:
        """Fold one effective-bandwidth sample for ``channel``."""
        if expected_bw <= 0:
            return
        ratio = observed_bw / expected_bw
        self._bw_ratio.setdefault(channel, Ewma()).update(ratio)
        self._bw_last[channel] = (observed_bw, expected_bw)

    def observe_ssd(self, read_bytes: float, written_bytes: float, busy_s: float) -> None:
        """Fold one SSD-array sample from raw transfer counters."""
        if busy_s <= 0 or read_bytes + written_bytes <= 0:
            return
        expected = expected_ssd_bandwidth(self.hardware, read_bytes, written_bytes)
        observed = (read_bytes + written_bytes) / busy_s
        self.observe_bandwidth("ssd", observed, expected)

    def observe_drives(self, remaining: int) -> None:
        """Record the surviving drive count (events fire on change)."""
        if remaining < 0:
            raise AdaptError(f"remaining drives cannot be negative, got {remaining}")
        if self._reported_drives is None:
            self._reported_drives = remaining
        self.remaining_drives = remaining

    def observe_stage(self, stage: str, observed_s: float, predicted_s: float | None = None) -> None:
        """Fold one stage duration against its plan prediction."""
        if predicted_s is None and self.estimate is not None:
            stage_time = getattr(self.estimate, stage, None)
            predicted_s = stage_time.total if stage_time is not None else None
        if predicted_s is None or predicted_s <= 0 or observed_s < 0:
            return
        ewma = self._stage_ratio.setdefault(stage, Ewma())
        ratio = ewma.update(observed_s / predicted_s)
        self._stage_last[stage] = (observed_s, predicted_s)
        if ratio > OVERRUN_RATIO:
            self._stage_over[stage] = self._stage_over.get(stage, 0) + 1
        else:
            self._stage_over[stage] = 0

    def observe_errors(self, errors: int, operations: int) -> None:
        """Fold cumulative storage error counters (monotone inputs)."""
        prev_errors, prev_ops = self._io_last
        delta_errors = max(0, errors - prev_errors)
        delta_ops = max(0, operations - prev_ops)
        self._io_last = (errors, operations)
        if delta_ops <= 0:
            return
        self._io_rate.update(delta_errors / delta_ops)

    def observe_result(self, result) -> None:
        """Fold one simulated/measured iteration (duck-typed).

        ``result`` needs ``trace``, ``stage_windows`` and the stage-time
        accessors of :class:`~repro.core.engine.IterationResult` (the
        runtime's span recorder satisfies the same surface through its
        trace + stage windows).
        """
        for stage in ("forward", "backward"):
            if stage in result.stage_windows:
                start, end = result.stage_windows[stage]
                self.observe_stage(stage, end - start)
        sample = ssd_effective_bandwidth(result.trace)
        if sample is not None:
            moved, busy = sample
            self._observe_ssd_blend(moved, busy)

    def _observe_ssd_blend(self, moved: float, busy: float) -> None:
        """Fold an SSD sample when the read/write split is unknown.

        Expected rate uses the harmonic mean of the two directions — the
        rate of a balanced mix — which is within a few percent of the
        true blend for the traffic the Ratel schedule generates.
        """
        hw = self.hardware
        if hw.bw_s2m <= 0 or hw.bw_m2s <= 0 or busy <= 0:
            return
        expected = 2.0 / (1.0 / hw.bw_s2m + 1.0 / hw.bw_m2s)
        self.observe_bandwidth("ssd", moved / busy, expected)

    # -- querying --------------------------------------------------------------

    def bandwidth_ratio(self, channel: str = "ssd") -> float | None:
        """EWMA observed/expected ratio for one channel (``None`` if unfed)."""
        ewma = self._bw_ratio.get(channel)
        return ewma.value if ewma is not None else None

    def healthy(self) -> bool:
        """All signals inside the recovery band (hysteresis upper edge)."""
        if self.remaining_drives is not None and self._reported_drives is not None:
            if self.remaining_drives != self._reported_drives:
                return False
        for ewma in self._bw_ratio.values():
            if ewma.value is not None and ewma.value < RECOVER_RATIO:
                return False
        for ewma in self._stage_ratio.values():
            if ewma.value is not None and ewma.value > OVERRUN_RATIO:
                return False
        if self._io_rate.value is not None and self._io_rate.value > IO_ERROR_RATE:
            return False
        return True

    def poll(self) -> list[DriftEvent]:
        """Drift events currently past thresholds (drive changes fire once)."""
        events: list[DriftEvent] = []
        if (
            self.remaining_drives is not None
            and self._reported_drives is not None
            and self.remaining_drives != self._reported_drives
        ):
            events.append(DriveDrift(self._reported_drives, self.remaining_drives))
            self._reported_drives = self.remaining_drives
        for channel, ewma in self._bw_ratio.items():
            if ewma.value is not None and ewma.value < BW_RATIO:
                observed, expected = self._bw_last[channel]
                events.append(BandwidthDrift(channel, observed, expected))
        for stage, over in self._stage_over.items():
            if over >= OVERRUN_POLLS:
                observed, predicted = self._stage_last[stage]
                events.append(StageOverrun(stage, observed, predicted, over))
        if self._io_rate.value is not None and self._io_rate.value > IO_ERROR_RATE:
            errors, operations = self._io_last
            events.append(IOErrorDrift(errors, operations, self._io_rate.value))
        return events

    def rebase(
        self, hardware: HardwareProfile, estimate: IterationEstimate | None = None
    ) -> None:
        """Re-anchor the monitor on a fresh profile/plan after a replan.

        The EWMAs are dropped: ratios measured against the *old* profile
        would otherwise keep tripping thresholds against the new one (a
        sag that the replan already priced in must not re-trigger).
        Drive state and cumulative error counters survive — they describe
        the machine, not the plan.
        """
        self.hardware = hardware
        self.estimate = estimate
        self._bw_ratio.clear()
        self._bw_last.clear()
        self._stage_ratio.clear()
        self._stage_last.clear()
        self._stage_over.clear()
        self._io_rate.reset()
