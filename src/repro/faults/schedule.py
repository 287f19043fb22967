"""Simulator-side fault schedules: degrade the machine mid-iteration.

A :class:`FaultSchedule` is a set of timed events installed onto a
:class:`~repro.sim.resources.Machine`.  Each event becomes a coroutine
process on the machine's simulator, so faults interleave with the
iteration's own processes under the same deterministic event loop:

* :class:`SSDDropout` — ``count`` drives leave the array at time ``at``;
  the array's bandwidth is recomputed from the server spec with the
  remaining drives (platform cap included).  Requests already queued see
  the degraded rate, exactly like a real in-flight I/O stream.
* :class:`BandwidthSag` — a channel runs at ``factor`` of its rate for a
  window (thermal throttling, SLC-cache exhaustion, a noisy neighbour).
  The sag's start and end are recorded as zero-length ``fault_bw_sag``
  ticks: the channel keeps serving requests, only slower.
* :class:`LatencyStall` — a channel freezes for ``duration`` seconds (a
  device timeout / link retrain); the stall occupies the channel's FIFO
  lane, so it also delays every queued request.  The stall is recorded
  in the trace under the label ``fault_stall``.

An event names its channel as the machine does: a bare ``gpu``,
``pcie_m2g`` or ``pcie_g2m`` is resolved to device 0 (``gpu0``...) when
the event is built, so the recorded lane, the duplicate check and the
overlap check all see the channel the fault holds.

The schedule imports only that naming rule from the simulator and drives
the machine through its public surface (``sim``, ``channel``,
``fail_ssds``), so the dependency points strictly from ``repro.faults``
at ``repro.sim``'s interface, never the other way around.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from repro.sim.resources import channel_name


class FaultScheduleError(ValueError):
    """Raised for physically meaningless fault schedules."""


def _check_at(at: float) -> None:
    if not 0.0 <= at < math.inf:
        raise FaultScheduleError(f"fault time must be finite and non-negative, got {at}")


def _check_duration(kind: str, duration: float) -> None:
    if not 0.0 < duration < math.inf:
        raise FaultScheduleError(f"{kind} needs a finite positive duration, got {duration}")


@dataclass(frozen=True)
class SSDDropout:
    """``count`` SSDs fail out of the array at time ``at`` (seconds)."""

    at: float
    count: int = 1

    def __post_init__(self) -> None:
        _check_at(self.at)
        if self.count < 1:
            raise FaultScheduleError(f"dropout needs count >= 1, got {self.count}")


@dataclass(frozen=True)
class BandwidthSag:
    """A channel runs at ``factor`` of its rate during ``[at, at+duration)``."""

    at: float
    duration: float
    factor: float
    resource: str = "ssd"

    def __post_init__(self) -> None:
        _check_at(self.at)
        _check_duration("sag", self.duration)
        object.__setattr__(self, "resource", channel_name(self.resource))
        if not 0 < self.factor < 1:
            raise FaultScheduleError(
                f"sag factor must be in (0, 1), got {self.factor} "
                "(1 is no fault, 0 is a stall — use LatencyStall)"
            )


@dataclass(frozen=True)
class LatencyStall:
    """A channel freezes (FIFO lane held) for ``duration`` seconds at ``at``."""

    at: float
    duration: float
    resource: str = "ssd"

    def __post_init__(self) -> None:
        _check_at(self.at)
        _check_duration("stall", self.duration)
        object.__setattr__(self, "resource", channel_name(self.resource))


FaultEvent = SSDDropout | BandwidthSag | LatencyStall


@dataclass(frozen=True)
class FaultSchedule:
    """An immutable set of timed fault events for one simulated run."""

    events: tuple[FaultEvent, ...] = ()

    def __post_init__(self) -> None:
        seen: set[FaultEvent] = set()
        for event in self.events:
            if not isinstance(event, (SSDDropout, BandwidthSag, LatencyStall)):
                raise FaultScheduleError(f"unknown fault event {event!r}")
            if event in seen:
                raise FaultScheduleError(
                    f"duplicate fault event {event!r}: the same fault cannot "
                    "be scheduled twice in one run"
                )
            seen.add(event)
        self._check_window_overlaps()

    def _check_window_overlaps(self) -> None:
        """Reject same-type windowed events overlapping on one channel.

        Two sags (or two stalls) sharing a channel with overlapping
        windows would silently compound derates (or serialise stalls)
        into a fault nobody asked for; physically distinct faults must
        have disjoint windows.  Different event types may still overlap —
        a sag during a stall is a meaningful scenario.
        """
        for kind in (BandwidthSag, LatencyStall):
            by_resource: dict[str, list] = {}
            for event in self.events:
                if isinstance(event, kind):
                    by_resource.setdefault(event.resource, []).append(event)
            for resource, windowed in by_resource.items():
                windowed.sort(key=lambda e: e.at)
                for prev, nxt in zip(windowed, windowed[1:]):
                    if nxt.at < prev.at + prev.duration:
                        raise FaultScheduleError(
                            f"overlapping {kind.__name__} events on "
                            f"{resource!r}: [{prev.at}, {prev.at + prev.duration}) "
                            f"and [{nxt.at}, {nxt.at + nxt.duration}) — their "
                            "derates would silently compound"
                        )

    def __bool__(self) -> bool:
        return bool(self.events)

    def install(self, machine) -> None:
        """Spawn one injector process per event on ``machine``'s simulator."""
        for event in self.events:
            if isinstance(event, SSDDropout):
                machine.sim.process(_dropout(machine, event))
            elif isinstance(event, BandwidthSag):
                machine.sim.process(_sag(machine, event))
            else:
                machine.sim.process(_stall(machine, event))


def _dropout(machine, event: SSDDropout):
    yield machine.sim.timeout(event.at)
    machine.fail_ssds(event.count)
    machine.trace.record("ssd", "fault_ssd_dropout", machine.sim.now, machine.sim.now, 0.0)


def _sag(machine, event: BandwidthSag):
    # A sag changes a rate; it does not occupy the lane.  Its start and
    # end are zero-length ticks, so busy time never counts the window.
    yield machine.sim.timeout(event.at)
    channel = machine.channel(event.resource)
    channel.derate(event.factor)
    machine.trace.record(event.resource, "fault_bw_sag", machine.sim.now, machine.sim.now, 0.0)
    yield machine.sim.timeout(event.duration)
    channel.derate(1.0 / event.factor)
    machine.trace.record(event.resource, "fault_bw_sag", machine.sim.now, machine.sim.now, 0.0)


def _stall(machine, event: LatencyStall):
    yield machine.sim.timeout(event.at)
    start = yield machine.channel(event.resource).hold(event.duration)
    machine.trace.record(event.resource, "fault_stall", start, machine.sim.now, 0.0)
