"""Timeline traces and utilization accounting.

Every resource usage in the simulator is recorded as a
:class:`TraceInterval`.  The experiment code defines *stage windows*
(forward / backward / optimizer) and asks for per-resource busy time
within each window — exactly the "PCIe utilization" percentages printed
inside the paper's Fig. 1 timelines.

Queries read per-resource *lanes*: the intervals grouped by resource
once, each lane in record order, so a query about one resource touches
only that resource's intervals and every sum adds its terms in record
order.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import islice
from typing import NamedTuple

_INF = float("inf")


class TraceInterval(NamedTuple):
    """One busy interval on a resource.

    ``amount`` is bytes for links, FLOPs for compute resources, parameters
    for the CPU-Adam resource — whatever unit the resource's rate uses.
    A named tuple: the simulator records one per transfer, and a tuple
    is the cheapest immutable record Python builds.
    """

    resource: str
    label: str
    start: float
    end: float
    amount: float

    @property
    def duration(self) -> float:
        """Interval length in seconds."""
        return self.end - self.start


@dataclass
class Trace:
    """An append-only list of intervals with aggregation helpers."""

    intervals: list[TraceInterval] = field(default_factory=list)
    _by_resource: dict[str, list[TraceInterval]] = field(
        default_factory=dict, init=False, repr=False, compare=False
    )
    _grouped: int = field(default=0, init=False, repr=False, compare=False)

    def record(
        self, resource: str, label: str, start: float, end: float, amount: float
    ) -> None:
        """Append one busy interval (finite times with ``end >= start``)."""
        if not -_INF < start <= end < _INF:
            raise ValueError(
                f"interval times must be finite with end >= start, got {start}..{end}"
            )
        self.intervals.append(TraceInterval(resource, label, start, end, amount))

    def _lanes(self) -> dict[str, list[TraceInterval]]:
        """Intervals grouped by resource, each lane in record order.

        Grouping is incremental: intervals appended since the last call
        are added to their lanes, so every interval is grouped once.
        """
        intervals = self.intervals
        if self._grouped < len(intervals):
            lanes = self._by_resource
            for interval in islice(intervals, self._grouped, None):
                lane = lanes.get(interval.resource)
                if lane is None:
                    lanes[interval.resource] = lane = []
                lane.append(interval)
            self._grouped = len(intervals)
        return self._by_resource

    def busy_time(
        self,
        resource: str,
        window_start: float = 0.0,
        window_end: float = _INF,
    ) -> float:
        """Total busy seconds of ``resource`` clipped to a window.

        A plain sum of clipped durations, which is exact because the
        intervals of one resource never overlap: a channel serializes its
        users, a latency stall holds the channel's lane, and fault markers
        that only change a rate (sags, dropouts) are zero-length ticks.
        """
        busy = 0.0
        for interval in self._lanes().get(resource, ()):
            start = interval.start
            end = interval.end
            lo = window_start if window_start > start else start
            hi = window_end if window_end < end else end
            if hi > lo:
                busy += hi - lo
        return busy

    def utilization(
        self, resource: str, window_start: float, window_end: float
    ) -> float:
        """Busy fraction of ``resource`` within ``[window_start, window_end]``."""
        span = window_end - window_start
        if span <= 0:
            return 0.0
        return self.busy_time(resource, window_start, window_end) / span

    def moved(
        self,
        resource: str,
        window_start: float = 0.0,
        window_end: float = _INF,
        label_prefix: str | None = None,
    ) -> float:
        """Total ``amount`` carried by ``resource`` within a window.

        Intervals partially inside the window contribute pro-rata, which
        is correct for constant-rate transfers.
        """
        total = 0.0
        for interval in self._lanes().get(resource, ()):
            if label_prefix is not None and not interval.label.startswith(label_prefix):
                continue
            lo = max(interval.start, window_start)
            hi = min(interval.end, window_end)
            if hi <= lo:
                continue
            if interval.duration > 0:
                total += interval.amount * (hi - lo) / interval.duration
            else:
                total += interval.amount
        return total

    def resources(self) -> list[str]:
        """Sorted list of resource names appearing in the trace."""
        return sorted(self._lanes())

    # -- aggregation -----------------------------------------------------------

    def busy_intervals(
        self,
        resources: list[str] | None = None,
        window_start: float = 0.0,
        window_end: float = _INF,
    ) -> list[tuple[float, float]]:
        """Merged (non-overlapping, sorted) busy spans within a window.

        With ``resources=None`` every resource contributes, so the result
        is the "anything is working" timeline — the complement of the
        dead time the attribution report calls *idle*.
        """
        lanes = self._lanes()
        if resources is None:
            selected = lanes.values()
        else:
            selected = [lanes[name] for name in set(resources) if name in lanes]
        clipped: list[tuple[float, float]] = []
        for lane in selected:
            for interval in lane:
                start = interval.start
                end = interval.end
                lo = window_start if window_start > start else start
                hi = window_end if window_end < end else end
                if hi > lo:
                    clipped.append((lo, hi))
        clipped.sort()
        merged: list[tuple[float, float]] = []
        for lo, hi in clipped:
            if merged and lo <= merged[-1][1]:
                if hi > merged[-1][1]:
                    merged[-1] = (merged[-1][0], hi)
            else:
                merged.append((lo, hi))
        return merged

    def union_busy_time(
        self,
        window_start: float = 0.0,
        window_end: float = _INF,
        resources: list[str] | None = None,
    ) -> float:
        """Seconds in a window where *any* of the resources is busy.

        Unlike :meth:`busy_time` this deduplicates overlap across
        resources, which is what per-stage stall/idle accounting needs.
        """
        return sum(hi - lo for lo, hi in self.busy_intervals(resources, window_start, window_end))

    def extend(self, other: "Trace", offset: float = 0.0) -> None:
        """Append another trace's intervals, optionally shifted in time."""
        for interval in other.intervals:
            self.intervals.append(
                TraceInterval(
                    interval.resource,
                    interval.label,
                    interval.start + offset,
                    interval.end + offset,
                    interval.amount,
                )
            )


def merge_traces(*traces: Trace) -> Trace:
    """One trace holding every input's intervals (lanes keep their names).

    The sim + runtime combined export: simulator lanes (``gpu0``,
    ``pcie_*``, ``ssd``, ...) and runtime lanes (``rt_*``) land in one
    Perfetto timeline.  Inputs are not modified.
    """
    merged = Trace()
    for trace in traces:
        merged.extend(trace)
    return merged
