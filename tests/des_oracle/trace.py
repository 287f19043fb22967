"""Timeline traces and utilization accounting.

Every resource usage in the simulator is recorded as a
:class:`TraceInterval`.  The experiment code defines *stage windows*
(forward / backward / optimizer) and asks for per-resource busy time
within each window — exactly the "PCIe utilization" percentages printed
inside the paper's Fig. 1 timelines.
"""

from __future__ import annotations

from dataclasses import dataclass, field


@dataclass(frozen=True)
class TraceInterval:
    """One busy interval on a resource.

    ``amount`` is bytes for links, FLOPs for compute resources, parameters
    for the CPU-Adam resource — whatever unit the resource's rate uses.
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

    def record(
        self, resource: str, label: str, start: float, end: float, amount: float
    ) -> None:
        """Append one busy interval (``end >= start`` is enforced)."""
        if end < start:
            raise ValueError(f"interval ends before it starts: {start}..{end}")
        self.intervals.append(TraceInterval(resource, label, start, end, amount))

    def busy_time(
        self,
        resource: str,
        window_start: float = 0.0,
        window_end: float = float("inf"),
    ) -> float:
        """Total busy seconds of ``resource`` clipped to a window.

        Intervals on the same resource never overlap (resources serialize
        their users), so a plain sum of clipped durations is exact.
        """
        busy = 0.0
        for interval in self.intervals:
            if interval.resource != resource:
                continue
            lo = max(interval.start, window_start)
            hi = min(interval.end, window_end)
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
        window_end: float = float("inf"),
        label_prefix: str | None = None,
    ) -> float:
        """Total ``amount`` carried by ``resource`` within a window.

        Intervals partially inside the window contribute pro-rata, which
        is correct for constant-rate transfers.
        """
        total = 0.0
        for interval in self.intervals:
            if interval.resource != resource:
                continue
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
        return sorted({interval.resource for interval in self.intervals})

    # -- aggregation -----------------------------------------------------------

    def busy_intervals(
        self,
        resources: list[str] | None = None,
        window_start: float = 0.0,
        window_end: float = float("inf"),
    ) -> list[tuple[float, float]]:
        """Merged (non-overlapping, sorted) busy spans within a window.

        With ``resources=None`` every resource contributes, so the result
        is the "anything is working" timeline — the complement of the
        dead time the attribution report calls *idle*.
        """
        wanted = None if resources is None else set(resources)
        clipped: list[tuple[float, float]] = []
        for interval in self.intervals:
            if wanted is not None and interval.resource not in wanted:
                continue
            lo = max(interval.start, window_start)
            hi = min(interval.end, window_end)
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
        window_end: float = float("inf"),
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
