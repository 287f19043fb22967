"""Timeline traces and utilization accounting.

Every resource usage in the simulator is recorded as a
:class:`TraceInterval`.  The experiment code defines *stage windows*
(forward / backward / optimizer) and asks for per-resource busy time
within each window — exactly the "PCIe utilization" percentages printed
inside the paper's Fig. 1 timelines.

Busy and union queries read NumPy columns the trace derives once: the
start and end of every positive-length interval, lane by lane (one lane
per resource), each lane in record order.  A busy time adds the clipped
durations in record order with a sequential ``np.cumsum``; a union sorts
the clipped spans by start, merges them with a running maximum and adds
the merged spans the same way.  Both give, bit for bit, what a loop over
the intervals gives when it adds term by term (see DESIGN §5,
"Attribution cost").
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np

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


_new_interval = tuple.__new__


class _Columns(NamedTuple):
    """Positive-length intervals as columns, lane by lane."""

    #: Every resource in the trace, by first appearance, with the slice
    #: of ``start``/``end`` its positive-length intervals occupy.
    lanes: dict[str, tuple[int, int]]
    start: np.ndarray
    end: np.ndarray


def _clip(start: np.ndarray, end: np.ndarray, window_start, window_end):
    """Intervals clipped to windows: ``(lo, hi, hi - lo where positive, else 0)``.

    Window bounds are scalars or ``(k, 1)`` columns; the result then has
    one row per window.
    """
    lo = np.maximum(start, window_start)
    hi = np.minimum(end, window_end)
    length = hi - lo
    return lo, hi, np.where(length > 0.0, length, 0.0)


def _running_sum(terms: np.ndarray) -> np.ndarray:
    """``0.0 + t0 + t1 + ...`` along the last axis, added in order.

    ``np.add.accumulate`` (``np.cumsum``) adds sequentially, where
    ``np.sum`` adds pairwise, so its last column has the bits of a
    term-by-term loop.
    """
    if terms.shape[-1] == 0:
        return np.zeros(terms.shape[:-1])
    return np.add.accumulate(terms, axis=-1)[..., -1]


def _union(lo: np.ndarray, hi: np.ndarray, length: np.ndarray) -> float:
    """Seconds covered by the clipped spans of one window (overlap once).

    Sorted by start, a span opens a new merged span when it starts after
    the running maximum of the ends before it; each merged span ends at
    the largest end among its members.  Ties in start cannot change the
    merge, so the order among them does not matter.
    """
    keep = length > 0.0
    lo = lo[keep]
    if not lo.size:
        return 0.0
    hi = hi[keep]
    order = np.argsort(lo, kind="stable")
    lo = lo[order]
    hi = hi[order]
    reach = np.maximum.accumulate(hi)
    opens = np.flatnonzero(np.concatenate(([True], lo[1:] > reach[:-1])))
    return float(_running_sum(np.maximum.reduceat(hi, opens) - lo[opens]))


@dataclass
class Trace:
    """An append-only list of intervals with aggregation helpers."""

    intervals: list[TraceInterval] = field(default_factory=list)
    _columns_cache: _Columns | None = field(
        default=None, init=False, repr=False, compare=False
    )
    #: How many intervals ``_columns_cache`` was derived from.
    _columns_count: int = field(default=-1, init=False, repr=False, compare=False)

    def record(
        self, resource: str, label: str, start: float, end: float, amount: float
    ) -> None:
        """Append one busy interval (finite times with ``end >= start``)."""
        if not -_INF < start <= end < _INF:
            raise ValueError(
                f"interval times must be finite with end >= start, got {start}..{end}"
            )
        self.intervals.append(
            _new_interval(TraceInterval, (resource, label, start, end, amount))
        )

    def _columns(self) -> _Columns:
        """The positive-length intervals as per-lane columns, derived once.

        Rebuilt only after intervals were appended since the last query.
        """
        intervals = self.intervals
        columns = self._columns_cache
        if columns is not None and self._columns_count == len(intervals):
            return columns
        if intervals:
            resources, _labels, starts, ends, _amounts = zip(*intervals)
        else:
            resources = starts = ends = ()
        names = dict.fromkeys(resources)
        code = {name: index for index, name in enumerate(names)}
        codes = np.fromiter(map(code.__getitem__, resources), np.intp, len(resources))
        start = np.array(starts, dtype=np.float64)
        end = np.array(ends, dtype=np.float64)
        keep = end > start
        codes = codes[keep]
        order = np.argsort(codes, kind="stable")  # lane by lane, record order within
        bounds = np.zeros(len(names) + 1, dtype=np.intp)
        np.cumsum(np.bincount(codes, minlength=len(names)), out=bounds[1:])
        edges = bounds.tolist()
        columns = _Columns(
            lanes={name: (edges[i], edges[i + 1]) for i, name in enumerate(names)},
            start=start[keep][order],
            end=end[keep][order],
        )
        self._columns_cache = columns
        self._columns_count = len(intervals)
        return columns

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
        columns = self._columns()
        lo, hi = columns.lanes.get(resource, (0, 0))
        _lo, _hi, length = _clip(
            columns.start[lo:hi], columns.end[lo:hi], window_start, window_end
        )
        return float(_running_sum(length))

    def busy_table(
        self, resources: list[str], windows: list[tuple[float, float]]
    ) -> tuple[list[list[float]], list[float]]:
        """Busy seconds of each resource in each window, and each window's union.

        ``busy[r][w]`` equals ``busy_time(resources[r], *windows[w])`` and
        ``union[w]`` equals ``union_busy_time(*windows[w], resources)``;
        one clip of the columns serves every window.
        """
        columns = self._columns()
        bounds = np.array(windows, dtype=np.float64).reshape(-1, 2)
        lo, hi, length = _clip(columns.start, columns.end, bounds[:, :1], bounds[:, 1:])
        lanes = columns.lanes
        busy = [
            _running_sum(length[:, slice(*lanes.get(name, (0, 0)))]).tolist()
            for name in resources
        ]
        chosen = lanes.keys() & set(resources)
        if len(chosen) < len(lanes):  # the union covers only the chosen lanes
            member = np.zeros(len(columns.start), dtype=bool)
            for name in chosen:
                member[slice(*lanes[name])] = True
            lo, hi, length = lo[:, member], hi[:, member], length[:, member]
        union = [_union(lo[w], hi[w], length[w]) for w in range(len(bounds))]
        return busy, union

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
        return sorted(self._columns().lanes)

    def union_busy_time(
        self,
        window_start: float = 0.0,
        window_end: float = _INF,
        resources: list[str] | None = None,
    ) -> float:
        """Seconds in a window where *any* of the resources is busy.

        Unlike :meth:`busy_time` this deduplicates overlap across
        resources, which is what per-stage stall/idle accounting needs.
        With ``resources=None`` every resource contributes, so the result
        is the "anything is working" time — the complement of the dead
        time the attribution report calls *idle*.
        """
        if resources is None:
            resources = list(self._columns().lanes)
        return self.busy_table(resources, [(window_start, window_end)])[1][0]

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
