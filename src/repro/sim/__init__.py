"""Discrete-event simulation substrate.

The paper's evaluation hardware (consumer GPU + NVMe array + commodity
CPUs) is replaced by this simulator: iteration engines are coroutine
processes contending for :class:`~repro.sim.resources.RateChannel`
resources, and the recorded :class:`~repro.sim.trace.Trace` yields the
stage breakdowns and PCIe-utilization numbers the paper reports.  Every
channel, the SSD array's shared read/write lane included, is one rate
channel serializing its users on its own FIFO queue;
:class:`~repro.sim.resources.Semaphore` bounds prefetch windows.
"""

from .engine import (
    AllOf,
    Event,
    Process,
    SimulationError,
    Simulator,
    Timeout,
    event_kind,
    set_event_hook,
)
from .export import (
    events_to_trace,
    lane_order,
    read_chrome_trace,
    trace_to_events,
    write_chrome_trace,
)
from .resources import Machine, RateChannel, Semaphore
from .trace import Trace, TraceInterval, merge_traces

__all__ = [
    "AllOf",
    "Event",
    "Machine",
    "Process",
    "RateChannel",
    "SimulationError",
    "Simulator",
    "Timeout",
    "Semaphore",
    "Trace",
    "TraceInterval",
    "event_kind",
    "events_to_trace",
    "lane_order",
    "set_event_hook",
    "read_chrome_trace",
    "merge_traces",
    "trace_to_events",
    "write_chrome_trace",
]
