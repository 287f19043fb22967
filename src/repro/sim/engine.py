"""A small discrete-event simulation kernel.

The training-iteration engines (:mod:`repro.core.engine` and the baseline
policies) are written as coroutine *processes* that ``yield`` events:
timeouts, channel transfers, or other processes.  The kernel is a classic
event-heap design, similar in spirit to SimPy but only a few hundred
lines, dependency-free and deterministic.

Determinism: ties in the event heap break on a monotonically increasing
sequence number, so two runs of the same workload produce identical
timelines.  The kernel's invariant is that every callback runs in the
``(time, seq)`` order a plain push-every-callback kernel gives it; the
golden corpus in ``tests/golden/des_results.json`` and the oracle
property in ``tests/test_sim_oracle.py`` pin it.

Hot path: a simulated iteration dispatches a few thousand callbacks, so
the kernel schedules inline rather than through a helper, timeouts
schedule their own bound ``succeed``, and processes keep their bound
``_resume`` and ``generator.send``.  Callbacks due at the current time
go to a FIFO ``deque`` beside the heap; the heap keeps only entries due
later.  The loop runs the heap's entries due at ``now`` first (they
were scheduled before time reached ``now``, so their sequence numbers
are lower), then the FIFO, and only then advances time: the same
``(time, seq)`` order, without a heap push and pop for same-time work.
A delay that rounds away (``now + d == now`` for a tiny ``d > 0``)
joins the FIFO too, since a heap entry at ``now`` would jump the queue.
A callback that would be the very next one run runs in place instead of
being queued: that is the case when the FIFO is empty (no heap entry is
ever due at ``now`` while a callback runs).  Then a process keeps
sending while the event it yielded has already triggered, and a
:class:`~repro.sim.resources.RateChannel` starts an idle lane's request,
or finishes a completed one, without queueing.  Such a callback runs
exactly where the loop would have run it, so no order changes; it only
skips the queueing and the event hook.
"""

from __future__ import annotations

from collections import deque
from collections.abc import Generator
from heapq import heappop, heappush
from typing import Any, Callable

_INF = float("inf")


class SimulationError(RuntimeError):
    """Raised for kernel misuse (double trigger, yielding a non-event...)."""


class Event:
    """A one-shot occurrence processes can wait on.

    An event is *triggered* at most once with an optional value; all
    callbacks registered before or after the trigger run at the trigger
    time (callbacks added afterwards run immediately at the current
    simulation time).
    """

    __slots__ = ("sim", "_callbacks", "triggered", "value")

    def __init__(self, sim: "Simulator") -> None:
        self.sim = sim
        self._callbacks: list[Callable[["Event"], None]] = []
        self.triggered = False
        self.value: Any = None

    def succeed(self, value: Any = None) -> "Event":
        """Trigger the event now, waking every waiter."""
        if self.triggered:
            raise SimulationError("event triggered twice")
        self.triggered = True
        self.value = value
        callbacks = self._callbacks
        if callbacks:
            append = self.sim._ready.append
            for callback in callbacks:
                append((callback, self))
            callbacks.clear()
        return self

    def add_callback(self, callback: Callable[["Event"], None]) -> None:
        """Run ``callback(event)`` when the event triggers (or now if it has)."""
        if self.triggered:
            self.sim._ready.append((callback, self))
        else:
            self._callbacks.append(callback)


class Timeout(Event):
    """An event that triggers ``delay`` seconds after creation."""

    __slots__ = ()

    def __init__(self, sim: "Simulator", delay: float) -> None:
        if not 0.0 <= delay < _INF:
            raise SimulationError(f"timeout delay must be finite and non-negative, got {delay}")
        self.sim = sim
        self._callbacks = []
        self.triggered = False
        self.value = None
        time = sim.now + delay
        if time > sim.now:
            heappush(sim._heap, (time, sim._seq, self.succeed, None))
            sim._seq += 1
        else:  # zero, or rounded away: due now, behind what is queued
            sim._ready.append((self.succeed, None))


class AllOf(Event):
    """Triggers when every child event has triggered.

    The value is the list of child values in the order given.
    """

    __slots__ = ("_pending", "_children")

    def __init__(self, sim: "Simulator", events: list[Event]) -> None:
        super().__init__(sim)
        self._children = list(events)
        self._pending = len(self._children)
        if self._pending == 0:
            self.succeed([])
            return
        for event in self._children:
            event.add_callback(self._child_done)

    def _child_done(self, _event: Event) -> None:
        self._pending -= 1
        if self._pending == 0 and not self.triggered:
            self.succeed([child.value for child in self._children])


ProcessGenerator = Generator[Event, Any, Any]


class Process(Event):
    """A coroutine driven by the simulator.

    The wrapped generator yields :class:`Event` objects; the process
    resumes with the event's value when it triggers.  When the generator
    returns, the process (itself an event) succeeds with the return value,
    so processes can wait on each other.
    """

    __slots__ = ("_send", "_wake")

    def __init__(self, sim: "Simulator", generator: ProcessGenerator) -> None:
        self.sim = sim
        self._callbacks = []
        self.triggered = False
        self.value = None
        self._send = generator.send
        self._wake = self._resume
        sim._ready.append((self._wake, _START))

    def _resume(self, event: Any) -> None:
        # Sending None to a fresh generator starts it, like next().
        ready = self.sim._ready
        value = event.value
        while True:
            try:
                target = self._send(value)
            except StopIteration as stop:
                self.succeed(stop.value)
                return
            if not isinstance(target, Event):
                raise SimulationError(
                    f"process yielded {target!r}; processes must yield Event instances"
                )
            if not target.triggered:
                target._callbacks.append(self._wake)
                return
            if ready:
                # Another callback is due first: queue behind it.
                ready.append((self._wake, target))
                return
            value = target.value


class _Start:
    """The argument of a process's first resume: sends ``None``."""

    __slots__ = ()
    value = None


_START = _Start()


#: Optional per-event dispatch hook (installed by :mod:`repro.obs.profile`).
#: ``None`` is the permanent fast path: the event loop pays one module
#: global read and a ``None`` check per event — the <2% disabled-overhead
#: bar in ``bench_obs.py`` covers it.  When set, the hook *replaces* the
#: dispatch (``hook(callback, arg)`` must invoke ``callback(arg)``), which
#: lets a profiler time each callback without a second clock read here.
_event_hook: Callable[[Callable[[Any], None], Any], None] | None = None


def set_event_hook(
    hook: Callable[[Callable[[Any], None], Any], None] | None,
) -> Callable[[Callable[[Any], None], Any], None] | None:
    """Install (or clear, with ``None``) the event hook; returns the previous one."""
    global _event_hook
    previous = _event_hook
    _event_hook = hook
    return previous


def event_kind(callback: Callable[[Any], None]) -> str:
    """The event-type name a dispatch callback belongs to.

    Heap callbacks are bound methods of kernel objects (``Timeout.succeed``,
    ``Process._resume``, ``RateChannel`` starts and completions,
    ``Event``-callback closures from user code), so
    the owner's class name is the natural per-event-type key the hot-spot
    counters aggregate on.
    """
    owner = getattr(callback, "__self__", None)
    if owner is not None:
        return type(owner).__name__
    return getattr(callback, "__qualname__", repr(callback))


class Simulator:
    """The event loop: a time-ordered heap of callbacks plus a same-time FIFO.

    Typical use::

        sim = Simulator()

        def job():
            yield sim.timeout(1.0)
            return "done"

        proc = sim.process(job())
        sim.run()
        assert sim.now == 1.0 and proc.value == "done"
    """

    def __init__(self) -> None:
        self.now = 0.0
        #: Entries due after ``now``: ``(time, seq, callback, arg)``.
        self._heap: list[tuple[float, int, Callable[[Any], None], Any]] = []
        #: Heap entries made so far; the tie-break among equal times.
        self._seq = 0
        #: Callbacks due at ``now``, in the order they were scheduled.
        self._ready: deque[tuple[Callable[[Any], None], Any]] = deque()

    def timeout(self, delay: float) -> Timeout:
        """An event triggering ``delay`` seconds from now."""
        return Timeout(self, delay)

    def event(self) -> Event:
        """A fresh untriggered event (trigger it with :meth:`Event.succeed`)."""
        return Event(self)

    def process(self, generator: ProcessGenerator) -> Process:
        """Start a coroutine process; returns the process-as-event."""
        return Process(self, generator)

    def all_of(self, events: list[Event]) -> AllOf:
        """Event triggering once all ``events`` have triggered."""
        return AllOf(self, events)

    def run(self) -> float:
        """Process events until none is left; returns the final time."""
        heap = self._heap
        ready = self._ready
        popleft = ready.popleft
        append = ready.append
        while True:
            if ready:
                callback, arg = popleft()
            elif heap:
                # Time advances: the heap's entries due then keep their
                # seq order, ahead of whatever their callbacks queue.
                time, _seq, callback, arg = heappop(heap)
                self.now = time
                while heap and heap[0][0] <= time:
                    _time, _seq, later, later_arg = heappop(heap)
                    append((later, later_arg))
            else:
                return self.now
            if _event_hook is None:
                callback(arg)
            else:
                _event_hook(callback, arg)
