"""Contended resources: FIFO permits and a rate channel.

* :class:`Semaphore` — FIFO permits.  Several permits bound a pipeline's
  depth (prefetch windows).
* :class:`RateChannel` — a FIFO store-and-forward pipe with a rate:
  a PCIe direction moving bytes, the SSD array moving bytes, the GPU
  executing FLOPs, the CPU-Adam worker updating parameters.  One request
  of size ``amount`` holds the channel for ``amount / rate`` seconds.
  The SSD array's reads and writes share one queue, each at its own
  rate.

FIFO serialization (rather than processor sharing) matches how these
devices behave: one DMA engine per PCIe direction, one io-submission
stream per SSD group, one compute stream per GPU.
"""

from __future__ import annotations

from collections import deque
from heapq import heappush

from .engine import Event, SimulationError, Simulator
from .trace import Trace

_INF = float("inf")


def channel_name(name: str) -> str:
    """The trace name of the channel ``name`` means.

    A bare ``gpu``, ``pcie_m2g`` or ``pcie_g2m`` means device 0; every
    other name is already the channel's own.
    """
    return f"{name}0" if name in ("gpu", "pcie_m2g", "pcie_g2m") else name


class Semaphore:
    """FIFO permits over the simulator.

    ``acquire`` returns an event that triggers once a permit is held;
    ``release`` returns one permit, waking the oldest waiter.  Releasing
    a permit that nobody holds raises ``RuntimeError``.
    """

    def __init__(self, sim: Simulator, permits: int) -> None:
        if permits <= 0:
            raise ValueError(f"semaphore needs positive permits, got {permits}")
        self.sim = sim
        self._limit = permits
        self._permits = permits
        self._waiters: deque[Event] = deque()

    def acquire(self) -> Event:
        """Event that fires when a permit is granted (FIFO)."""
        grant = Event(self.sim)
        if self._permits > 0 and not self._waiters:
            self._permits -= 1
            grant.triggered = True  # a fresh grant has no waiters to wake
        else:
            self._waiters.append(grant)
        return grant

    def release(self) -> None:
        """Return one permit."""
        if self._waiters:
            self._waiters.popleft().succeed()
        elif self._permits < self._limit:
            self._permits += 1
        else:
            raise RuntimeError("semaphore released with no permit held")


#: A queued request: the requester's event, the amount (or a hold's
#: seconds), the trace label (``None`` for a hold), efficiency, write.
_Request = tuple[Event, float, "str | None", float, bool]


class RateChannel:
    """A serialized rate channel with trace recording.

    The channel keeps its own FIFO queue of requests.  ``use`` and
    ``hold`` queue one and return the :class:`Event` its requester
    yields: ``yield channel.use(amount, label)`` inside a process blocks
    until the channel has served every earlier request and then for
    ``amount / rate`` seconds.  A request is priced when it reaches the
    head of the queue, and its completion is one heap entry that records
    the interval, starts the next request and wakes the requester.
    ``write_rate`` gives the channel a second base rate, for requests
    made with ``write=True``: the SSD array's reads and writes share one
    queue (the paper prices the array's I/O "as a whole", Eq. 2) at
    their own rates.  A zero rate means no working device is left behind
    the channel, so a transfer on it raises ``RuntimeError``.

    Two steps run in place when they would be the next callback run
    (see :mod:`repro.sim.engine`): a request on an idle channel starts
    at once when nothing else is due now, and a completion finishes,
    and resumes its requester, at once under the same condition.
    Otherwise each joins the simulator's same-time FIFO, behind the
    callbacks already due, so queued requests, faults and processes
    interleave in the same ``(time, seq)`` order either way.
    """

    def __init__(
        self,
        sim: Simulator,
        name: str,
        rate: float,
        trace: Trace,
        write_rate: float | None = None,
    ) -> None:
        if write_rate is None:
            write_rate = rate
        for value in (rate, write_rate):
            if not 0.0 <= value < _INF:
                raise ValueError(
                    f"channel {name!r} needs a finite non-negative rate, got {value}"
                )
        self.sim = sim
        self.name = name
        #: Base rates before derating: of plain requests and of writes.
        self.base_rate = rate
        self.base_write_rate = write_rate
        self.degrade_factor = 1.0
        self.trace = trace
        #: Queued requests; the head is the one in service.
        self._queue: deque[_Request] = deque()
        #: When the head request was granted.
        self._started = 0.0

    @property
    def rate(self) -> float:
        """Current effective rate (base rate times any fault derating)."""
        return self.base_rate * self.degrade_factor

    def derate(self, factor: float) -> None:
        """Multiply the effective rate by ``factor`` (faults compose)."""
        if not 0.0 < factor < _INF:
            raise ValueError(f"derate factor must be finite and positive, got {factor}")
        self.degrade_factor *= factor

    def use(
        self, amount: float, label: str = "", efficiency: float = 1.0, write: bool = False
    ) -> Event:
        """Occupy the channel for ``amount`` units; the event's value is the end time.

        Zero-amount requests still respect FIFO ordering but take no time.
        The duration is priced at the rate in force *when the channel is
        granted*, so a fault that derates the channel or drops drives out
        of the array slows requests that were already queued — matching
        how a real device degrades.  ``efficiency`` < 1 models a client
        that cannot drive the channel at line rate (e.g. DeepSpeed's aio
        engine on the SSD array); the channel stays occupied for the
        longer duration.
        """
        if not 0.0 <= amount < _INF:
            raise ValueError(
                f"amount on {self.name!r} must be finite and non-negative, got {amount}"
            )
        if not 0 < efficiency <= 1:
            raise ValueError(f"efficiency must be in (0, 1], got {efficiency}")
        # ``_enqueue`` inlined: every transfer of a simulation comes here.
        sim = self.sim
        event = Event(sim)
        queue = self._queue
        queue.append((event, amount, label, efficiency, write))
        if len(queue) == 1:
            ready = sim._ready
            if ready:
                ready.append((self._start, event))
            else:
                self._start(event)
        return event

    def hold(self, duration: float) -> Event:
        """Hold the channel for ``duration`` seconds; the event's value is the hold's start.

        A latency stall freezes the channel this way: every request
        queued behind it waits the stall out.
        """
        if not 0.0 <= duration < _INF:
            raise SimulationError(
                f"hold on {self.name!r} must be finite and non-negative, got {duration}"
            )
        return self._enqueue((Event(self.sim), duration, None, 1.0, False))

    def _enqueue(self, request: _Request) -> Event:
        """Queue ``request``; on an idle channel, start it (in place if next)."""
        queue = self._queue
        queue.append(request)
        event = request[0]
        if len(queue) == 1:
            ready = self.sim._ready
            if ready:
                ready.append((self._start, event))
            else:
                self._start(event)
        return event

    def _start(self, event: Event) -> None:
        """Grant the head request: price it now and schedule its completion."""
        _event, amount, label, efficiency, write = self._queue[0]
        sim = self.sim
        now = sim.now
        self._started = now
        if label is None:
            duration = amount  # a hold waits out its seconds, zero included
        else:
            base = self.base_write_rate if write else self.base_rate
            try:
                duration = amount / (base * self.degrade_factor * efficiency)
            except ZeroDivisionError:
                raise RuntimeError(
                    f"transfer requested on {self.name!r}, which has no working device "
                    "left; the state offloaded to it is unreachable"
                ) from None
            if not duration > 0:
                self._finish(event)
                return
            if duration == _INF:
                raise SimulationError(
                    f"transfer of {amount} on {self.name!r} would never end at the "
                    "current rate"
                )
        end = now + duration
        if end > now:
            heappush(sim._heap, (end, sim._seq, self._complete, event))
            sim._seq += 1
        else:  # rounded away: complete now, behind what is queued
            sim._ready.append((self._complete, event))

    def _complete(self, event: Event) -> None:
        """The head request's time is up: finish it now, or after what is due."""
        ready = self.sim._ready
        if ready:
            ready.append((self._finish, event))
        else:
            self._finish(event)

    def _finish(self, event: Event) -> None:
        """Record the head request, start the next one, resume the requester."""
        sim = self.sim
        queue = self._queue
        _event, amount, label, _efficiency, _write = queue.popleft()
        now = sim.now
        if label is None:
            value = self._started
        else:
            self.trace.record(self.name, label, self._started, now, amount)
            value = now
        if queue:
            sim._ready.append((self._start, queue[0][0]))
        event.triggered = True
        event.value = value
        callbacks = event._callbacks
        for callback in callbacks:
            callback(event)
        callbacks.clear()


class Machine:
    """The simulated server: channels for every contended resource.

    Built from a :class:`repro.hardware.ServerSpec`.  Channels:

    * ``gpu<i>``          — GPU compute, FLOP units.
    * ``pcie_m2g<i>``     — host -> GPU PCIe direction, bytes.
    * ``pcie_g2m<i>``     — GPU -> host PCIe direction, bytes.
    * ``ssd``             — the (simplex) SSD array, bytes, shared by GPUs.
    * ``cpu_adam``        — the out-of-core optimizer workers, parameter units.

    The SSD array is a single channel because reads and writes share the
    platform's lane budget (the paper treats SSD I/O "as a whole",
    Eq. 2).  Its rate is direction-dependent: a request runs at the
    array's read rate, or at its write rate with ``write=True``.

    ``faults`` is an optional duck-typed fault source (in practice a
    :class:`repro.faults.FaultSchedule`); when given, its ``install``
    method is called with the machine so scheduled faults — SSD dropout
    (:meth:`fail_ssds`), bandwidth sags, latency stalls — run as regular
    simulator processes alongside the iteration.
    """

    def __init__(self, server: "ServerSpec", faults=None) -> None:  # noqa: F821 (doc-only name)
        from repro.hardware.spec import ServerSpec  # local import to avoid cycle

        if not isinstance(server, ServerSpec):
            raise TypeError(f"expected ServerSpec, got {type(server)!r}")
        self.server = server
        self.failed_ssds = 0
        self.sim = Simulator()
        self.trace = Trace()
        self.gpus = [
            RateChannel(self.sim, f"gpu{i}", server.gpu.peak_fp16_flops, self.trace)
            for i in range(server.n_gpus)
        ]
        self.pcie_m2g = [
            RateChannel(
                self.sim, f"pcie_m2g{i}", server.gpu_link.bandwidth_per_dir, self.trace
            )
            for i in range(server.n_gpus)
        ]
        self.pcie_g2m = [
            RateChannel(
                self.sim, f"pcie_g2m{i}", server.gpu_link.bandwidth_per_dir, self.trace
            )
            for i in range(server.n_gpus)
        ]
        self.cpu_adam = RateChannel(
            self.sim, "cpu_adam", server.cpu.adam_params_per_s, self.trace
        )
        self.ssd = RateChannel(
            self.sim, "ssd", server.ssd_read_bw, self.trace, write_rate=server.ssd_write_bw
        )
        if faults is not None:
            faults.install(self)

    @property
    def now(self) -> float:
        """Current simulation time."""
        return self.sim.now

    def run(self) -> float:
        """Run the event loop to completion; returns the end time."""
        return self.sim.run()

    def fail_ssds(self, count: int = 1) -> None:
        """Drop ``count`` SSDs out of the array (fault injection).

        The array's base read and write rates are recomputed from the
        server spec with the remaining drives (platform cap included).
        Transfers already queued are priced at the degraded rate when
        they reach the head of the FIFO lane.  Losing the last drive leaves the
        array at zero bandwidth; the next transfer raises, which is the
        correct model — with no SSDs the offloaded states are gone.
        """
        if count < 1:
            raise ValueError(f"fail_ssds needs count >= 1, got {count}")
        self.failed_ssds += count
        degraded = self.server.with_ssds(max(self.server.n_ssds - self.failed_ssds, 0))
        self.ssd.base_rate = degraded.ssd_read_bw
        self.ssd.base_write_rate = degraded.ssd_write_bw

    def channel(self, name: str):
        """Look up a contended resource by trace name (``ssd``, ``gpu0``...).

        ``gpu``/``pcie_m2g``/``pcie_g2m`` without an index mean device 0.
        """
        name = channel_name(name)
        if name == "ssd":
            return self.ssd
        if name == "cpu_adam":
            return self.cpu_adam
        for prefix, group in (
            ("pcie_m2g", self.pcie_m2g),
            ("pcie_g2m", self.pcie_g2m),
            ("gpu", self.gpus),
        ):
            if name.startswith(prefix):
                suffix = name[len(prefix) :]
                try:
                    return group[int(suffix)]
                except (ValueError, IndexError):
                    break
        raise KeyError(
            f"unknown channel {name!r}; expected 'ssd', 'cpu_adam', "
            f"'gpu<i>', 'pcie_m2g<i>' or 'pcie_g2m<i>'"
        )
