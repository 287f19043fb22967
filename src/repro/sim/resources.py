"""Contended resources: exclusive servers and rate channels.

Two kinds cover everything the iteration engines need:

* :class:`ExclusiveResource` — a FIFO mutex (e.g. the GPU compute queue
  when a policy needs explicit request/release around irregular work).
* :class:`RateChannel` — a FIFO store-and-forward pipe with a fixed rate:
  a PCIe direction moving bytes, the SSD array moving bytes, the GPU
  executing FLOPs, the CPU-Adam worker updating parameters.  One request
  of size ``amount`` occupies the channel for ``amount / rate`` seconds.

FIFO serialization (rather than processor sharing) matches how these
devices behave: one DMA engine per PCIe direction, one io-submission
stream per SSD group, one compute stream per GPU.
"""

from __future__ import annotations

from collections import deque
from collections.abc import Generator
from typing import Any

from .engine import Event, Simulator, Timeout
from .trace import Trace

_INF = float("inf")


def _check_request(name: str, amount: float, efficiency: float) -> None:
    """Reject a negative or non-finite amount, or an efficiency outside (0, 1]."""
    if not 0.0 <= amount < _INF:
        raise ValueError(f"amount on {name!r} must be finite and non-negative, got {amount}")
    if not 0 < efficiency <= 1:
        raise ValueError(f"efficiency must be in (0, 1], got {efficiency}")


class ExclusiveResource:
    """A FIFO mutex over the simulator.

    Usage inside a process::

        grant = resource.request()
        yield grant
        ...critical section...
        resource.release()
    """

    def __init__(self, sim: Simulator, name: str) -> None:
        self.sim = sim
        self.name = name
        self._queue: deque[Event] = deque()
        self._busy = False

    def request(self) -> Event:
        """An event that triggers when the caller holds the resource."""
        grant = Event(self.sim)
        if not self._busy and not self._queue:
            # Nobody waits on a fresh grant yet, so triggering it is
            # just the flag: succeed() would schedule no callbacks.
            self._busy = True
            grant.triggered = True
        else:
            self._queue.append(grant)
        return grant

    def release(self) -> None:
        """Release the resource, granting the next waiter if any."""
        if not self._busy:
            raise RuntimeError(f"release of idle resource {self.name!r}")
        if self._queue:
            self._queue.popleft().succeed()
        else:
            self._busy = False


class Semaphore:
    """A counting semaphore: bounds pipeline depth (prefetch windows).

    ``acquire`` returns an event that triggers once a permit is held;
    ``release`` returns one permit, waking the oldest waiter.
    """

    def __init__(self, sim: Simulator, permits: int) -> None:
        if permits <= 0:
            raise ValueError(f"semaphore needs positive permits, got {permits}")
        self.sim = sim
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
        else:
            self._permits += 1


class RateChannel:
    """A serialized constant-rate channel with trace recording.

    ``use`` is a sub-generator: ``yield from channel.use(amount, label)``
    inside a process blocks until the channel has served all earlier
    requests and then for ``amount / rate`` seconds.
    """

    def __init__(self, sim: Simulator, name: str, rate: float, trace: Trace) -> None:
        if not 0.0 < rate < _INF:
            raise ValueError(f"channel {name!r} needs a finite positive rate, got {rate}")
        self.sim = sim
        self.name = name
        self._base_rate = rate
        self.degrade_factor = 1.0
        self.trace = trace
        self._lock = ExclusiveResource(sim, name)
        self.total_amount = 0.0
        self.busy_time = 0.0

    @property
    def rate(self) -> float:
        """Current effective rate (base rate times any fault derating)."""
        return self._base_rate * self.degrade_factor

    @property
    def lock(self) -> ExclusiveResource:
        """The channel's FIFO lane (fault stalls hold it explicitly)."""
        return self._lock

    def set_rate(self, rate: float) -> None:
        """Change the base rate; derating factors still apply on top."""
        if not 0.0 < rate < _INF:
            raise ValueError(f"channel {self.name!r} needs a finite positive rate, got {rate}")
        self._base_rate = rate

    def derate(self, factor: float) -> None:
        """Multiply the effective rate by ``factor`` (faults compose)."""
        if not 0.0 < factor < _INF:
            raise ValueError(f"derate factor must be finite and positive, got {factor}")
        self.degrade_factor *= factor

    def service_time(self, amount: float, efficiency: float = 1.0) -> float:
        """Seconds the channel needs for ``amount`` units *at the current rate*.

        ``efficiency`` < 1 models a client that cannot drive the channel
        at line rate (e.g. DeepSpeed's aio engine on the SSD array); the
        channel stays occupied for the longer duration.
        """
        _check_request(self.name, amount, efficiency)
        return amount / (self.rate * efficiency)

    def use(
        self, amount: float, label: str = "", efficiency: float = 1.0
    ) -> Generator[Event, Any, float]:
        """Occupy the channel for ``amount`` units; returns completion time.

        Zero-amount requests still respect FIFO ordering but take no time.
        The duration is priced at the rate in force *when the channel is
        granted*, so a fault that derates the channel slows requests that
        were already queued — matching how a real device degrades.
        """
        if not (0.0 <= amount < _INF and 0 < efficiency <= 1):
            _check_request(self.name, amount, efficiency)
        yield self._lock.request()
        sim = self.sim
        duration = amount / (self._base_rate * self.degrade_factor * efficiency)
        start = sim.now
        try:
            if duration > 0:
                yield Timeout(sim, duration)
        finally:
            end = sim.now
            self.trace.record(self.name, label, start, end, amount)
            self.total_amount += amount
            self.busy_time += end - start
            self._lock.release()
        return end


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
    Eq. 2).  Its rate is direction-dependent, so requests pass an explicit
    per-request rate through :meth:`ssd_read` / :meth:`ssd_write`.

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
        # The SSD array is one FIFO lane; per-request duration depends on
        # direction, which `_SSDArray` handles.
        self.ssd = _SSDArray(self.sim, server, self.trace)
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

        The array's base bandwidth is recomputed from the server spec
        with the remaining drives (platform cap included).  Transfers
        already queued are priced at the degraded rate when they reach
        the head of the FIFO lane.  Losing the last drive leaves the
        array at zero bandwidth; the next transfer raises, which is the
        correct model — with no SSDs the offloaded states are gone.
        """
        if count < 1:
            raise ValueError(f"fail_ssds needs count >= 1, got {count}")
        self.failed_ssds += count
        remaining = max(self.server.n_ssds - self.failed_ssds, 0)
        self.ssd.set_ssds(remaining)

    def channel(self, name: str):
        """Look up a contended resource by trace name (``ssd``, ``gpu0``...).

        ``gpu``/``pcie_m2g``/``pcie_g2m`` without an index mean device 0.
        """
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
                suffix = name[len(prefix) :] or "0"
                try:
                    return group[int(suffix)]
                except (ValueError, IndexError):
                    break
        raise KeyError(
            f"unknown channel {name!r}; expected 'ssd', 'cpu_adam', "
            f"'gpu<i>', 'pcie_m2g<i>' or 'pcie_g2m<i>'"
        )


class _SSDArray:
    """Simplex SSD array: one FIFO lane, direction-dependent rate.

    Bandwidth is derived state: a base per-direction rate recomputed from
    the server spec when drives drop out (:meth:`set_ssds`), times a
    :attr:`degrade_factor` that transient sags multiply into.  Both are
    read *when a transfer reaches the head of the lane*, so queued
    requests feel faults that strike while they wait.
    """

    name = "ssd"

    def __init__(self, sim: Simulator, server: "ServerSpec", trace: Trace) -> None:  # noqa: F821
        self.sim = sim
        self.trace = trace
        self.server = server
        self._base_read_bw = server.ssd_read_bw
        self._base_write_bw = server.ssd_write_bw
        self.degrade_factor = 1.0
        self._lock = ExclusiveResource(sim, self.name)
        self.total_read = 0.0
        self.total_written = 0.0
        self.busy_time = 0.0

    @property
    def read_bw(self) -> float:
        """Current effective read bandwidth (bytes/s)."""
        return self._base_read_bw * self.degrade_factor

    @property
    def write_bw(self) -> float:
        """Current effective write bandwidth (bytes/s)."""
        return self._base_write_bw * self.degrade_factor

    @property
    def lock(self) -> ExclusiveResource:
        """The array's FIFO lane (fault stalls hold it explicitly)."""
        return self._lock

    def set_ssds(self, n_ssds: int) -> None:
        """Recompute base bandwidth for ``n_ssds`` remaining drives."""
        if n_ssds < 0:
            raise ValueError(f"n_ssds cannot be negative, got {n_ssds}")
        degraded = self.server.with_ssds(n_ssds)
        self._base_read_bw = degraded.ssd_read_bw
        self._base_write_bw = degraded.ssd_write_bw

    def derate(self, factor: float) -> None:
        """Multiply the effective bandwidth by ``factor`` (faults compose)."""
        if not 0.0 < factor < _INF:
            raise ValueError(f"derate factor must be finite and positive, got {factor}")
        self.degrade_factor *= factor

    def _use(
        self, nbytes: float, direction: str, label: str, efficiency: float
    ) -> Generator[Event, Any, float]:
        yield self._lock.request()
        rate = self.read_bw if direction == "read" else self.write_bw
        if rate <= 0:
            raise RuntimeError(
                "SSD transfer requested but the array has no working drives "
                f"({self.server.n_ssds} provisioned); offloaded state is unreachable"
            )
        sim = self.sim
        start = sim.now
        try:
            duration = nbytes / (rate * efficiency)
            if duration > 0:
                yield Timeout(sim, duration)
        finally:
            end = sim.now
            self.trace.record(self.name, label, start, end, nbytes)
            self.busy_time += end - start
            self._lock.release()
        return end

    def read(
        self, nbytes: float, label: str = "ssd_read", efficiency: float = 1.0
    ) -> Generator[Event, Any, float]:
        """SSD -> main memory transfer (sub-generator)."""
        _check_request(self.name, nbytes, efficiency)
        self.total_read += nbytes
        return self._use(nbytes, "read", label, efficiency)

    def write(
        self, nbytes: float, label: str = "ssd_write", efficiency: float = 1.0
    ) -> Generator[Event, Any, float]:
        """Main memory -> SSD transfer (sub-generator)."""
        _check_request(self.name, nbytes, efficiency)
        self.total_written += nbytes
        return self._use(nbytes, "write", label, efficiency)
