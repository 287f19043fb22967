"""Fault injection and graceful degradation (`repro.faults`).

A multi-day 100B fine-tune on consumer hardware is exactly the setting
where SSDs drop out of the array, spill I/O throws transient errors and
long sweeps die mid-run.  This package provides one fault vocabulary for
all three substrates of the reproduction:

* **simulator** — :class:`FaultSchedule` perturbs a
  :class:`~repro.sim.resources.Machine`'s resources *mid-iteration*:
  :class:`SSDDropout` removes drives from the array,
  :class:`BandwidthSag` temporarily derates a channel and
  :class:`LatencyStall` freezes one (a device timeout).  Pass a schedule
  to :func:`repro.core.engine.run_iteration` (or build the ``Machine``
  with one) and the timeline degrades exactly when the schedule says so.
* **functional runtime** — :class:`FaultInjector` hooks into
  :class:`~repro.runtime.storage.StorageManager` spill I/O: transient
  ``OSError`` on read/write and bit flips in spilled payloads, which the
  hardened storage layer must survive (bounded retry with backoff) or
  detect (a CRC32 per spilled tensor).
* **sweep runner** — the chaos policies (:class:`PoisonPolicy`,
  :class:`FlakyPolicy`, :class:`CrashPolicy`, :class:`SlowPolicy`)
  produce sweep points that raise, crash their worker process, or hang,
  exercising the runner's retry / timeout / quarantine machinery.

Whole fleet nodes fail through the fleet's own API instead:
:meth:`repro.fleet.Fleet.inject_crash` fail-stops a node (with an
optional rejoin), and the crash drill arms its fail-stop and flap
crashes through it.

Everything is deterministic: schedules fire at fixed simulation times
and the injector draws from a seeded RNG, so a fault scenario replays
bit-identically.
"""

from .chaos import (
    ChaosPolicy,
    CrashPolicy,
    FlakyPolicy,
    FlakyThenSlowPolicy,
    PoisonPolicy,
    SlowPolicy,
)
from .inject import FaultInjected, FaultInjector, InjectedIOError
from .schedule import (
    BandwidthSag,
    FaultSchedule,
    FaultScheduleError,
    LatencyStall,
    SSDDropout,
)

__all__ = [
    "BandwidthSag",
    "ChaosPolicy",
    "CrashPolicy",
    "FaultInjected",
    "FaultInjector",
    "FaultSchedule",
    "FaultScheduleError",
    "FlakyPolicy",
    "FlakyThenSlowPolicy",
    "InjectedIOError",
    "LatencyStall",
    "PoisonPolicy",
    "SSDDropout",
    "SlowPolicy",
]
