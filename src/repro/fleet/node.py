"""One fleet node: a server preset, its policy, and its health state.

A :class:`Node` wraps a healthy :class:`~repro.hardware.spec.ServerSpec`
(one of the ``repro.hardware`` presets) together with the
:class:`~repro.core.policy.OffloadPolicy` that runs jobs on it — Ratel
on the consumer boxes, Megatron-LM on the DGX-A100 (which has no SSD
array to offload to).  Degradation is modelled the same way the rest of
the repo models it: by *deriving a new server spec* (fewer drives via
``with_ssds``, a thermal bandwidth sag by scaling the SSD spec) and
re-evaluating through :meth:`OffloadPolicy.evaluate`, so a degraded
node's iteration times come out of the full planning/simulation stack
rather than an ad-hoc scale factor.

A node knows its own state exactly, so it runs no drift monitor:
``degrade`` and ``restore`` read the typed
:class:`~repro.adapt.health.DriftEvent` list off the state change itself
(a :class:`~repro.adapt.health.DriveDrift` when the surviving-drive
count moves, a :class:`~repro.adapt.health.BandwidthDrift` while the
array runs below ``BW_RATIO`` of its provisioned rate) — the signal the
:class:`~repro.fleet.cluster.Fleet` escalates into fleet-level
rescheduling.
"""

from __future__ import annotations

from dataclasses import replace
from typing import TYPE_CHECKING

from repro.adapt.health import BW_RATIO, BandwidthDrift, DriftEvent, DriveDrift
from repro.core.policy import OffloadPolicy
from repro.hardware.spec import ServerSpec

from .api import FleetError

if TYPE_CHECKING:  # pragma: no cover - typing only
    from .journal import JobState


class Node:
    """A schedulable server with its degradation state."""

    def __init__(
        self,
        name: str,
        server: ServerSpec,
        policy: OffloadPolicy,
        *,
        hardware_class: str | None = None,
    ) -> None:
        if not name:
            raise FleetError("node name cannot be empty")
        self.name = name
        #: The healthy spec the node was provisioned with (never mutated).
        self.server = server
        self.policy = policy
        self.hardware_class = hardware_class
        #: Drives currently failed out of the array.
        self.failed_ssds = 0
        #: Thermal/firmware bandwidth sag multiplier on the SSD array.
        self.bw_sag = 1.0
        #: Busy seconds accumulated across all completed dispatches.
        self.busy_s = 0.0
        #: The job currently executing here (``None`` when free).
        self.running: "JobState | None" = None
        #: Fail-stop state: a crashed node is gone from the fleet until
        #: it rejoins (its running job is requeued by the cluster).
        self.alive = True
        #: Anti-flap hysteresis: a node that crashes repeatedly inside
        #: the fleet's flap window is quarantined — present but never
        #: scheduled onto — until an operator ``restore()`` clears it.
        self.quarantined = False
        #: Fleet-clock instants of every crash (the hysteresis counter).
        self.crash_times: list[float] = []
        #: (provisioned spec, (failed_ssds, bw_sag), the spec derived from them).
        self._derived: tuple[ServerSpec, tuple[int, float], ServerSpec] | None = None

    def __repr__(self) -> str:  # pragma: no cover - debugging nicety
        if not self.alive:
            state = "crashed"
        elif self.quarantined:
            state = "quarantined"
        else:
            state = "degraded" if self.degraded else "healthy"
        return f"Node({self.name!r}, {self.server.gpu.name}, {state})"

    # -- health ----------------------------------------------------------------

    @property
    def degraded(self) -> bool:
        return self.failed_ssds > 0 or self.bw_sag < 1.0

    @property
    def free(self) -> bool:
        """Schedulable right now: idle, alive, and not quarantined."""
        return self.running is None and self.alive and not self.quarantined

    def crash(self, now: float) -> None:
        """Fail-stop at fleet time ``now`` (the cluster unseats the job)."""
        self.alive = False
        self.crash_times.append(now)

    def rejoin(self) -> None:
        """Come back after a fail-stop (quarantine, if any, persists)."""
        self.alive = True

    def current_server(self) -> ServerSpec:
        """The spec as degraded *right now* — what jobs actually run on.

        Deriving a distinct spec (rather than scaling times after the
        fact) keeps evaluation honest and cacheable: the runner's content
        key covers the full server spec, so healthy and degraded
        evaluations of the same job never collide.  The node derives one
        spec per state (provisioned spec object, ``failed_ssds``,
        ``bw_sag``) and returns that same object until ``degrade`` or
        ``restore`` changes the state.
        """
        state = (self.failed_ssds, self.bw_sag)
        derived = self._derived
        if derived is None or derived[0] is not self.server or derived[1] != state:
            derived = self._derived = (self.server, state, self._derive())
        return derived[2]

    def _derive(self) -> ServerSpec:
        server = self.server
        if self.failed_ssds > 0:
            server = server.with_ssds(self.server.n_ssds - self.failed_ssds)
        if self.bw_sag < 1.0 and server.n_ssds > 0:
            ssd = server.ssd
            server = replace(
                server,
                ssd=replace(
                    ssd,
                    read_bw=ssd.read_bw * self.bw_sag,
                    write_bw=ssd.write_bw * self.bw_sag,
                ),
            )
        return server

    def degrade(
        self, *, failed_ssds: int | None = None, bw_sag: float | None = None
    ) -> list[DriftEvent]:
        """Apply a degradation and return the drift it raises (see :meth:`_drift`).

        Both arguments are checked before either is applied, so a
        rejected call leaves the node as it was.
        """
        if failed_ssds is not None and not 0 <= failed_ssds <= self.server.n_ssds:
            raise FleetError(
                f"node {self.name}: failed_ssds must be in "
                f"[0, {self.server.n_ssds}], got {failed_ssds}"
            )
        if bw_sag is not None and not 0 < bw_sag <= 1:
            raise FleetError(
                f"node {self.name}: bw_sag must be in (0, 1], got {bw_sag}"
            )
        surviving = self.server.n_ssds - self.failed_ssds
        if failed_ssds is not None:
            self.failed_ssds = failed_ssds
        if bw_sag is not None:
            self.bw_sag = bw_sag
        return self._drift(surviving)

    def restore(self) -> list[DriftEvent]:
        """Heal the node back to its provisioned spec.

        Also the operator's path out of quarantine: restoring clears the
        flap history, so the hysteresis counter starts fresh.
        """
        surviving = self.server.n_ssds - self.failed_ssds
        self.failed_ssds = 0
        self.bw_sag = 1.0
        self.quarantined = False
        self.crash_times.clear()
        return self._drift(surviving)

    def _drift(self, surviving_before: int) -> list[DriftEvent]:
        """The drift events of a state change, read off the state itself.

        A changed surviving-drive count raises a :class:`DriveDrift`.  The
        array's effective rate scales with the surviving fraction and the
        sag; while that ratio is below ``BW_RATIO`` the node raises a
        :class:`BandwidthDrift` against the provisioned read rate.  A node
        without an SSD array (the DGX) has nothing to drift.
        """
        n_ssds = self.server.n_ssds
        if n_ssds == 0:
            return []
        surviving = n_ssds - self.failed_ssds
        events: list[DriftEvent] = []
        if surviving != surviving_before:
            events.append(DriveDrift(surviving_before, surviving))
        ratio = (surviving / n_ssds) * self.bw_sag
        if ratio < BW_RATIO:
            profiled = self.server.ssd_read_bw
            events.append(BandwidthDrift("ssd", profiled * ratio, profiled))
        return events
