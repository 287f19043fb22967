"""The chaos drill: prove the service degrades the way it promises.

One deterministic scenario (seeded, synthetic backend — no real
simulation, the drill tests the *harness*, not the simulator) drives
the full hardening surface through six phases:

1. **warmup** — healthy traffic; everything answers exact.
2. **flood** — a burst far beyond ``burst + max_queue``; overflow must
   be shed with explicit 429/503 only, nothing silently dropped.
3. **crash** — the backend raises; the breaker must open and answers
   must degrade (neighbor/analytic), never 500.
4. **slow** — the backend wedges past the deadline; cooperative
   cancellation must keep admitted-request latency bounded.
5. **recover** — backend healthy again; after the cooldown the breaker
   must close via half-open probes and answers return to exact.
6. **restart** — the service is torn down mid-flight (a torn journal
   tail simulates the ``kill -9``), a fresh instance recovers from the
   journal, and ledger accounting must balance: every accepted request
   terminated exactly once across both incarnations.

The report's ``violations`` list is the SLO check and the drill's only
verdict: empty means the drill passed.  ``ext_serve`` and ``repro serve
--selftest`` print the measured values beside it without judging them
again, ``bench_serve.py`` scores it into ``BENCH_serve.json`` and the
``serve-smoke`` CI job fails on any violation.
"""

from __future__ import annotations

import glob
import os
import threading
import time
from dataclasses import dataclass, field
from typing import Any

from repro.core import EvalOutcome
from repro.fleet.api import percentile

from .journal import RequestJournal
from .service import PlannerService, ServiceConfig, WhatIfQuery

#: The models the drill queries (all cheap: the backend is synthetic).
_DRILL_MODELS = ("6B", "13B", "30B")


class ChaosBackend:
    """A deterministic stand-in for the simulation stack.

    ``mode`` switches the failure behavior; the drill flips it between
    phases.  ``slow`` honours cooperative cancellation: it polls the
    cancel event, so a cancelled request returns promptly instead of
    holding its pool slot for the full wedge.
    """

    def __init__(self) -> None:
        self.mode = "ok"
        self.calls = 0
        self.crashes = 0
        self.wedge_s = 5.0

    def __call__(self, query: WhatIfQuery, cancel: threading.Event) -> dict[str, Any]:
        self.calls += 1
        if self.mode == "crash":
            self.crashes += 1
            raise RuntimeError("injected worker crash")
        if self.mode == "slow":
            # Wedge until cancelled (or the full wedge, if nobody asks).
            if cancel.wait(self.wedge_s):
                raise TimeoutError("cancelled while wedged")
        if cancel.is_set():
            raise TimeoutError("cancelled before compute")
        base = {"6B": 2.0, "13B": 8.0, "30B": 30.0}.get(query.model, 5.0)
        iteration_time = base * (1 + query.batch_size / 64)
        return EvalOutcome(
            policy=query.policy,
            model=query.model,
            batch_size=query.batch_size,
            server=query.server().name,
            feasible=True,
            metrics={
                "iteration_time": iteration_time,
                "tokens_per_s": 4096 * query.batch_size / iteration_time,
            },
        ).to_payload()


@dataclass
class PhaseStats:
    """Latency + status accounting for one drill phase."""

    name: str
    statuses: dict[int, int] = field(default_factory=dict)
    rungs: dict[str, int] = field(default_factory=dict)
    latencies_s: list[float] = field(default_factory=list)

    def note(self, status: int, rung: str, elapsed_s: float) -> None:
        self.statuses[status] = self.statuses.get(status, 0) + 1
        self.rungs[rung] = self.rungs.get(rung, 0) + 1
        self.latencies_s.append(elapsed_s)

    @property
    def sent(self) -> int:
        return len(self.latencies_s)

    @property
    def p99_s(self) -> float:
        return percentile(self.latencies_s, 0.99) if self.latencies_s else 0.0

    def to_payload(self) -> dict[str, Any]:
        return {
            "name": self.name,
            "sent": self.sent,
            "statuses": {str(k): v for k, v in sorted(self.statuses.items())},
            "rungs": dict(sorted(self.rungs.items())),
            "p99_s": round(self.p99_s, 6),
        }


@dataclass
class ChaosReport:
    """The drill's scorecard: phase stats, accounting, SLO verdicts."""

    phases: list[PhaseStats] = field(default_factory=list)
    breaker_states: list[str] = field(default_factory=list)
    journal: dict[str, Any] = field(default_factory=dict)
    cache_corrupt_detected: int = 0
    replayed: int = 0
    violations: list[str] = field(default_factory=list)
    wall_s: float = 0.0
    #: The causal trace of the drill's first request — the handle
    #: ``repro obs report --trace-id`` retrieves its serve ledger
    #: records with.
    sample_trace_id: str = ""

    @property
    def passed(self) -> bool:
        return not self.violations

    def phase(self, name: str) -> PhaseStats:
        for phase in self.phases:
            if phase.name == name:
                return phase
        raise KeyError(name)

    def to_payload(self) -> dict[str, Any]:
        return {
            "passed": self.passed,
            "violations": list(self.violations),
            "phases": [phase.to_payload() for phase in self.phases],
            "breaker_states": list(self.breaker_states),
            "journal": dict(self.journal),
            "cache_corrupt_detected": self.cache_corrupt_detected,
            "replayed": self.replayed,
            "wall_s": round(self.wall_s, 3),
            "sample_trace_id": self.sample_trace_id,
        }


def _drill_config(root: str, seed: int = 0) -> ServiceConfig:
    return ServiceConfig(
        seed=seed,
        rate=200.0,
        burst=8.0,
        workers=2,
        max_queue=4,
        deadline_s=0.3,
        breaker_threshold=3,
        breaker_cooldown_s=0.15,
        retry_attempts=1,
        retry_base_s=0.005,
        cache_dir=os.path.join(root, "cache"),
        journal_path=os.path.join(root, "journal.jsonl"),
        ledger_path=os.path.join(root, "serve-ledger.jsonl"),
    )


def run_chaos_drill(root: str, *, seed: int = 0) -> ChaosReport:
    """Run the full drill under ``root`` (a scratch directory)."""
    started = time.monotonic()
    report = ChaosReport()
    backend = ChaosBackend()
    config = _drill_config(root, seed)
    service = PlannerService(config, backend=backend)

    def fire(phase: PhaseStats, model: str, batch: int) -> None:
        response = service.handle({"model": model, "batch_size": batch})
        if not report.sample_trace_id and response.trace_id:
            report.sample_trace_id = response.trace_id
        phase.note(response.status, response.rung, response.elapsed_s)

    # Phase 1: warmup — healthy traffic answers exact.
    warmup = PhaseStats("warmup")
    report.phases.append(warmup)
    for index, model in enumerate(_DRILL_MODELS):
        fire(warmup, model, 4 + 4 * index)
    if warmup.statuses.get(200, 0) != warmup.sent:
        report.violations.append(
            f"warmup: {warmup.sent - warmup.statuses.get(200, 0)} "
            "healthy requests not answered 200"
        )
    if warmup.rungs.get("exact", 0) != warmup.sent:
        report.violations.append("warmup: healthy answers were not exact fidelity")

    # Phase 2: flood — drown the bucket; overflow shed explicitly.
    flood = PhaseStats("flood")
    report.phases.append(flood)
    threads = [
        threading.Thread(
            target=fire, args=(flood, _DRILL_MODELS[i % 3], 4 + 4 * (i % 3))
        )
        for i in range(48)
    ]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    if flood.sent != 48:
        report.violations.append(
            f"flood: {48 - flood.sent} requests got no response (silent drop)"
        )
    allowed = {200, 429, 503}
    stray = {s for s in flood.statuses if s not in allowed}
    if stray:
        report.violations.append(f"flood: non-contract statuses {sorted(stray)}")
    if flood.statuses.get(429, 0) + flood.statuses.get(503, 0) == 0:
        report.violations.append("flood: overload was never shed")

    # Phase 3: crash — backend raises; breaker opens; answers degrade.
    backend.mode = "crash"
    time.sleep(config.burst / config.rate)  # refill after the flood drained it
    crash = PhaseStats("crash")
    report.phases.append(crash)
    for _ in range(6):
        fire(crash, "70B", 16)
        time.sleep(0.01)  # let the rate bucket refill: test the breaker, not shedding
    if service.breaker.state not in ("open", "half_open"):
        report.violations.append(
            f"crash: breaker is {service.breaker.state}, expected open"
        )
    if any(status >= 500 and status != 503 for status in crash.statuses):
        report.violations.append("crash: a backend crash leaked a 5xx other than 503")
    degraded = crash.rungs.get("neighbor", 0) + crash.rungs.get("analytic", 0)
    if degraded == 0:
        report.violations.append("crash: no degraded answers were served")

    # Phase 4: slow — wedged backend; deadlines + cancellation bound latency.
    # Wait out the cooldown so a half-open probe actually reaches the
    # wedged backend; the probe must come back within the deadline
    # (cooperative cancellation), re-open the breaker, and everyone
    # else must degrade fast.
    backend.mode = "slow"
    time.sleep(config.breaker_cooldown_s * 1.2)
    slow = PhaseStats("slow")
    report.phases.append(slow)
    for _ in range(4):
        fire(slow, "175B", 8)
        time.sleep(0.01)
    latency_bound = 3 * config.deadline_s + 0.5
    if slow.p99_s > latency_bound:
        report.violations.append(
            f"slow: P99 {slow.p99_s:.3f}s exceeds bound {latency_bound:.3f}s"
        )
    if max(slow.latencies_s) < config.deadline_s * 0.9:
        report.violations.append(
            "slow: no request ever reached the wedged backend "
            "(cancellation path untested)"
        )

    # Phase 5: recover — healthy backend; breaker closes via probes.
    backend.mode = "ok"
    time.sleep(config.breaker_cooldown_s * 1.5)
    recover = PhaseStats("recover")
    report.phases.append(recover)
    # Fresh batch sizes: a cache hit would answer exact without touching
    # the backend, and the half-open probe needs to actually run a sim.
    for index in range(6):
        fire(recover, "6B", 40 + 4 * index)
        time.sleep(0.02)
    if service.breaker.state != "closed":
        report.violations.append(
            f"recover: breaker is {service.breaker.state}, expected closed"
        )
    if recover.rungs.get("exact", 0) == 0:
        report.violations.append("recover: no exact answers after recovery")

    # Corrupt-cache injection: a flipped byte must be detected, not served.
    corrupt_before = service.cache.stats.corrupt
    cache_files = sorted(glob.glob(os.path.join(config.cache_dir, "*", "*.json")))
    if not cache_files:
        report.violations.append(
            "corrupt-cache: no cache entry to corrupt (the CRC check went untested)"
        )
    else:
        offset = max(0, os.path.getsize(cache_files[0]) // 2)
        with open(cache_files[0], "r+b") as handle:
            handle.seek(offset)
            byte = handle.read(1) or b"\0"
            handle.seek(offset)
            handle.write(bytes([byte[0] ^ 0xFF]))
        # The cache file name is the content key; drop the memory layer
        # (as a restart would) and read it back from disk — the CRC
        # envelope must turn the damage into a miss, not an answer.
        corrupt_key = os.path.basename(cache_files[0])[: -len(".json")]
        service.cache.clear()
        if service.cache.get(corrupt_key) is not None:
            report.violations.append("corrupt-cache: damaged entry was served")
        probe = service.handle({"model": "6B", "batch_size": 4})
        if probe.status != 200:
            report.violations.append("corrupt-cache: request failed instead of healing")
    report.cache_corrupt_detected = service.cache.stats.corrupt - corrupt_before

    # Phase 6: restart — simulate kill -9 (torn journal tail) + recovery.
    orphan = PhaseStats("restart")
    report.phases.append(orphan)
    # An accepted request whose work never finished (crash between WAL
    # append and answer), plus a torn half-record from mid-append death.
    service.journal.accepted(
        "orphan-00001",
        WhatIfQuery(model="13B", batch_size=12).to_payload(),
        WhatIfQuery(model="13B", batch_size=12).key(),
    )
    service.close()
    with open(config.journal_path, "a", encoding="utf-8") as handle:
        handle.write('{"rec": "accepted", "request_id": "torn-')  # no newline
    restarted = PlannerService(config, backend=backend)
    report.replayed = restarted.recover()
    accounting = RequestJournal(config.journal_path).fold()
    report.journal = {
        "accepted": len(accounting.accepted),
        "done": len(accounting.done),
        "failed": len(accounting.failed),
        "orphans_after_recovery": len(accounting.orphans),
        "duplicate_terminals": accounting.duplicate_terminals,
        "torn_tail_repaired_bytes": restarted.journal.repaired_bytes,
    }
    if report.replayed != 1:
        report.violations.append(
            f"restart: replayed {report.replayed} orphans, expected exactly 1"
        )
    if accounting.orphans:
        report.violations.append(
            f"restart: {len(accounting.orphans)} accepted requests still lost"
        )
    if accounting.duplicate_terminals:
        report.violations.append(
            f"restart: {accounting.duplicate_terminals} requests double-terminated"
        )
    if restarted.journal.repaired_bytes == 0:
        report.violations.append(
            "restart: torn journal tail was not detected and repaired"
        )
    probe = restarted.handle({"model": "13B", "batch_size": 12})
    orphan.note(probe.status, probe.rung, probe.elapsed_s)
    if probe.status != 200:
        report.violations.append("restart: service unhealthy after recovery")
    restarted.close()

    report.breaker_states = [t.to_state for t in service.breaker.transitions]
    if "open" not in report.breaker_states:
        report.violations.append("breaker never opened during the crash phase")
    if report.cache_corrupt_detected == 0 and cache_files:
        report.violations.append("corrupt cache entry was served undetected")
    report.wall_s = time.monotonic() - started
    return report
