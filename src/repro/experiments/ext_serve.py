"""Extension: the hardened what-if planner service under chaos.

The planning stack so far answers capacity questions *offline* (CLI
sweeps, experiment grids).  This extension runs the same questions as a
*service* — :mod:`repro.serve` — and scores the hardening, not the
answers: the chaos drill floods it, crashes its backend, wedges its
workers past the deadline, corrupts its cache, and kills it mid-flight,
then checks the SLOs the design promises.

Two tables come out:

* the per-phase scoreboard — request counts by status and fidelity
  rung, and the P99 latency the admitted requests actually saw; the
  shape to look for is *explicit* shedding during the flood (429/503,
  never a hang), *degraded but answered* during the crash (analytic
  rung, still 200), and a return to exact fidelity after recovery;
* the accounting audit — breaker transition arc, journal balance after
  the simulated ``kill -9`` + restart (every accepted request
  terminated exactly once), torn-tail repair, cache corruption caught
  by checksum — closed by the drill's verdict, its SLO ``violations``.

The audit states what was measured; only the drill judges it, so the
tables cannot disagree with the drill's pass/fail.  ``repro serve
--selftest`` prints the same tables (:func:`tables`).
"""

from __future__ import annotations

import tempfile

from repro.analysis.report import ExperimentResult
from repro.serve import ChaosReport, run_chaos_drill

SEED = 7


def run(seed: int = SEED) -> list[ExperimentResult]:
    """Run the chaos drill and fold the report into result tables."""
    with tempfile.TemporaryDirectory(prefix="repro-serve-drill-") as root:
        return tables(run_chaos_drill(root, seed=seed))


def tables(report: ChaosReport) -> list[ExperimentResult]:
    """The drill's per-phase scoreboard and its hardening audit."""
    scoreboard = ExperimentResult(
        experiment="ext_serve",
        title="planner service chaos drill: per-phase outcomes",
        columns=["phase", "sent", "200", "429", "503", "rungs", "P99 (s)"],
    )
    for phase in report.phases:
        rungs = ", ".join(
            f"{name}:{count}" for name, count in sorted(phase.rungs.items())
        )
        scoreboard.add_row(
            phase.name,
            phase.sent,
            phase.statuses.get(200, 0),
            phase.statuses.get(429, 0),
            phase.statuses.get(503, 0),
            rungs or "-",
            f"{phase.p99_s:.3f}",
        )
    scoreboard.note(
        "flood overflow is shed explicitly (429 rate / 503 queue-full, "
        "Retry-After attached); backend crashes degrade answers down the "
        "ladder (analytic rung, still 200) instead of surfacing 5xx; "
        "after the cooldown the breaker's half-open probe restores exact "
        "fidelity"
    )

    audit = ExperimentResult(
        experiment="ext_serve",
        title="hardening audit: breaker, journal, cache",
        columns=["check", "value"],
    )
    journal = report.journal
    audit.add_row("breaker transition arc", " -> ".join(report.breaker_states) or "-")
    audit.add_row(
        "journal accounting (accepted = terminated)",
        f"{journal.get('accepted', 0)} accepted, "
        f"{journal.get('done', 0)} done + {journal.get('failed', 0)} failed, "
        f"{journal.get('orphans_after_recovery', 0)} orphans",
    )
    audit.add_row(
        "double-run protection",
        f"{journal.get('duplicate_terminals', 0)} duplicate terminals, "
        f"{report.replayed} replayed",
    )
    audit.add_row(
        "torn journal tail",
        f"{journal.get('torn_tail_repaired_bytes', 0)} bytes repaired",
    )
    audit.add_row(
        "cache corruption",
        f"{report.cache_corrupt_detected} flipped entries caught by CRC",
    )
    audit.add_row(
        "drill verdict",
        f"{len(report.violations)} SLO violations in {report.wall_s:.2f}s",
    )
    for violation in report.violations:
        audit.add_row("SLO violation", violation)
    audit.note(
        "kill -9 is simulated by tearing the journal tail mid-record and "
        "restarting; recovery truncates the torn half-line, replays each "
        "accepted-but-unterminated request against the cache first (no "
        "double simulation), and the accounting must balance exactly"
    )
    return [scoreboard, audit]
