"""The chaos drill end to end (repro.serve.chaos + experiments.ext_serve).

One real run in a scratch directory: every SLO must hold — explicit
shedding only, degraded-but-answered during the crash, bounded latency
under the wedge, breaker recovery, balanced journal accounting across
the simulated kill -9.
"""

from __future__ import annotations

import pytest

from repro.serve import run_chaos_drill


@pytest.fixture(scope="module")
def drill(tmp_path_factory):
    root = str(tmp_path_factory.mktemp("serve-drill"))
    return root, run_chaos_drill(root, seed=3)


@pytest.fixture(scope="module")
def report(drill):
    return drill[1]


def test_drill_passes_all_slos(report):
    assert report.passed, "; ".join(report.violations)


def test_phases_run_in_order(report):
    names = [phase.name for phase in report.phases]
    assert names == ["warmup", "flood", "crash", "slow", "recover", "restart"]


def test_flood_sheds_explicitly(report):
    flood = report.phase("flood")
    assert flood.sent == 48
    assert set(flood.statuses) <= {200, 429, 503}
    assert flood.statuses.get(429, 0) + flood.statuses.get(503, 0) > 0


def test_crash_degrades_instead_of_500(report):
    crash = report.phase("crash")
    assert all(status < 500 or status == 503 for status in crash.statuses)
    degraded = crash.rungs.get("neighbor", 0) + crash.rungs.get("analytic", 0)
    assert degraded > 0


def test_breaker_arc_covers_open_and_closed(report):
    assert "open" in report.breaker_states
    assert report.breaker_states[-1] == "closed"


def test_journal_accounting_balances_across_restart(report):
    journal = report.journal
    assert journal["orphans_after_recovery"] == 0
    assert journal["duplicate_terminals"] == 0
    assert journal["accepted"] == journal["done"] + journal["failed"]
    assert journal["torn_tail_repaired_bytes"] > 0
    assert report.replayed == 1


def test_cache_corruption_caught(report):
    assert report.cache_corrupt_detected > 0


def test_report_payload_is_json_shaped(report):
    payload = report.to_payload()
    assert payload["passed"] is True
    assert len(payload["phases"]) == 6
    assert payload["wall_s"] > 0


def test_ext_serve_experiment_renders(report):
    # The experiment harness reuses the drill; just check the table shape
    # on the module-scoped report rather than re-running the drill.
    from repro.experiments import ext_serve

    results = ext_serve.run(seed=5)
    assert len(results) == 2
    scoreboard, audit = results
    assert scoreboard.experiment == "ext_serve"
    rendered = audit.render()
    assert "drill verdict" in rendered
    assert "FAIL" not in rendered


def test_drill_trace_retrieves_ledger_records(drill):
    # The acceptance round trip: the drill surfaces the causal trace of
    # its first request, and that single trace_id pulls the matching
    # serve records back out of the drill's own ledger.
    import io
    import os

    from repro.cli import main

    root, report = drill
    assert len(report.sample_trace_id) == 32
    out = io.StringIO()
    code = main(
        [
            "obs", "report",
            "--trace-id", report.sample_trace_id,
            "--ledger", os.path.join(root, "serve-ledger.jsonl"),
        ],
        out=out,
    )
    text = out.getvalue()
    assert code == 0, text
    assert "ledger record(s)" in text
    assert "[serve" in text


def test_selftest_exit_code_follows_the_drill_violations(monkeypatch):
    """``repro serve --selftest`` prints ext_serve's tables and exits by
    the drill's own verdict: 0 on a clean run, 1 once a violation is
    forced (here: no cache entry left for the corrupt-cache phase)."""
    import io

    from repro.cli import main
    from repro.serve import chaos

    out = io.StringIO()
    assert main(["serve", "--selftest"], out=out) == 0, out.getvalue()
    text = out.getvalue()
    assert "hardening audit" in text and "0 SLO violations" in text

    monkeypatch.setattr(chaos.glob, "glob", lambda pattern: [])
    out = io.StringIO()
    assert main(["serve", "--selftest"], out=out) == 1
    assert "no cache entry to corrupt" in out.getvalue()
