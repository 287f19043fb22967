#!/usr/bin/env bash
# The crash-fault-tolerance canary: kill -9 the fleet coordinator
# mid-append (torn journal tail and all), recover from the repaired
# write-ahead journal, and assert the contract on every push — no
# job lost, no job double-completed, and checkpoint-aware resume
# redoing strictly less work than restart-from-zero.  The recovered
# journals and the fleet decision ledger are uploaded for audit.
# (The crash/recovery property tests run in the tests job; the
# journal overhead bench runs in fleet-smoke.)
set -euo pipefail
cd "$(dirname "$0")/../.."
export PYTHONPATH=src

# coordinator kill -9 drill (resume vs restart vs no-journal)
python - <<'EOF_CRASH'
from repro.fleet import run_crash_drill

reports = {
    mode: run_crash_drill(
        "sjf",
        mode=mode,
        journal_path=f"crash_journal_{mode}.jsonl"
        if mode != "no-journal" else None,
        ledger="fleet_crash_ledger.jsonl"
        if mode == "resume" else None,
    )
    for mode in ("resume", "restart", "no-journal")
}
for mode in ("resume", "restart"):
    assert reports[mode].lost_jobs == 0, f"{mode}: jobs lost"
for mode, report in reports.items():
    assert report.duplicated_jobs == 0, f"{mode}: double-completed"
assert (
    reports["resume"].lost_iterations
    < reports["restart"].lost_iterations
), "resume should redo strictly less work than restart"
assert reports["no-journal"].lost_jobs > 0, (
    "the journal-less baseline should demonstrably lose jobs"
)
for mode, report in reports.items():
    print(
        f"{mode}: lost={report.lost_jobs} dup={report.duplicated_jobs} "
        f"redone={report.lost_iterations} "
        f"repaired={report.journal_repaired_bytes}B"
    )
EOF_CRASH
