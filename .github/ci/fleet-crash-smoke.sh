#!/usr/bin/env bash
# The crash-fault-tolerance canary: kill -9 the fleet coordinator
# mid-append (torn journal tail and all), recover from the repaired
# write-ahead journal, and hold the three modes to the crash-safety
# contract (repro.fleet.crash_contract) on every push.  The recovered
# journals and the fleet decision ledger are uploaded for audit.
# (The crash/recovery property tests run in the tests job; the
# journal overhead bench runs in fleet-smoke.)
set -euo pipefail
cd "$(dirname "$0")/../.."
export PYTHONPATH=src

# coordinator kill -9 drill (resume vs restart vs no-journal)
python - <<'EOF_CRASH'
from repro.fleet import crash_contract, run_crash_drill

reports = [
    run_crash_drill(
        "sjf",
        mode=mode,
        journal_path=f"crash_journal_{mode}.jsonl"
        if mode != "no-journal" else None,
        ledger="fleet_crash_ledger.jsonl"
        if mode == "resume" else None,
    )
    for mode in ("resume", "restart", "no-journal")
]
for report in reports:
    print(
        f"{report.mode}: lost={report.lost_jobs} dup={report.duplicated_jobs} "
        f"redone={report.lost_iterations} "
        f"repaired={report.journal_repaired_bytes}B"
    )
violations = crash_contract(reports)
assert not violations, "; ".join(violations)
EOF_CRASH
