#!/usr/bin/env bash
# The fleet scheduler's canary: the bursty-trace drill must run end
# to end under every policy, the oracle-guided scheduler must beat
# FIFO on P99, and the mid-trace degradation must force at least one
# fleet-level migration/requeue — recorded to the fleet decision
# ledger, which is uploaded for audit alongside BENCH_fleet.json.
set -euo pipefail
cd "$(dirname "$0")/../.."
export PYTHONPATH=src

# fleet benches (SJF-beats-FIFO + escalation assertions)
python -m pytest benchmarks/bench_fleet.py -q -m bench_smoke

# bursty-trace drill with fleet decision ledger
python - <<'EOF_DRILL'
from repro.fleet import run_bursty_drill
from repro.obs.ledger import load_ledger

outcome = run_bursty_drill("sjf", ledger="fleet_ledger.jsonl")
moved = outcome.metrics["migrations"] + outcome.metrics["requeues"]
assert outcome.metrics["degradations"] >= 1, "fault never injected"
assert moved >= 1, "degradation forced no migration/requeue"
entries = [
    e for e in load_ledger("fleet_ledger.jsonl").entries()
    if e.kind == "fleet"
]
assert entries, "no fleet decisions in the ledger"
decisions = {e.metrics["decision"]["decision"] for e in entries}
assert "requeue" in decisions or "migrate" in decisions
print(
    f"{moved} migration/requeue decisions, "
    f"{len(entries)} fleet ledger entries"
)
EOF_DRILL
