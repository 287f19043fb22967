#!/usr/bin/env bash
# The resilience stack's canary: the SSD-failure tables and the standard
# fault drill (dropout + bandwidth sag + recovery) must keep running
# end to end, the adaptive controller must actually swap plans, and
# its decision ledger is uploaded for audit.
set -euo pipefail
cd "$(dirname "$0")/../.."
export PYTHONPATH=src

# resilience + adaptive drill tables
python -m repro experiments ext

# fault drill with controller-decision ledger
python - <<'EOF'
from repro.adapt import drill_outcome
from repro.obs.ledger import RunLedger

ledger = RunLedger("adapt_ledger.jsonl")
outcome = drill_outcome(ledger=ledger)
swaps = outcome.metrics["plan_swaps"]
assert swaps > 0, "standard drill produced no plan swaps"
entries = [e for e in ledger.entries() if e.kind == "adapt"]
assert len(entries) == swaps, (
    f"{swaps} swaps but {len(entries)} ledger entries"
)
print(f"{swaps} plan swaps recorded to adapt_ledger.jsonl")
EOF
