#!/usr/bin/env bash
# The planner service's canary: the daemon must boot and answer a
# real what-if query over HTTP, and the chaos drill (flood, backend
# crash, wedged workers, corrupt cache, kill -9 + restart) must meet
# every SLO — zero violations, explicit shedding only, journal
# accounting balanced.  The drill's scorecard and the service's
# decision ledger are uploaded for audit.
set -euo pipefail
cd "$(dirname "$0")/../.."
export PYTHONPATH=src

# boot the daemon and answer a what-if query over HTTP
python -m repro serve --port 8787 --cache-dir serve-cache \
  --ledger serve_ledger.jsonl &
SERVE_PID=$!
trap 'kill $SERVE_PID 2>/dev/null || true' EXIT
for i in $(seq 1 50); do
  curl -sf http://127.0.0.1:8787/healthz >/dev/null 2>&1 && break
  sleep 0.2
done
curl -sf http://127.0.0.1:8787/healthz
echo
curl -sf -X POST http://127.0.0.1:8787/v1/whatif \
  -H 'Content-Type: application/json' \
  -d '{"model": "13B", "batch_size": 8}' | tee whatif.json
echo
python - <<'EOF_CHECK'
import json

answer = json.load(open("whatif.json"))
assert answer["status"] == 200, answer
assert answer["rung"] == "exact", answer
assert answer["feasible"] is True, answer
print(f"13B b8: {answer['metrics']['tokens_per_s']:.0f} tokens/s")
EOF_CHECK
curl -sf http://127.0.0.1:8787/metrics | grep -E 'requests_|answers_'
kill $SERVE_PID

# chaos drill (fails on any SLO violation)
python -m repro serve --selftest

# scored drill report (BENCH_serve.json)
python -m pytest benchmarks/bench_serve.py -q -m bench_smoke
