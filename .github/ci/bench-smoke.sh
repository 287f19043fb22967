#!/usr/bin/env bash
# Informational: perf numbers from shared runners are noisy, so a
# regression here flags but does not block the merge.
set -euo pipefail
cd "$(dirname "$0")/../.."
export PYTHONPATH=src

# fast benchmark tier
python -m pytest benchmarks -q -m bench_smoke

# export a reference trace
python -m repro trace 13B 32 -o benchmarks/results/iteration_trace.json

# diff bench timings vs committed baseline
# Informational only — flags >10% wall-clock slowdowns in the job
# summary; shared-runner noise means this must never block a merge
# (the deterministic ledger gate lives in the perf-gate job).
python benchmarks/diff_bench.py --baseline-ref HEAD --threshold-pct 10 \
  || echo "bench timing diff flagged a slowdown (informational)"
