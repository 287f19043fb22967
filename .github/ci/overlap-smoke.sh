#!/usr/bin/env bash
# The stall-free optimizer engine's canary: the ext_overlap drill
# must keep showing both stall-free modes (bounded-staleness async
# and step-overlap) beating synchronous Ratel in the simulator, and
# the runtime fidelity half of the frontier must hold — K=0 async
# and overlap bit-identical to sync, K>=1 divergence measured (not
# argued).  BENCH_overlap.json is uploaded for audit.  (The
# bounded-staleness property tests run in the tests job.)
set -euo pipefail
cd "$(dirname "$0")/../.."
export PYTHONPATH=src

# stall-free frontier drill (ext_overlap tables)
python -m repro experiments ext_overlap

# overlap bench (speedup + bit-exactness assertions)
python -m pytest benchmarks/bench_overlap.py -q -m bench_smoke
