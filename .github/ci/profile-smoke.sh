#!/usr/bin/env bash
# The self-observation stack's canary: `repro obs profile` must
# profile a small cold sweep end to end and emit a loadable
# speedscope document that names the sim event loop in its top
# frames.  The profile artifacts are uploaded for inspection.  (The
# profiler and causal-trace propagation tests run in the tests job.)
set -euo pipefail
cd "$(dirname "$0")/../.."
export PYTHONPATH=src

# profile a small cold sweep
python -m repro obs profile 6B 8 \
  -o profile_smoke.speedscope.json \
  --collapsed profile_smoke.folded.txt \
  --summary profile_smoke.txt

# speedscope document loads and names the event loop
python - <<'EOF_PROFILE'
import json

doc = json.load(open("profile_smoke.speedscope.json"))
schema = "https://www.speedscope.app/file-format-schema.json"
assert doc["$schema"] == schema, doc.get("$schema")
profile = doc["profiles"][0]
assert profile["type"] == "sampled"
assert len(profile["samples"]) == len(profile["weights"])
names = [frame["name"] for frame in doc["shared"]["frames"]]
assert any("sim.engine:run" in name for name in names), names[:20]
print(f"{len(names)} frames, {len(profile['samples'])} stacks")
EOF_PROFILE
