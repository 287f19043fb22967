"""The per-layer metrics of the traced run and what each should move.

``PREDICTIONS`` records, per layer, which end-to-end metric on which
workload a change to that layer should move, and on which workloads no
change is predicted.  A later performance change names its pairs from
here before it is measured.  ``METRICS`` is the per-layer list that
``BENCHMARK.json`` repeats; digests (marked ``digest=True``) are output
quantities that are fixed for a seed, so a change meant only to speed
things up must leave them identical.
"""

from __future__ import annotations

from typing import NamedTuple


class Metric(NamedTuple):
    name: str
    unit: str
    better: str
    layer: str
    digest: bool = False


_LOWER, _HIGHER = "lower", "higher"

METRICS: tuple[Metric, ...] = (
    Metric("models.recompute_calls", "count/op", _LOWER, "models"),
    Metric("models.sort_calls", "count/op", _LOWER, "models"),
    Metric("models.self_ms", "ms/op", _LOWER, "models"),
    Metric("planner.calls", "count/op", _LOWER, "planner"),
    Metric("planner.steps", "count/op", _LOWER, "planner"),
    Metric("planner.self_ms", "ms/op", _LOWER, "planner"),
    Metric("planner.a_g2m_gb", "GB/op", _LOWER, "planner", digest=True),
    Metric("capacity.probes", "count/op", _LOWER, "capacity"),
    Metric("capacity.self_ms", "ms/op", _LOWER, "capacity"),
    Metric("compile.calls", "count/op", _LOWER, "compile"),
    Metric("compile.ms", "ms/op", _LOWER, "compile"),
    Metric("sim.runs", "count/op", _LOWER, "sim"),
    Metric("sim.events", "count/op", _LOWER, "sim"),
    Metric("sim.self_ms", "ms/op", _LOWER, "sim"),
    Metric("sim.events_per_s", "1/s", _HIGHER, "sim"),
    Metric("sim.simulated_s", "s/op", _LOWER, "sim", digest=True),
    Metric("attribution.ms", "ms/op", _LOWER, "attribution"),
    Metric("runner.points", "count/op", _LOWER, "runner"),
    Metric("runner.hits", "count/op", _HIGHER, "runner"),
    Metric("runner.misses", "count/op", _LOWER, "runner"),
    Metric("runner.hit_ratio", "fraction", _HIGHER, "runner"),
    Metric("runner.key_ms", "ms/op", _LOWER, "runner"),
    Metric("fleet.self_ms", "ms/op", _LOWER, "fleet"),
    Metric("fleet.events", "count/op", _LOWER, "fleet"),
    Metric("fleet.oracle_calls", "count/op", _LOWER, "fleet"),
    Metric("fleet.oracle_ms", "ms/op", _LOWER, "fleet"),
    Metric("fleet.needs_calls", "count/op", _LOWER, "fleet"),
    Metric("fleet.recover_ms", "ms/op", _LOWER, "fleet"),
    Metric("fleet.requeued", "count/op", _LOWER, "fleet"),
    Metric("fleet.quarantines", "count/op", _LOWER, "fleet"),
    Metric("fleet.lost_iterations", "count/op", _LOWER, "fleet", digest=True),
    Metric("jsonl.appends", "count/op", _LOWER, "jsonl"),
    Metric("jsonl.bytes", "B/op", _LOWER, "jsonl"),
    Metric("jsonl.append_ms", "ms/op", _LOWER, "jsonl"),
    Metric("jsonl.fold_ms", "ms/op", _LOWER, "jsonl"),
    Metric("jsonl.repaired_bytes", "B/op", _LOWER, "jsonl"),
    Metric("runtime.forward_ms", "ms/op", _LOWER, "runtime"),
    Metric("runtime.backward_ms", "ms/op", _LOWER, "runtime"),
    Metric("runtime.recompute_blocks", "count/op", _LOWER, "runtime"),
    Metric("runtime.recompute_ms", "ms/op", _LOWER, "runtime"),
    Metric("runtime.storage_moves", "count/op", _LOWER, "runtime"),
    Metric("runtime.storage_ms", "ms/op", _LOWER, "runtime"),
    Metric("runtime.adam_updates", "count/op", _LOWER, "runtime"),
    Metric("runtime.adam_ms", "ms/op", _LOWER, "runtime"),
    Metric("runtime.bytes_gpu_host", "B/op", _LOWER, "runtime", digest=True),
    Metric("runtime.bytes_host_gpu", "B/op", _LOWER, "runtime", digest=True),
    Metric("runtime.bytes_host_nvme", "B/op", _LOWER, "runtime", digest=True),
    Metric("runtime.bytes_nvme_host", "B/op", _LOWER, "runtime", digest=True),
    Metric("host.calib_ms", "ms", _LOWER, "host"),
    Metric("host.raw_ops_per_s", "1/s", _HIGHER, "host"),
    Metric("trace.overhead_frac", "fraction", _LOWER, "host"),
)

#: layer -> (should move: "workload: e2e metrics", no change predicted on).
PREDICTIONS: dict[str, tuple[str, str]] = {
    "models": (
        "capacity_search: ops_per_s, op_p50_ms; cold_whatif: op_p90_ms, ops_per_s; "
        "fleet_replay: ops_per_s",
        "train_step",
    ),
    "planner": (
        "capacity_search: ops_per_s, op_p50_ms; cold_whatif: op_p90_ms, ops_per_s; "
        "fleet_replay: ops_per_s",
        "train_step",
    ),
    "capacity": ("capacity_search: ops_per_s", "cold_whatif, train_step"),
    "compile": ("cold_whatif: op_p50_ms", "capacity_search, train_step"),
    "sim": ("cold_whatif: op_p50_ms, ops_per_s", "capacity_search, train_step"),
    "attribution": ("cold_whatif: op_p50_ms", "capacity_search, train_step"),
    "runner": (
        "fleet_replay: ops_per_s, op_p50_ms",
        "cold_whatif (key time is under 1% of a cold op)",
    ),
    "fleet": ("fleet_replay: ops_per_s, op_p50_ms", "cold_whatif, capacity_search, train_step"),
    "jsonl": ("fleet_replay: ops_per_s", "cold_whatif, capacity_search, train_step"),
    "runtime": (
        "train_step: ops_per_s, op_p50_ms (byte counts also move peak_rss_mb)",
        "cold_whatif, capacity_search, fleet_replay",
    ),
    "host": ("audit only", "-"),
}
