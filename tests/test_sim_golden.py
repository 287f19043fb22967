"""Golden discrete-event runs: every simulated number, bit for bit.

``tests/golden/des_results.json`` pins one record per simulated case:

* the four Ratel variants and every policy in :mod:`repro.baselines`,
  on LLM and DiT presets and synthetic LLM sizes, at several batches, on
  the three servers of ``tests/test_plan_golden.py``;
* data-parallel Ratel and ZeRO-Infinity on 2 and 4 GPUs;
* one run per fault kind (SSD dropout, a bandwidth sag on ``ssd`` and on
  ``pcie_m2g0``, a latency stall) and one three-drive dropout whose
  record also holds the ``remaining_ssds`` the run reports.

Per case the record holds the iteration time, the hidden optimizer
seconds and the stage windows; the interval count and a sha256 over
``(resource, label, start, end, amount)`` of every interval in record
order; the events dispatched, counted per kind through the event hook;
and the ``collect_metrics`` payload.  Floats are stored with
``float.hex``, so the comparison is exact.

Kernel, trace and attribution optimisations must leave every record
unchanged.  Regenerate the file only for a deliberate change of
simulated behaviour::

    PYTHONPATH=src python tests/test_sim_golden.py

``tests/test_sim_oracle.py`` checks the kernel itself against a copy of
an earlier kernel on random process graphs.
"""

from __future__ import annotations

import hashlib
import json
from pathlib import Path

from repro.baselines import (
    CapuchinPolicy,
    CheckmatePolicy,
    ColossalAIPolicy,
    FastDiTPolicy,
    FlashNeuronPolicy,
    G10ActivationPolicy,
    G10Policy,
    GreedySnakePolicy,
    MegatronPolicy,
    ZenFlowPolicy,
    ZeroInfinityPolicy,
    ZeroOffloadPolicy,
)
from repro.core import RatelPolicy, collect_metrics, run_iteration
from repro.core.multi_gpu import run_data_parallel
from repro.faults import BandwidthSag, FaultSchedule, LatencyStall, SSDDropout
from repro.hardware import RTX_3090, RTX_4080, RTX_4090, GiB, evaluation_server
from repro.models import DIT_PRESETS, LLM_PRESETS, llm, profile_model, synthetic_llm
from repro.sim import engine

GOLDEN = Path(__file__).parent / "golden" / "des_results.json"

BATCHES = (1, 8, 32)
SYNTHETIC_BILLIONS = (0.3, 2, 50)

POLICIES = (
    ("ratel-optimized", lambda: RatelPolicy("optimized")),
    ("ratel-naive", lambda: RatelPolicy("naive")),
    ("ratel-zero", lambda: RatelPolicy("zero")),
    ("ratel-cpuact", lambda: RatelPolicy("cpuact")),
    ("capuchin", CapuchinPolicy),
    ("checkmate", CheckmatePolicy),
    ("colossal-ai", ColossalAIPolicy),
    ("fast-dit", FastDiTPolicy),
    ("flashneuron", FlashNeuronPolicy),
    ("g10-activation", G10ActivationPolicy),
    ("g10", lambda: G10Policy(assume_gpudirect=True)),
    ("greedysnake", GreedySnakePolicy),
    ("megatron", MegatronPolicy),
    ("zenflow", ZenFlowPolicy),
    ("zero-infinity", ZeroInfinityPolicy),
    ("zero-offload", ZeroOffloadPolicy),
)

#: The fault and drive-count cases run Ratel 13B at batch 32 on this server.
FAULT_SERVER = evaluation_server(gpu=RTX_4090, main_memory_bytes=256 * GiB, n_ssds=6)
FAULTS = (
    ("none", ()),
    ("ssd-dropout", (SSDDropout(at=2.0, count=2),)),
    ("sag-ssd", (BandwidthSag(at=1.0, duration=60.0, factor=0.5, resource="ssd"),)),
    ("sag-pcie_m2g0", (BandwidthSag(at=1.0, duration=60.0, factor=0.5, resource="pcie_m2g0"),)),
    ("stall-ssd", (LatencyStall(at=3.0, duration=0.5, resource="ssd"),)),
)


def _configs() -> list[tuple[str, object]]:
    configs: list[tuple[str, object]] = [(f"llm-{n}", c) for n, c in LLM_PRESETS.items()]
    configs += [(f"dit-{n}", c) for n, c in DIT_PRESETS.items()]
    configs += [(f"synthetic-{b}B", synthetic_llm(b * 1e9)) for b in SYNTHETIC_BILLIONS]
    return configs


def _servers() -> list[tuple[str, object]]:
    return [
        ("4090-768GiB-12ssd", evaluation_server(gpu=RTX_4090, main_memory_bytes=768 * GiB, n_ssds=12)),
        ("3090-256GiB-6ssd", evaluation_server(gpu=RTX_3090, main_memory_bytes=256 * GiB, n_ssds=6)),
        ("4080-128GiB-1ssd", evaluation_server(gpu=RTX_4080, main_memory_bytes=128 * GiB, n_ssds=1)),
    ]


def _exact(value):
    """``value`` with every float replaced by its ``float.hex`` form."""
    if isinstance(value, float):
        return value.hex()
    if isinstance(value, dict):
        return {key: _exact(item) for key, item in value.items()}
    if isinstance(value, (list, tuple)):
        return [_exact(item) for item in value]
    return value


def _trace_digest(trace) -> dict:
    digest = hashlib.sha256()
    for interval in trace.intervals:
        digest.update(
            f"{interval.resource}\t{interval.label}\t{float(interval.start).hex()}\t"
            f"{float(interval.end).hex()}\t{float(interval.amount).hex()}\n".encode()
        )
    return {"intervals": len(trace.intervals), "sha256": digest.hexdigest()}


def _counted(run, *args, **kwargs):
    """``run(*args, **kwargs)`` with every dispatched event counted per kind."""
    counts: dict[str, int] = {}

    def hook(callback, arg):
        kind = engine.event_kind(callback)
        counts[kind] = counts.get(kind, 0) + 1
        callback(arg)

    previous = engine.set_event_hook(hook)
    try:
        result = run(*args, **kwargs)
    finally:
        engine.set_event_hook(previous)
    return result, dict(sorted(counts.items()))


def _result_record(result, events: dict, metrics: dict) -> dict:
    return {
        "iteration_time": _exact(result.iteration_time),
        "hidden_s": _exact(result.hidden_s),
        "stage_windows": _exact(result.stage_windows),
        "trace": _trace_digest(result.trace),
        "events": events,
        "metrics": _exact(metrics),
    }


def _policy_records() -> list[dict]:
    configs = _configs()
    servers = _servers()
    records = []
    for i, (policy_name, make_policy) in enumerate(POLICIES):
        for j, (config_name, config) in enumerate(configs):
            batch = BATCHES[(i + j) % len(BATCHES)]
            server_name, server = servers[(i + 2 * j) % len(servers)]
            record = {"case": f"{policy_name}/{config_name}/b{batch}/{server_name}"}
            profile = profile_model(config, batch)
            outcome, events = _counted(make_policy().evaluate, profile, server)
            record["feasible"] = outcome.feasible
            record["supported"] = outcome.supported
            if outcome.result is not None:
                record.update(_result_record(outcome.result, events, outcome.metrics))
            records.append(record)
    return records


def _fault_records() -> list[dict]:
    policy = RatelPolicy()
    profile = profile_model(llm("13B"), 32)
    schedule = policy.compile(profile, FAULT_SERVER)
    estimate = policy.plan(profile, FAULT_SERVER).estimate
    records = []
    for name, fault_events in FAULTS:
        faults = FaultSchedule(fault_events)
        result, events = _counted(run_iteration, FAULT_SERVER, schedule, faults=faults)
        record = {"case": f"fault/{name}"}
        record.update(_result_record(result, events, collect_metrics(result, estimate=estimate)))
        records.append(record)
    faults = FaultSchedule((SSDDropout(at=2.0, count=3),))
    result, events = _counted(run_iteration, FAULT_SERVER, schedule, faults=faults)
    record = {"case": "drives/ssd-dropout"}
    record.update(_result_record(result, events, collect_metrics(result, estimate=estimate)))
    record["remaining_ssds"] = result.remaining_ssds
    records.append(record)
    return records


def _data_parallel_records() -> list[dict]:
    records = []
    for policy_name, make_policy in (("ratel", RatelPolicy), ("zero-infinity", ZeroInfinityPolicy)):
        for n_gpus in (2, 4):
            server = evaluation_server(n_gpus=n_gpus)
            result, events = _counted(
                run_data_parallel, make_policy(), llm("13B"), 16 * n_gpus, server
            )
            records.append(
                {
                    "case": f"data-parallel/{policy_name}/13B/{n_gpus}gpu",
                    "iteration_time": _exact(result.iteration_time),
                    "trace": _trace_digest(result.trace),
                    "events": events,
                }
            )
    return records


def des_records() -> list[dict]:
    """One record per golden case, floats in exact hex form."""
    return _policy_records() + _fault_records() + _data_parallel_records()


def test_des_results_match_golden_exactly():
    golden = json.loads(GOLDEN.read_text(encoding="utf-8"))
    simulated = [record for record in golden if "events" in record]
    assert len(simulated) >= 150
    assert {record["case"].split("/")[0] for record in golden} >= {name for name, _ in POLICIES}
    current = des_records()
    assert [record["case"] for record in current] == [record["case"] for record in golden]
    mismatched = [(want, got) for want, got in zip(golden, current) if want != got]
    assert not mismatched, (
        f"{len(mismatched)} cases changed; first: {mismatched[0][0]['case']}"
    )


if __name__ == "__main__":
    GOLDEN.parent.mkdir(parents=True, exist_ok=True)
    with open(GOLDEN, "w", encoding="utf-8") as handle:
        handle.write("[\n")
        handle.write(",\n".join(json.dumps(r, sort_keys=True) for r in des_records()))
        handle.write("\n]\n")
    print(f"wrote {GOLDEN}")
