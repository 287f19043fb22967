"""Self-tests of the benchmark: op lists, statistics, checks, tracing, contract.

Run from the root of a checkout with ``python3 -m pytest perfbench/tests -q``.
"""

from __future__ import annotations

import json
import math
import shutil
import subprocess
import sys
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest

from perfbench import harness, layers, tracing, workloads
from perfbench.harness import OpLog, OpTiming, normalise, tail_percentile

ROOT = Path(__file__).resolve().parents[2]


@pytest.fixture
def workdir(tmp_path: Path) -> Path:
    return tmp_path / "state"


# -- op lists ------------------------------------------------------------------------


def _ops(name: str, seed: int, workdir: Path) -> list:
    workload = workloads.WORKLOADS[name](workdir)
    ops = workload.make_ops(seed, 15)
    if name == "train_step":
        return [ids.tobytes() + targets.tobytes() for ids, targets in ops]
    return ops


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_one_seed_gives_one_op_list(name: str, workdir: Path) -> None:
    assert _ops(name, 3, workdir) == _ops(name, 3, workdir)
    assert _ops(name, 3, workdir) != _ops(name, 4, workdir)


def test_blocks_cover_every_stratum(workdir: Path) -> None:
    cold = workloads.ColdWhatIf(workdir)
    ops = cold.make_ops(5, 15)
    assert len(ops) == len(set(ops)) >= 100
    block = ops[: len(workloads.SYSTEMS) * len(cold.presets)]
    assert sorted((op.system, op.preset) for op in block) == sorted(
        (s, p) for s in workloads.SYSTEMS for p in cold.presets
    )
    for system in workloads.SYSTEMS:  # every system sees every batch size
        assert {op.batch for op in block if op.system == system} == set(cold.batches)
    capacity = workloads.CapacitySearch(workdir).make_ops(5, 15)
    for kind in ("max_trainable", "max_batch"):
        assert sorted(op.mem_gib for op in capacity[:10] if op.kind == kind) == [128, 160, 192, 224, 256]


# -- statistics ------------------------------------------------------------------------


def test_percentile_refuses_thin_tails() -> None:
    samples = [float(i) for i in range(1, 100)]
    with pytest.raises(ValueError, match="at least 10 samples beyond"):
        tail_percentile(samples, 0.9)
    samples.append(100.0)
    assert tail_percentile(samples, 0.9) == pytest.approx(90.5, abs=0.5)


def test_harrell_davis_quantile() -> None:
    assert harness.quantile([3.0, 1.0, 2.0], 0.5) == pytest.approx(2.0)
    assert harness.quantile([5.0] * 7, 0.9) == pytest.approx(5.0)
    # Four equal groups: the plain median sits on the gap between groups two
    # and three; the Harrell-Davis median lies between them, near the middle.
    groups = [1.0] * 10 + [2.0] * 10 + [3.0] * 10 + [4.0] * 10
    assert 2.3 < harness.quantile(groups, 0.5) < 2.7
    assert OpLog([OpTiming(1.0, 1.0, 1.0, 1.0)] * 99, [True] * 99).p90_ms() is None


def test_normalisation_arithmetic() -> None:
    # raw * c_ref / mean(before, after): a host running at half speed halves the time.
    assert normalise(2.0, 1e-3, 3e-3, c_ref_s=1e-3) == pytest.approx(1.0)
    assert normalise(0.5, 2e-3, 2e-3, c_ref_s=1e-3) == pytest.approx(0.25)
    with pytest.raises(ValueError):
        normalise(1.0, 0.0, 0.0)
    timing = OpTiming(0.2, normalise(0.2, 1e-3, 3e-3), 1e-3, 3e-3)
    assert timing.norm_s == pytest.approx(timing.raw_s * timing.scale)
    log = OpLog([OpTiming(0.1, 0.2, 1e-3, 1e-3), OpTiming(0.3, 0.2, 3e-3, 1e-3)], [True, False])
    assert log.ops_per_s() == pytest.approx(2 / 0.4)
    assert log.raw_ops_per_s() == pytest.approx(2 / 0.4)
    assert log.p50_ms() == pytest.approx(200.0)
    assert log.calib_ms() == pytest.approx(1.0)
    assert log.ok_frac() == 0.5


def test_probe_is_about_two_milliseconds() -> None:
    assert 0.2e-3 < harness.probe() < 50e-3


# -- answer checks catch planted bad answers ------------------------------------------------


def test_whatif_check_fails_a_nan_throughput(workdir: Path) -> None:
    cold = workloads.ColdWhatIf(workdir)
    for system in ("zero-offload", "ratel"):
        op = workloads.WhatIf(system, "6B", 4, "4090", 512, 12)
        outcome = cold.run(cold.prepare(op))
        assert outcome.feasible and workloads.whatif_ok(op, outcome)
        outcome.metrics["tokens_per_s"] = math.nan
        assert not workloads.whatif_ok(op, outcome)
    infeasible = workloads.WhatIf("flashneuron", "175B", 64, "4080", 256, 6)
    outcome = cold.run(cold.prepare(infeasible))
    assert not outcome.feasible and workloads.whatif_ok(infeasible, outcome)
    outcome.reason = ""
    assert not workloads.whatif_ok(infeasible, outcome)


def test_capacity_check_fails_an_answer_inside_the_frontier(workdir: Path) -> None:
    capacity = workloads.CapacitySearch(workdir)
    op = workloads.Capacity("ratel", "max_batch", "4090", 256, 12, preset="6B")
    answer = capacity.run(capacity.prepare(op))
    assert answer > 1 and workloads.capacity_ok(op, answer)
    candidates = list(workloads._default(workloads.max_batch_size, "candidates"))
    inside = candidates[candidates.index(answer) - 1]
    assert not workloads.capacity_ok(op, inside)


def test_step_check_fails_different_bytes() -> None:
    reference = {("gpu", "host"): 10.0, ("host", "nvme"): 20.0}
    assert workloads.step_ok(1.5, dict(reference), reference)
    assert not workloads.step_ok(1.5, {**reference, ("host", "nvme"): 21.0}, reference)
    assert not workloads.step_ok(math.nan, dict(reference), reference)


def test_fleet_check_fails_a_job_terminal_twice() -> None:
    submitted = ["job-000", "job-001"]
    results = [SimpleNamespace(spec=SimpleNamespace(job_id=j), state="completed") for j in submitted]
    records = [{"rec": "submit"}] + [{"rec": "finish", "job_id": j} for j in submitted]
    assert workloads.drill_ok(submitted, results, records)
    assert not workloads.drill_ok(submitted, results, records + [{"rec": "reject", "job_id": "job-001"}])
    assert not workloads.drill_ok(submitted, results[:1], records)


# -- digests and the runtime workload --------------------------------------------------------


def test_digests_repeat_for_one_seed(workdir: Path) -> None:
    def digest(name: str, count: int) -> dict:
        workload = workloads.WORKLOADS[name](workdir)
        try:
            ops = workload.make_ops(2, 15)[:count]
            workload.setup(2)
            totals: dict = {}
            for op in ops:
                prepared = workload.prepare(op)
                result = workload.run(prepared)
                assert workload.check(op, prepared, result)
                for key, value in workload.digest(op, prepared, result).items():
                    totals[key] = totals.get(key, 0.0) + value
            return totals
        finally:
            workload.close()

    for name, count in (("cold_whatif", 6), ("train_step", 3)):
        first = digest(name, count)
        assert first and first == digest(name, count)


def test_train_step_moves_the_documented_bytes(workdir: Path) -> None:
    step = workloads.TrainStep(workdir)
    try:
        op = step.make_ops(1, 1)[0]
        step.setup(1)
        loss = step.run(step.prepare(op))
        assert step.check(op, None, loss)
        assert step.digest(op, None, loss) == {
            "runtime.bytes_gpu_host": 182_474.0,
            "runtime.bytes_host_gpu": 65_536.0,
            "runtime.bytes_host_nvme": 884_102.0,
            "runtime.bytes_nvme_host": 884_102.0,
        }
    finally:
        step.close()
    assert not workdir.exists()


# -- tracing -----------------------------------------------------------------------------


def test_tracer_restores_targets_and_reports_missing_layers(monkeypatch) -> None:
    from repro.core import ratel
    from repro.fleet.cluster import Fleet
    from repro.sim import set_event_hook

    original_plan, original_recover = ratel.plan_activation_swapping, Fleet.__dict__["recover"]
    monkeypatch.setattr(
        tracing, "TARGETS", tracing.TARGETS + (("jsonl.gone", "repro.util.jsonl", "Gone.append", None, None),)
    )
    tracer = tracing.Tracer()
    tracer.install()
    try:
        assert ratel.plan_activation_swapping is not original_plan
        assert isinstance(Fleet.__dict__["recover"], classmethod)
        assert tracer.missing == {"jsonl"}
    finally:
        tracer.uninstall()
    assert ratel.plan_activation_swapping is original_plan
    assert Fleet.__dict__["recover"] is original_recover
    assert set_event_hook(None) is None
    values = tracing.layer_metrics(tracer, 1, {}, {"host.calib_ms": 1.0, "host.raw_ops_per_s": 1.0,
                                                   "trace.overhead_frac": 0.0})
    assert values["jsonl.appends"] == (0.0, True)
    assert values["planner.calls"] == (0.0, False)


def test_self_time_subtracts_child_spans() -> None:
    tracer = tracing.Tracer()
    tracer.spans = [
        ["planner.plan", 0.0, 10.0, -1, 0],
        ["models.segments_by_benefit", 2.0, 5.0, 0, 0],
        ["models.segments_by_benefit", 6.0, 7.0, 0, 0],
    ]
    tracer.scales = {0: 2.0}
    inclusive, own, counts = tracer.totals()
    assert own["planner"] == pytest.approx(2.0 * 6.0)
    assert own["models"] == pytest.approx(2.0 * 4.0)
    assert inclusive["planner.plan"] == pytest.approx(20.0)
    assert counts["models.segments_by_benefit"] == 2


# -- the contract ----------------------------------------------------------------------------


def test_benchmark_json_lists_the_metrics_the_benchmark_prints() -> None:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)
    assert [(m["name"], m["unit"], m["better"]) for m in spec["per_layer"]] == [
        (m.name, m.unit, m.better) for m in layers.METRICS
    ]
    assert {m["name"] for m in spec["end_to_end"]} == {
        "setup_s", "ops_per_s", "op_p50_ms", "ok_frac", "peak_rss_mb"
    }
    assert set(layers.PREDICTIONS) == {m.layer for m in layers.METRICS}


def test_run_fails_without_program_sources(tmp_path: Path) -> None:
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench")
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "train_step", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode != 0
    assert "correct" not in proc.stdout


def test_train_step_run_prints_the_contract_result(tmp_path: Path) -> None:
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "train_step", "--seed", "1",
         "--seconds", "0.5", "--trace", "1"],
        cwd=ROOT, capture_output=True, text=True, timeout=180, check=True,
    )
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0
    assert list(result["metrics"]) == [m.name for m in layers.METRICS]
    metrics = {name: m["value"] for name, m in result["metrics"].items()}
    assert metrics["planner.calls"] == 0 and metrics["sim.events"] == 0
    assert metrics["runtime.recompute_blocks"] == workloads.LAYERS
    assert np.isclose(metrics["runtime.bytes_host_nvme"], 884_102.0)
