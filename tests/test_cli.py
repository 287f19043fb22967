"""Tests for the command-line interface and the trace exporter."""

from __future__ import annotations

import io
import json
from pathlib import Path

import pytest

from repro.cli import main
from repro.core import RatelPolicy
from repro.hardware import evaluation_server
from repro.models import llm, profile_model
from repro.sim import trace_to_events, write_chrome_trace


def run_cli(*argv) -> tuple[int, str]:
    out = io.StringIO()
    code = main(list(argv), out=out)
    return code, out.getvalue()


class TestPlanCommand:
    def test_feasible_plan(self):
        code, text = run_cli("plan", "13B", "32")
        assert code == 0
        assert "token/s" in text
        assert "case" in text

    def test_infeasible_reports_shortfall(self):
        code, text = run_cli("plan", "412B", "1", "--memory-gb", "128")
        assert code == 1
        assert "does NOT fit" in text

    def test_gpu_selection(self):
        code, text = run_cli("plan", "13B", "8", "--gpu", "3090")
        assert code == 0
        assert "RTX 3090" in text


class TestMaxsizeCommand:
    def test_lists_all_systems(self):
        code, text = run_cli("maxsize", "--memory-gb", "256")
        assert code == 0
        for name in ("FlashNeuron", "ZeRO-Infinity", "ZeRO-Offload", "Ratel"):
            assert name in text


class TestExperimentsCommand:
    def test_single_experiment(self):
        code, text = run_cli("experiments", "fig1")
        assert code == 0
        assert "fig1" in text
        assert "ZeRO-Infinity" in text

    def test_unknown_id_fails_with_hint(self):
        code, text = run_cli("experiments", "fig99")
        assert code == 1
        assert "known ids" in text


class TestTraceCommand:
    def test_writes_loadable_json(self, tmp_path):
        path = str(tmp_path / "trace.json")
        code, text = run_cli("trace", "13B", "8", "-o", path)
        assert code == 0
        payload = json.loads(Path(path).read_text())
        assert len(payload["traceEvents"]) > 100


class TestTraceExport:
    @pytest.fixture(scope="class")
    def result(self):
        return RatelPolicy().simulate(profile_model(llm("13B"), 8), evaluation_server())

    def test_events_cover_all_resources(self, result):
        events = trace_to_events(result.trace)
        categories = {e.get("cat") for e in events if e.get("ph") == "X"}
        assert {"gpu0", "pcie_m2g0", "pcie_g2m0", "ssd", "cpu_adam"} <= categories

    def test_durations_in_microseconds(self, result):
        events = [e for e in trace_to_events(result.trace) if e.get("ph") == "X"]
        total_gpu_us = sum(e["dur"] for e in events if e.get("cat") == "gpu0")
        assert total_gpu_us == pytest.approx(
            result.trace.busy_time("gpu0") * 1e6, rel=1e-6
        )

    def test_stage_markers_included(self, result, tmp_path):
        path = str(tmp_path / "t.json")
        write_chrome_trace(result.trace, path, stage_windows=result.stage_windows)
        payload = json.loads(Path(path).read_text())
        names = {e["name"] for e in payload["traceEvents"]}
        assert "forward" in names and "backward" in names


class TestObsReportCommand:
    def test_prints_attribution_table(self):
        code, text = run_cli("obs", "report", "13B", "32")
        assert code == 0
        assert "bottleneck attribution" in text
        assert "busy_s" in text and "stall_s" in text
        assert "bound by" in text
        assert "vs plan" in text  # predicted-vs-actual line

    def test_infeasible_point_fails(self):
        code, text = run_cli("obs", "report", "412B", "1", "--memory-gb", "128")
        assert code == 1
        assert "does NOT fit" in text

    def test_baseline_system_has_no_plan_line(self):
        code, text = run_cli("obs", "report", "13B", "32", "--system", "zero-infinity")
        assert code == 0
        assert "ZeRO-Infinity" in text
        assert "vs plan" not in text  # baselines carry no Algorithm-1 estimate

    def test_trace_and_metrics_exports(self, tmp_path):
        trace_path = str(tmp_path / "obs.json")
        metrics_path = str(tmp_path / "obs.prom")
        code, text = run_cli(
            "obs", "report", "13B", "8", "--trace", trace_path, "--metrics", metrics_path
        )
        assert code == 0
        payload = json.loads(Path(trace_path).read_text())
        assert len(payload["traceEvents"]) > 100
        prom = Path(metrics_path).read_text()
        assert "# TYPE sweep_cache_misses_total counter" in prom


class TestTraceRoundTrip:
    def test_exported_trace_reads_back(self, tmp_path):
        from repro.sim import read_chrome_trace

        path = str(tmp_path / "trace.json")
        code, _ = run_cli("trace", "13B", "8", "-o", path)
        assert code == 0
        trace, windows = read_chrome_trace(path)
        assert {"forward", "backward"} <= set(windows)
        assert "gpu0" in trace.resources()
        assert trace.busy_time("gpu0") > 0

    def test_round_trip_preserves_busy_time(self, tmp_path):
        from repro.sim import events_to_trace

        result = RatelPolicy().simulate(profile_model(llm("13B"), 8), evaluation_server())
        events = trace_to_events(result.trace, result.stage_windows)
        trace, windows = events_to_trace(events)
        for resource in result.trace.resources():
            assert trace.busy_time(resource) == pytest.approx(
                result.trace.busy_time(resource), rel=1e-9
            )
        assert windows == pytest.approx(result.stage_windows)


class TestObsReportLedger:
    def test_ledger_flag_records_entry(self, tmp_path):
        from repro.obs.ledger import load_ledger

        path = str(tmp_path / "ledger.jsonl")
        code, text = run_cli("obs", "report", "13B", "8", "--ledger", path)
        assert code == 0
        assert f"recorded to {path}" in text
        entry = load_ledger(path).last()
        assert entry.source == "cli"
        assert entry.label.startswith("evaluate:Ratel/13B/b8@")
        assert entry.config_key
        assert entry.attribution() is not None

    def test_without_flag_no_ledger(self, tmp_path, monkeypatch):
        monkeypatch.chdir(tmp_path)
        code, text = run_cli("obs", "report", "13B", "8")
        assert code == 0
        assert "recorded to" not in text


class TestObsDiffCommand:
    def _record(self, path, batch="8"):
        code, _ = run_cli("obs", "report", "13B", batch, "--ledger", path)
        assert code == 0

    def test_ledger_vs_ledger_unchanged(self, tmp_path):
        path = str(tmp_path / "ledger.jsonl")
        self._record(path)
        code, text = run_cli("obs", "diff", path, path)
        assert code == 0
        assert "unchanged" in text

    def test_trace_vs_trace(self, tmp_path):
        path = str(tmp_path / "trace.json")
        code, _ = run_cli("trace", "13B", "8", "-o", path)
        assert code == 0
        code, text = run_cli("obs", "diff", path, path)
        assert code == 0
        assert "iteration:" in text
        assert "trace.json" in text

    def test_mixed_trace_and_ledger(self, tmp_path):
        ledger = str(tmp_path / "ledger.jsonl")
        trace = str(tmp_path / "trace.json")
        self._record(ledger)
        code, _ = run_cli("trace", "13B", "8", "-o", trace)
        assert code == 0
        code, text = run_cli("obs", "diff", trace, ledger)
        assert code == 0
        assert "unchanged" in text

    def test_label_filter_selects_run(self, tmp_path):
        path = str(tmp_path / "ledger.jsonl")
        self._record(path, "8")
        self._record(path, "32")
        label = None
        from repro.obs.ledger import load_ledger

        label = load_ledger(path).entries()[0].label
        code, text = run_cli("obs", "diff", path, path, "--label", label)
        assert code == 0
        assert "b8@" in text and "b32@" not in text

    def test_json_payload_written(self, tmp_path):
        path = str(tmp_path / "ledger.jsonl")
        out_path = str(tmp_path / "diff.json")
        self._record(path)
        code, _ = run_cli("obs", "diff", path, path, "--json", out_path)
        assert code == 0
        payload = json.loads(Path(out_path).read_text())
        assert payload["delta_pct"] == pytest.approx(0.0)
        assert payload["stages"]

    def test_fail_on_regression(self, tmp_path):
        from repro.obs.ledger import RunLedger, load_ledger

        base = str(tmp_path / "base.jsonl")
        slow = str(tmp_path / "slow.jsonl")
        self._record(base)
        entry = load_ledger(base).last()
        entry.metrics = dict(entry.metrics)
        attribution = json.loads(json.dumps(entry.metrics["attribution"]))
        attribution["iteration_time"] *= 1.5
        entry.metrics["attribution"] = attribution
        RunLedger(slow).append(entry)
        code, text = run_cli("obs", "diff", base, slow, "--fail-on-regression")
        assert code == 1
        assert "FAIL" in text
        code, _ = run_cli(
            "obs", "diff", base, slow, "--fail-on-regression", "--threshold-pct", "60"
        )
        assert code == 0

    def test_missing_file_errors(self, tmp_path):
        code, text = run_cli("obs", "diff", str(tmp_path / "a.jsonl"), str(tmp_path / "b.jsonl"))
        assert code == 2
        assert "error" in text


class TestObsHtmlCommand:
    def test_writes_self_contained_report(self, tmp_path):
        import re

        path = str(tmp_path / "report.html")
        code, text = run_cli("obs", "html", "13B", "8", "-o", path)
        assert code == 0
        assert f"wrote {path}" in text
        html = Path(path).read_text()
        assert html.startswith("<!DOCTYPE html>")
        assert "<svg" in html
        assert "<script" not in html.lower()
        urls = set(re.findall(r"https?://[^\"' <>]+", html))
        assert urls <= {"http://www.w3.org/2000/svg"}

    def test_embeds_ledger_history(self, tmp_path):
        ledger = str(tmp_path / "ledger.jsonl")
        path = str(tmp_path / "report.html")
        code, _ = run_cli("obs", "report", "13B", "8", "--ledger", ledger)
        assert code == 0
        code, _ = run_cli("obs", "html", "13B", "8", "-o", path, "--ledger", ledger)
        assert code == 0
        assert "Run ledger" in Path(path).read_text()

    def test_infeasible_point_fails(self, tmp_path):
        code, text = run_cli(
            "obs", "html", "412B", "1", "--memory-gb", "128",
            "-o", str(tmp_path / "r.html"),
        )
        assert code == 1
        assert "does NOT fit" in text


class TestSweepLedger:
    def test_sweep_ledger_records_grid(self, tmp_path):
        from repro import runner
        from repro.obs.ledger import load_ledger

        path = str(tmp_path / "ledger.jsonl")
        try:
            code, _ = run_cli(
                "sweep", "--models", "13B", "--batches", "8",
                "--systems", "ratel", "--ledger", path,
            )
        finally:
            runner.reset()
        assert code == 0
        entries = load_ledger(path).entries()
        assert len(entries) == 1
        assert entries[0].source == "runner"


class TestSweepAdapt:
    def test_adapt_flag_appends_drill_table(self):
        from repro import runner

        try:
            code, text = run_cli(
                "sweep", "--models", "135B", "--batches", "40",
                "--ssds", "6", "--systems", "ratel", "--adapt",
            )
        finally:
            runner.reset()
        assert code == 0
        assert "sweep-adapt" in text
        # One posture column each for the frozen plan, the controller,
        # and the omniscient replanner — plus the swap count.
        for column in ("stale", "adaptive", "oracle", "swaps"):
            assert column in text


class TestFleetCommand:
    def test_fleet_prints_scorecard(self):
        code, text = run_cli("fleet", "--arrivals", "4", "--show-events", "0")
        assert code == 0
        assert "fleet: sjf over 4 jobs" in text
        assert "makespan" in text and "P99" in text

    def test_fleet_adapt_records_escalation_to_ledger(self, tmp_path):
        from repro import runner
        from repro.obs.ledger import load_ledger

        path = str(tmp_path / "fleet.jsonl")
        try:
            code, text = run_cli(
                "fleet", "--arrivals", "10", "--adapt", "--ledger", path,
            )
        finally:
            runner.reset()
        assert code == 0
        assert "degradations=1" in text
        entries = load_ledger(path).entries()
        fleet_entries = [e for e in entries if e.kind == "fleet"]
        assert fleet_entries, "fleet decisions should land in the ledger"
        decisions = {e.metrics["decision"]["decision"] for e in fleet_entries}
        assert "degrade" in decisions

    def test_fleet_scheduler_choices_enforced(self):
        with pytest.raises(SystemExit):
            run_cli("fleet", "--scheduler", "bogus")

    def test_fleet_journal_flag_writes_wal(self, tmp_path):
        import os

        path = str(tmp_path / "journal.jsonl")
        code, text = run_cli(
            "fleet", "--arrivals", "4", "--show-events", "0", "--journal", path,
        )
        assert code == 0
        assert f"journaled scheduler transitions to {path}" in text
        assert os.path.exists(path)
        with open(path) as handle:
            kinds = [json.loads(line)["rec"] for line in handle]
        assert "submit" in kinds and "finish" in kinds

    def test_fleet_resume_requires_journal(self):
        code, text = run_cli("fleet", "--resume")
        assert code == 2
        assert text.startswith("error:") and "--journal" in text

    def test_fleet_resume_missing_journal_file(self, tmp_path):
        code, text = run_cli(
            "fleet", "--resume", "--journal", str(tmp_path / "nope.jsonl"),
        )
        assert code == 2
        assert text.startswith("error:") and "does not exist" in text

    def test_fleet_resume_empty_journal_file(self, tmp_path):
        path = tmp_path / "torn.jsonl"
        path.write_bytes(b'{"rec": "assign", "job_id')  # only a torn tail
        code, text = run_cli("fleet", "--resume", "--journal", str(path))
        assert code == 2
        assert text.startswith("error:")
        assert "no parseable records" in text

    def test_fleet_resume_round_trip(self, tmp_path):
        path = str(tmp_path / "journal.jsonl")
        code, _ = run_cli(
            "fleet", "--arrivals", "4", "--show-events", "0", "--journal", path,
        )
        assert code == 0
        # Everything already terminal: resume replays the journal, finds
        # nothing to requeue, and drains an empty fleet cleanly.
        code, text = run_cli("fleet", "--resume", "--journal", path)
        assert code == 0
        assert f"resumed from {path}" in text
        assert "4 jobs already terminal" in text
        assert "0 requeued" in text

    def test_fleet_resume_skips_a_wrongly_typed_record(self, tmp_path):
        path = str(tmp_path / "journal.jsonl")
        code, _ = run_cli(
            "fleet", "--arrivals", "4", "--show-events", "0", "--journal", path,
        )
        assert code == 0
        with open(path) as handle:
            job_id = json.loads(handle.readline())["job"]["job_id"]
        # Applied, this assign would revive a finished job; its null
        # iter_time gets the record skipped instead.
        damaged = {"rec": "assign", "t": 1.0, "job_id": job_id, "node": "box-4090",
                   "iter_time": None, "remaining": 5, "migrated": False}
        with open(path, "a") as handle:
            handle.write(json.dumps(damaged) + "\n")
        code, text = run_cli("fleet", "--resume", "--journal", path)
        assert code == 0
        assert "4 jobs already terminal" in text
        assert "0 requeued" in text

    def test_fleet_resume_skips_a_degrade_beyond_the_array(self, tmp_path):
        path = str(tmp_path / "journal.jsonl")
        code, _ = run_cli(
            "fleet", "--arrivals", "4", "--show-events", "0", "--journal", path,
        )
        assert code == 0
        # box-4090 has 12 drives: recovery skips this record, with a warning.
        damaged = {"rec": "degrade", "t": 1.0, "node": "box-4090",
                   "failed_ssds": 99, "bw_sag": 1.0}
        with open(path, "a") as handle:
            handle.write(json.dumps(damaged) + "\n")
        code, text = run_cli("fleet", "--resume", "--journal", path)
        assert code == 0
        assert "4 jobs already terminal" in text
        assert "0 requeued" in text

    def test_fleet_shares_runner_parent_flags(self):
        # The consolidated RunOptions parent parser: fleet accepts the
        # same --cache-dir/--retries/--timeout flags sweep does.
        from repro.cli import build_parser

        for command in ("sweep", "fleet", "experiments"):
            args = build_parser().parse_args([command, "--retries", "2"])
            assert args.retries == 2
        args = build_parser().parse_args(["obs", "report", "13B", "8", "--jobs", "3"])
        assert args.jobs == 3


class TestObsReportTraceId:
    """``obs report --trace-id``: success plus every error path."""

    def _traced_entry(self, trace_id: str):
        from repro.obs.ledger import LedgerEntry

        return LedgerEntry(
            label="evaluate:Ratel/13B/b8@test",
            policy="Ratel",
            model="13B",
            batch_size=8,
            server="test",
            feasible=True,
            metrics={"iteration_s": 1.0},
            trace_id=trace_id,
        )

    def test_missing_ledger_is_one_line_error(self, tmp_path):
        code, text = run_cli(
            "obs", "report", "--trace-id", "a" * 32,
            "--ledger", str(tmp_path / "nope.jsonl"),
        )
        assert code == 2
        assert text.startswith("error:")
        assert len(text.strip().splitlines()) == 1

    def test_empty_ledger_says_how_to_record(self, tmp_path):
        path = tmp_path / "empty.jsonl"
        path.touch()
        code, text = run_cli("obs", "report", "--trace-id", "a" * 32, "--ledger", str(path))
        assert code == 2
        assert "is empty" in text
        assert "--ledger" in text  # the actionable part

    def test_unknown_trace_id_reports_scan_size(self, tmp_path):
        from repro.obs.ledger import RunLedger

        path = str(tmp_path / "ledger.jsonl")
        RunLedger(path).append(self._traced_entry("b" * 32))
        code, text = run_cli("obs", "report", "--trace-id", "a" * 32, "--ledger", path)
        assert code == 1
        assert "no entries with trace_id" in text
        assert "1 entries scanned" in text

    def test_matching_trace_id_lists_records(self, tmp_path):
        from repro.obs.ledger import RunLedger

        path = str(tmp_path / "ledger.jsonl")
        ledger = RunLedger(path)
        ledger.append(self._traced_entry("a" * 32))
        ledger.append(self._traced_entry("b" * 32))
        code, text = run_cli("obs", "report", "--trace-id", "a" * 32, "--ledger", path)
        assert code == 0
        assert "1 ledger record(s)" in text
        assert "evaluate" in text

    def test_model_and_batch_required_without_trace_id(self):
        code, text = run_cli("obs", "report")
        assert code == 2
        assert "model and batch are required" in text


class TestObsDiffErrors:
    """``obs diff`` on unusable operands: one-line error, non-zero exit."""

    def test_missing_file_error_is_actionable(self, tmp_path):
        code, text = run_cli(
            "obs", "diff", str(tmp_path / "a.jsonl"), str(tmp_path / "b.jsonl")
        )
        assert code == 2
        assert text.startswith("error:")
        assert "pass a run ledger" in text
        assert len(text.strip().splitlines()) == 1

    def test_empty_ledger_says_how_to_record(self, tmp_path):
        path = tmp_path / "empty.jsonl"
        path.touch()
        code, text = run_cli("obs", "diff", str(path), str(path))
        assert code == 2
        assert "no ledger entry" in text
        assert "--ledger" in text  # the actionable part


class TestObsProfileCommand:
    def test_profiles_and_writes_all_three_artifacts(self, tmp_path):
        speedscope = str(tmp_path / "p.speedscope.json")
        folded = str(tmp_path / "p.folded.txt")
        summary = str(tmp_path / "p.txt")
        code, text = run_cli(
            "obs", "profile", "6B", "8",
            "-o", speedscope, "--collapsed", folded, "--summary", summary,
        )
        assert code == 0
        assert "cold sweep profile" in text
        doc = json.loads(Path(speedscope).read_text())
        assert doc["profiles"][0]["samples"]
        assert Path(folded).read_text().strip()
        assert "attributed" in Path(summary).read_text()

    def test_infeasible_point_fails(self, tmp_path):
        code, text = run_cli(
            "obs", "profile", "412B", "1", "--memory-gb", "128",
            "-o", str(tmp_path / "p.json"),
        )
        assert code == 1
        assert "does NOT fit" in text
