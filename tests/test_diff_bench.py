"""Tests for the CI regression gate (``benchmarks/diff_bench.py``)."""

from __future__ import annotations

import importlib.util
import json
import os

import pytest

from repro.obs.attribution import attribute
from repro.obs.ledger import LedgerEntry, RunLedger
from repro.sim import Trace

_SPEC = importlib.util.spec_from_file_location(
    "diff_bench",
    os.path.join(os.path.dirname(__file__), "..", "benchmarks", "diff_bench.py"),
)
diff_bench = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(diff_bench)

_CONFTEST_SPEC = importlib.util.spec_from_file_location(
    "bench_conftest",
    os.path.join(os.path.dirname(__file__), "..", "benchmarks", "conftest.py"),
)
bench_conftest = importlib.util.module_from_spec(_CONFTEST_SPEC)
_CONFTEST_SPEC.loader.exec_module(bench_conftest)


class TestWriteBenchJson:
    """``BENCH_<name>.json`` keeps only numbers some bench still writes."""

    def test_named_section_replaced_whole(self, tmp_path, monkeypatch):
        monkeypatch.setattr(bench_conftest, "RESULTS_DIR", str(tmp_path))
        path = tmp_path / "BENCH_obs.json"
        path.write_text(
            json.dumps(
                {
                    "profiler": {"events_per_simulate": 1626, "sim_loops": 9},
                    "before": {"profiler": {"events_per_simulate": 1626}},
                    "tests": {"test_a_s": 1.0, "test_b_s": 2.0},
                    "steps": 3,
                }
            )
        )
        bench_conftest.write_bench_json("obs", {"profiler": {"events_per_simulate": 904}})
        bench_conftest.write_bench_json("obs", {"tests": {"test_b_s": 2.5, "test_c_s": 3.0}})
        assert json.loads(path.read_text()) == {
            "profiler": {"events_per_simulate": 904},  # sim_loops is gone
            "before": {"profiler": {"events_per_simulate": 1626}},  # named by no payload
            "tests": {"test_a_s": 1.0, "test_b_s": 2.5, "test_c_s": 3.0},
            "steps": 3,
        }


def _attribution_payload(backward_end: float, ssd_heavy: bool) -> dict:
    trace = Trace()
    trace.record("gpu0", "fwd", 0.0, 1.8, 0.0)
    trace.record("gpu0", "bwd", 2.0, 5.6, 0.0)
    ssd_end = backward_end - 0.2 if ssd_heavy else 4.5
    trace.record("ssd", "swap", 2.5, ssd_end, 0.0)
    windows = {"forward": (0.0, 2.0), "backward": (2.0, backward_end)}
    return attribute(trace, windows).to_payload()


def _write_ledger(path, iteration: float, *, ssd_heavy: bool = False) -> None:
    entry = LedgerEntry(
        label="evaluate:Ratel/13B/b8@test",
        policy="Ratel",
        model="13B",
        batch_size=8,
        server="test",
        feasible=True,
        metrics={
            "iteration_time": iteration,
            "tokens_per_s": 1000.0 / iteration,
            "attribution": _attribution_payload(iteration, ssd_heavy),
        },
        config_key="same-key",
    )
    RunLedger(str(path)).append(entry)


@pytest.fixture
def results_dir(tmp_path):
    directory = tmp_path / "results"
    directory.mkdir()
    return directory


def _gate(results_dir, current, extra=()):
    return diff_bench.main(
        [
            "--results-dir", str(results_dir),
            "--ledger-current", str(current),
            *extra,
        ]
    )


class TestLedgerGate:
    def test_identical_ledgers_pass(self, results_dir, tmp_path, capsys):
        _write_ledger(results_dir / "ledger.jsonl", 6.0)
        _write_ledger(tmp_path / "current.jsonl", 6.0)
        assert _gate(results_dir, tmp_path / "current.jsonl") == 0
        assert "No regressions" in capsys.readouterr().out

    def test_regression_fails(self, results_dir, tmp_path, capsys):
        _write_ledger(results_dir / "ledger.jsonl", 6.0)
        _write_ledger(tmp_path / "current.jsonl", 8.0, ssd_heavy=True)
        assert _gate(results_dir, tmp_path / "current.jsonl") == 1
        out = capsys.readouterr().out
        assert "gate FAILS" in out
        assert "backward" in out  # stage blame named in the report
        assert "ssd" in out

    def test_small_change_under_threshold_passes(self, results_dir, tmp_path):
        _write_ledger(results_dir / "ledger.jsonl", 6.0)
        _write_ledger(tmp_path / "current.jsonl", 6.3)  # +5%
        assert _gate(results_dir, tmp_path / "current.jsonl") == 0

    def test_improvement_passes(self, results_dir, tmp_path):
        _write_ledger(results_dir / "ledger.jsonl", 8.0, ssd_heavy=True)
        _write_ledger(tmp_path / "current.jsonl", 6.0)
        assert _gate(results_dir, tmp_path / "current.jsonl") == 0

    def test_allowlist_waives_regression(self, results_dir, tmp_path, capsys):
        _write_ledger(results_dir / "ledger.jsonl", 6.0)
        _write_ledger(tmp_path / "current.jsonl", 8.0, ssd_heavy=True)
        allowlist = results_dir / "bench_allowlist.json"
        allowlist.write_text(
            json.dumps(
                {
                    "allow": [
                        {
                            "pattern": "evaluate:Ratel/13B/*",
                            "reason": "intentional: larger window",
                        }
                    ]
                }
            )
        )
        assert _gate(results_dir, tmp_path / "current.jsonl") == 0
        assert "allowlisted" in capsys.readouterr().out

    def test_allowlist_pattern_must_match(self, results_dir, tmp_path):
        _write_ledger(results_dir / "ledger.jsonl", 6.0)
        _write_ledger(tmp_path / "current.jsonl", 8.0, ssd_heavy=True)
        allowlist = results_dir / "bench_allowlist.json"
        allowlist.write_text(
            json.dumps({"allow": [{"pattern": "evaluate:Other/*", "reason": "x"}]})
        )
        assert _gate(results_dir, tmp_path / "current.jsonl") == 1

    def test_warn_only_never_fails(self, results_dir, tmp_path):
        _write_ledger(results_dir / "ledger.jsonl", 6.0)
        _write_ledger(tmp_path / "current.jsonl", 9.0, ssd_heavy=True)
        assert _gate(results_dir, tmp_path / "current.jsonl", ["--warn-only"]) == 0

    def test_missing_baseline_skips_gate(self, results_dir, tmp_path, capsys):
        _write_ledger(tmp_path / "current.jsonl", 8.0)
        assert _gate(results_dir, tmp_path / "current.jsonl") == 0
        assert "ledger gate skipped" in capsys.readouterr().out

    def test_threshold_flag(self, results_dir, tmp_path):
        _write_ledger(results_dir / "ledger.jsonl", 6.0)
        _write_ledger(tmp_path / "current.jsonl", 6.3)  # +5%
        code = _gate(results_dir, tmp_path / "current.jsonl", ["--threshold-pct", "4"])
        assert code == 1

    def test_baseline_only_runs_reported_missing(self, results_dir, tmp_path, capsys):
        _write_ledger(results_dir / "ledger.jsonl", 6.0)
        other = tmp_path / "current.jsonl"
        entry = LedgerEntry(
            label="evaluate:Other/30B/b4@test",
            policy="Other", model="30B", batch_size=4, server="test",
            feasible=True, metrics={"iteration_time": 1.0},
        )
        RunLedger(str(other)).append(entry)
        assert _gate(results_dir, other) == 0
        assert "absent from the current ledger" in capsys.readouterr().out


class TestTimingHelpers:
    def test_timing_leaves_flattens_only_seconds(self):
        payload = {
            "a_s": 1.0,
            "nested": {"b_s": 2.0, "count": 7},
            "listed": [{"c_s": 3.0}],
            "not_seconds": 4.0,
        }
        leaves = diff_bench.timing_leaves(payload)
        assert leaves == {"a_s": 1.0, "nested.b_s": 2.0, "listed[0].c_s": 3.0}

    def test_diff_file_threshold(self):
        rows = diff_bench.diff_file(
            "BENCH_x.json", {"t_s": 1.2}, {"t_s": 1.0}, threshold_pct=10.0
        )
        assert rows[0]["regressed"] is True
        assert rows[0]["change_pct"] == pytest.approx(20.0)
        rows = diff_bench.diff_file(
            "BENCH_x.json", {"t_s": 1.05}, {"t_s": 1.0}, threshold_pct=10.0
        )
        assert rows[0]["regressed"] is False

    def test_diff_file_respects_allowlist(self):
        allowlist = [{"pattern": "BENCH_x.json:t_s", "reason": "known"}]
        rows = diff_bench.diff_file(
            "BENCH_x.json", {"t_s": 2.0}, {"t_s": 1.0}, 10.0, allowlist
        )
        assert rows[0]["regressed"] is False
        assert rows[0]["allowed"] == "known"

    def test_timing_regressions_do_not_gate_by_default(self, results_dir, tmp_path):
        # No BENCH files and no ledgers: trivially green.
        assert diff_bench.main(["--results-dir", str(results_dir)]) == 0


class TestAllowlistLoading:
    def test_missing_file_is_empty(self, tmp_path):
        assert diff_bench.load_allowlist(str(tmp_path / "nope.json")) == []

    def test_malformed_entries_dropped(self, tmp_path):
        path = tmp_path / "allow.json"
        path.write_text(
            json.dumps({"allow": [{"reason": "no pattern"}, {"pattern": "ok"}, "junk"]})
        )
        entries = diff_bench.load_allowlist(str(path))
        assert len(entries) == 1
        assert entries[0]["pattern"] == "ok"

    def test_allowed_matches_fnmatch(self):
        allowlist = [{"pattern": "evaluate:Ratel/*", "reason": "r"}]
        assert diff_bench.allowed("evaluate:Ratel/13B/b8@x", allowlist)
        assert diff_bench.allowed("evaluate:ZeRO/13B/b8@x", allowlist) is None
