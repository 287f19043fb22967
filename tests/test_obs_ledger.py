"""Tests for the append-only JSONL run ledger (:mod:`repro.obs.ledger`)."""

from __future__ import annotations

import json
from dataclasses import asdict

import pytest

from repro.adapt import drill_outcome
from repro.core import EvalOutcome, RatelPolicy
from repro.fleet import run_bursty_drill
from repro.hardware import EVALUATION_SERVER
from repro.models import llm
from repro.obs.ledger import (
    LedgerEntry,
    LedgerError,
    RunLedger,
    current_git_sha,
    entry_from_outcome,
    hardware_payload,
    load_ledger,
)
from repro.runner import Sweep
from repro.serve import PlannerService, ServiceConfig


@pytest.fixture(scope="module")
def outcome():
    """One computed evaluation (module-scoped: the sim run is the cost)."""
    return Sweep().evaluate(RatelPolicy(), llm("13B"), 8, EVALUATION_SERVER)


class TestLedgerEntry:
    def test_round_trip(self, outcome, server):
        entry = entry_from_outcome(
            outcome,
            label="evaluate:Ratel/13B/b8@test",
            config_key="abc123",
            server=server,
            source="test",
        )
        clone = LedgerEntry.from_payload(json.loads(json.dumps(entry.to_payload())))
        assert clone == entry
        assert clone.iteration_time == pytest.approx(outcome.iteration_time)
        assert clone.tokens_per_s == pytest.approx(outcome.tokens_per_s)

    def test_embeds_attribution(self, outcome, server):
        entry = entry_from_outcome(outcome, server=server)
        report = entry.attribution()
        assert report is not None
        assert {stage.stage for stage in report.stages} >= {"forward", "backward"}
        assert report.iteration_time == pytest.approx(outcome.iteration_time)

    def test_provenance_fields(self, outcome, server):
        entry = entry_from_outcome(outcome, server=server)
        assert entry.git_sha == current_git_sha()
        assert entry.hardware == hardware_payload(server)
        assert entry.hardware["gpu"] == "RTX 4090"
        assert entry.timestamp  # ISO stamp, non-empty
        assert not entry.cached

    def test_default_label_matches_sweep_point_form(self, outcome, server):
        entry = entry_from_outcome(outcome, server=server)
        assert entry.label == f"evaluate:Ratel/13B/b8@{server.name}"

    def test_rejects_non_entries(self):
        with pytest.raises(LedgerError):
            LedgerEntry.from_payload({"traceEvents": []})


class TestRunLedger:
    def _entry(self, label: str, iteration: float) -> LedgerEntry:
        return LedgerEntry(
            label=label,
            policy="Ratel",
            model="13B",
            batch_size=8,
            server="test",
            feasible=True,
            metrics={"iteration_time": iteration},
        )

    def test_append_and_read_in_order(self, tmp_path):
        ledger = RunLedger(str(tmp_path / "ledger.jsonl"))
        ledger.append(self._entry("a", 1.0))
        ledger.append(self._entry("b", 2.0))
        assert [entry.label for entry in ledger.entries()] == ["a", "b"]
        assert len(ledger) == 2

    def test_creates_parent_directory(self, tmp_path):
        path = tmp_path / "nested" / "deep" / "ledger.jsonl"
        RunLedger(str(path)).append(self._entry("a", 1.0))
        assert path.exists()

    def test_tolerates_corrupt_lines(self, tmp_path):
        path = tmp_path / "ledger.jsonl"
        ledger = RunLedger(str(path))
        ledger.append(self._entry("good", 1.0))
        with open(path, "a") as handle:
            handle.write("not json at all\n")
            handle.write('{"foreign": "object"}\n')
        ledger.append(self._entry("also-good", 2.0))
        entries = ledger.entries()
        assert [entry.label for entry in entries] == ["good", "also-good"]
        assert ledger.skipped == 2

    def test_last_and_label_filter(self, tmp_path):
        ledger = RunLedger(str(tmp_path / "ledger.jsonl"))
        ledger.append(self._entry("a", 1.0))
        ledger.append(self._entry("b", 2.0))
        ledger.append(self._entry("a", 3.0))
        assert ledger.last().metrics["iteration_time"] == 3.0
        assert ledger.last("b").metrics["iteration_time"] == 2.0
        assert ledger.last("zzz") is None

    def test_latest_by_label(self, tmp_path):
        ledger = RunLedger(str(tmp_path / "ledger.jsonl"))
        ledger.append(self._entry("a", 1.0))
        ledger.append(self._entry("a", 4.0))
        ledger.append(self._entry("b", 2.0))
        latest = ledger.latest_by_label()
        assert set(latest) == {"a", "b"}
        assert latest["a"].metrics["iteration_time"] == 4.0

    def test_empty_ledger_reads_empty(self, tmp_path):
        ledger = RunLedger(str(tmp_path / "missing.jsonl"))
        assert ledger.entries() == []
        assert ledger.last() is None

    def test_load_ledger_requires_file(self, tmp_path):
        with pytest.raises(LedgerError):
            load_ledger(str(tmp_path / "absent.jsonl"))

    def test_truncated_tail_skipped_with_counter(self, tmp_path):
        """A crash mid-append leaves a torn last line; reads survive it."""
        path = tmp_path / "ledger.jsonl"
        ledger = RunLedger(str(path))
        ledger.append(self._entry("good", 1.0))
        with open(path, "a") as handle:
            handle.write('{"label": "torn", "pol')  # no trailing newline
        entries = ledger.entries()
        assert [entry.label for entry in entries] == ["good"]
        assert ledger.truncated_tail == 1
        assert ledger.skipped == 0  # torn tail is not interior corruption

    def test_truncated_interior_line_counts_as_skipped(self, tmp_path):
        """Only the *final* incomplete line is a torn tail."""
        path = tmp_path / "ledger.jsonl"
        ledger = RunLedger(str(path))
        ledger.append(self._entry("a", 1.0))
        with open(path, "a") as handle:
            handle.write('{"half\n')  # complete line, corrupt content
        ledger.append(self._entry("b", 2.0))
        assert [entry.label for entry in ledger.entries()] == ["a", "b"]
        assert ledger.skipped == 1
        assert ledger.truncated_tail == 0

    def test_fsync_append_round_trips(self, tmp_path):
        ledger = RunLedger(str(tmp_path / "ledger.jsonl"), fsync=True)
        assert ledger.fsync
        ledger.append(self._entry("durable", 1.0))
        assert [entry.label for entry in ledger.entries()] == ["durable"]


class TestSweepRecording:
    def test_records_computed_not_cached(self, tmp_path, server):
        path = str(tmp_path / "ledger.jsonl")
        sweep = Sweep(ledger=path)
        first = sweep.evaluate(RatelPolicy(), llm("13B"), 8, server)
        again = sweep.evaluate(RatelPolicy(), llm("13B"), 8, server)
        assert first.feasible and again.feasible
        entries = RunLedger(path).entries()
        assert len(entries) == 1  # the cache hit is not re-recorded
        entry = entries[0]
        assert entry.source == "runner"
        assert entry.label == f"evaluate:Ratel/13B/b8@{server.name}"
        assert entry.config_key  # the runner's content key rides along
        assert entry.attribution() is not None

    def test_string_path_is_wrapped(self, tmp_path):
        sweep = Sweep(ledger=str(tmp_path / "ledger.jsonl"))
        assert isinstance(sweep.ledger, RunLedger)

    def test_non_evaluate_points_not_recorded(self, tmp_path, server):
        path = str(tmp_path / "ledger.jsonl")
        sweep = Sweep(ledger=path)
        sweep.max_batch(RatelPolicy(), llm("13B"), server)
        assert RunLedger(path).entries() == []


class TestAppendedBytes:
    """``to_payload`` shares the entry's fields instead of deep-copying
    them; every line must still be the JSON of ``asdict(entry)``."""

    def test_every_recording_path_writes_the_asdict_line(self, tmp_path, monkeypatch):
        appended: list[LedgerEntry] = []
        to_payload = LedgerEntry.to_payload

        def spy(entry):
            appended.append(entry)
            return to_payload(entry)

        monkeypatch.setattr(LedgerEntry, "to_payload", spy)
        path = str(tmp_path / "ledger.jsonl")

        # A runner record, then fleet decisions.
        Sweep(ledger=path).evaluate(RatelPolicy(), llm("6B"), 8, EVALUATION_SERVER)
        run_bursty_drill("sjf", n_jobs=6, ledger=path)
        # Serve decisions and breaker transitions: a backend that fails
        # until the breaker opens, then answers the half-open probe.
        clock = {"now": 0.0}
        failing = {"on": True}

        def backend(query, cancel):
            if failing["on"]:
                raise RuntimeError("injected backend crash")
            return EvalOutcome(
                policy=query.policy, model=query.model, batch_size=query.batch_size,
                server=query.gpu, feasible=True,
                metrics={"iteration_time": 2.0, "tokens_per_s": 5.0},
            ).to_payload()

        service = PlannerService(
            ServiceConfig(
                rate=100.0, burst=50.0, retry_attempts=1, breaker_threshold=2,
                breaker_cooldown_s=5.0, cache_dir=str(tmp_path / "cache"),
                journal_path=str(tmp_path / "journal.jsonl"), ledger_path=path,
            ),
            backend=backend, clock=lambda: clock["now"], sleep=lambda _: None,
        )
        for _ in range(2):
            service.handle({"model": "6B", "batch_size": 4})
        failing["on"], clock["now"] = False, 5.0
        service.handle({"model": "6B", "batch_size": 4})
        service.close()
        # Adapt decisions.
        drill_outcome(ledger=RunLedger(path))

        with open(path, encoding="utf-8") as handle:
            lines = handle.read().splitlines()
        assert len(lines) == len(appended)
        assert {(e.kind, e.source) for e in appended} >= {
            ("evaluate", "runner"), ("fleet", "fleet"), ("serve", "breaker"),
            ("serve", "sim"), ("adapt", "adapt-controller"),
        }
        for line, entry in zip(lines, appended):
            assert line == json.dumps(asdict(entry), sort_keys=True)
