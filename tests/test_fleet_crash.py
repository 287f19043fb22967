"""Crash-fault tolerance of the fleet: journal, recovery, node fail-stop.

The fleet's crash-safety contract, pinned from five sides:

* **journal fold** — the record grammar folds to last-write-wins job
  state; duplicate terminals are counted (and must stay 0 in any run
  the fleet itself produced); garbage lines, and records with a
  wrongly typed field, are skipped whole, never fatal.
* **recovery** — after a simulated ``kill -9`` (coordinator abandoned,
  torn half-record glued onto the journal tail), :meth:`Fleet.recover`
  repairs the tail and rebuilds the fleet: terminal jobs stay terminal,
  live jobs requeue at their last checkpoint, the clock and the
  priority-aging ages resume where the journal left them.
* **node fail-stop** — a crash unseats the running job (rolled back to
  its checkpoint, or to zero without one), the flap hysteresis
  quarantines a node that keeps dying, and ``restore()`` is the
  operator's way back.
* **the crash drill** — :func:`crash_contract` judges the three modes,
  a finished drill leaves no journal handle open, and the standard
  drill's journal and ledger records are pinned by count and sha256;
* **hypothesis properties** — across random traces, kill instants and
  all four schedulers: every submitted job reaches exactly one terminal
  state (conservation), the journal holds at most one terminal record
  per job (exactly-once), and recovering twice yields identical fleets
  (replay idempotency).
"""

from __future__ import annotations

import gc
import hashlib
import json
import logging
import math
import os
import tempfile
import warnings
from collections import Counter
from dataclasses import replace

import pytest
from hypothesis import given, settings, strategies as st

from repro.core import RatelPolicy
from repro.fleet import (
    CostOracle,
    Fleet,
    FleetError,
    FleetJournal,
    JobSpec,
    Node,
    crash_contract,
    run_bursty_drill,
    run_crash_drill,
)
from repro.hardware import evaluation_server
from repro.runner import Sweep


class StubOracle:
    """Constant-time costs (mirrors test_fleet's stub)."""

    def __init__(self, speeds=None, degrade_factor=3.0):
        self.speeds = speeds or {}
        self.degrade_factor = degrade_factor

    def feasible(self, spec, node):
        if spec.hardware_class is not None:
            return spec.hardware_class == node.hardware_class
        return True

    def iteration_time(self, spec, node):
        if not self.feasible(spec, node):
            return math.nan
        base = {"30B": 30.0, "13B": 8.0, "6B": 2.0}.get(spec.model, 5.0)
        speed = self.speeds.get(node.name, 1.0)
        sag = self.degrade_factor if (node.failed_ssds or node.bw_sag < 1.0) else 1.0
        return base * speed * sag

    def service_time(self, spec, node, iterations):
        return iterations * self.iteration_time(spec, node)

    def needs(self, spec, node):
        return None


def stub_nodes(n=2, hardware_class=None):
    server = evaluation_server(n_ssds=2)
    return [
        Node(f"n{i}", server, RatelPolicy(), hardware_class=hardware_class)
        for i in range(n)
    ]


def job(job_id, model="6B", **kwargs):
    batch = {"30B": 32, "13B": 16, "6B": 8}[model]
    kwargs.setdefault("iterations", 5)
    return JobSpec(job_id, model=model, batch_size=batch, **kwargs)


#: The torn half-record a SIGKILL between write() and newline leaves.
TORN = b'{"rec": "assign", "job_id"'


def kill_minus_nine(fleet) -> str:
    """Abandon the coordinator and tear the journal tail, as SIGKILL would."""
    path = fleet.journal.path
    fleet.journal.close()
    with open(path, "ab") as handle:
        handle.write(TORN)
    return path


def journaled_fleet(tmp_path, scheduler="fifo", n=2, oracle=None):
    path = str(tmp_path / "journal.jsonl")
    fleet = Fleet(stub_nodes(n), scheduler, oracle=oracle or StubOracle(), journal=path)
    return fleet, path


def flap(fleet, node="n0"):
    """Three crashes of ``node`` 25 s apart (5 s down each): a flap."""
    for at in (10.0, 35.0, 60.0):
        fleet.inject_crash(at, node, rejoin_after=5.0)


# -- journal fold ---------------------------------------------------------------


class TestJournalFold:
    def _journal(self, tmp_path):
        return FleetJournal(str(tmp_path / "j.jsonl"))

    def test_lifecycle_folds_to_last_write(self, tmp_path):
        journal = self._journal(tmp_path)
        spec = job("a", iterations=10, checkpoint_every=2)
        journal.append("submit", 0.0, job=spec.to_payload(), seq=0, submitted_at=0.0)
        journal.append(
            "assign", 0.0, job_id="a", node="n0", iter_time=2.0, remaining=10,
            migrated=False,
        )
        journal.append("checkpoint", 8.0, job_id="a", node="n0", iterations=4)
        fold = journal.fold()
        a = fold.jobs["a"]
        assert a.state == "running" and a.node == "n0"
        assert a.checkpointed == 4 and a.resume_iterations == 6
        assert fold.clock == 8.0 and list(fold.jobs) == ["a"]
        assert [jf.spec.job_id for jf in fold.pending] == ["a"]

        journal.append(
            "finish", 20.0, job_id="a", node="n0", started_at=0.0,
            iteration_time=2.0, preemptions=0, migrations=0, lost=0,
            nodes_visited=["n0"],
        )
        fold = journal.fold()
        assert fold.jobs["a"].terminal and not fold.pending
        journal.close()

    def test_duplicate_terminal_counted_first_wins(self, tmp_path):
        journal = self._journal(tmp_path)
        spec = job("a")
        journal.append("submit", 0.0, job=spec.to_payload(), seq=0, submitted_at=0.0)
        journal.append(
            "finish", 10.0, job_id="a", node="n0", started_at=0.0,
            iteration_time=2.0, preemptions=0, migrations=0, lost=0,
            nodes_visited=["n0"],
        )
        journal.append("reject", 11.0, job_id="a", reason="late duplicate")
        fold = journal.fold()
        assert fold.duplicate_terminals == 1
        assert fold.jobs["a"].state == "completed"  # the first terminal wins
        journal.close()

    def test_checkpoint_is_monotone(self, tmp_path):
        journal = self._journal(tmp_path)
        spec = job("a", iterations=10)
        journal.append("submit", 0.0, job=spec.to_payload(), seq=0, submitted_at=0.0)
        journal.append("checkpoint", 8.0, job_id="a", node="n0", iterations=5)
        journal.append("checkpoint", 9.0, job_id="a", node="n0", iterations=3)
        assert journal.fold().jobs["a"].checkpointed == 5
        journal.close()

    def test_unmatched_and_garbage_records_skipped(self, tmp_path):
        path = str(tmp_path / "j.jsonl")
        journal = FleetJournal(path)
        journal.append("checkpoint", 1.0, job_id="ghost", node="n0", iterations=2)
        journal.close()
        with open(path, "a") as handle:
            handle.write("not json at all\n")
            handle.write('{"rec": "martian", "t": 2.0}\n')
        journal = FleetJournal(path)
        fold = journal.fold()
        assert fold.unmatched == 1 and fold.skipped == 2
        assert not fold.jobs
        journal.close()

    def test_non_finite_and_boolean_times_skipped(self, tmp_path):
        """A damaged ``t`` (Infinity, NaN, a bool) never reaches the fleet
        clock: the record is skipped and counted, and recovery resumes at
        the last sound instant."""
        path = str(tmp_path / "j.jsonl")
        journal = FleetJournal(path)
        spec = job("a")
        journal.append("submit", 4.0, job=spec.to_payload(), seq=0, submitted_at=4.0)
        journal.append("checkpoint", math.inf, job_id="a", node="n0", iterations=2)
        journal.append("degrade", math.nan, node="n0", failed_ssds=1, bw_sag=0.5)
        journal.append("recover", True, jobs=1, requeued=1, clock=4.0)
        journal.close()
        fold = FleetJournal(path).fold()
        assert fold.skipped == 3
        assert fold.clock == 4.0 and fold.recoveries == 0
        assert fold.jobs["a"].checkpointed == 0 and fold.nodes == {}

        recovered = Fleet.recover(path, stub_nodes(2), "fifo", oracle=StubOracle())
        assert recovered.now == 4.0
        recovered.journal.close()

    #: One well-formed record per case, each with one wrongly typed field.
    WRONGLY_TYPED = {
        "list job_id": ("checkpoint", {"job_id": ["a"], "node": "n0", "iterations": 2}),
        "checkpoint iterations": (
            "checkpoint", {"job_id": "a", "node": "n0", "iterations": "x"},
        ),
        "infinite checkpoint iterations": (
            "checkpoint", {"job_id": "a", "node": "n0", "iterations": math.inf},
        ),
        "assign remaining": (
            "assign",
            {"job_id": "a", "node": "n1", "iter_time": 2.0, "remaining": "lots",
             "migrated": True},
        ),
        "submit seq": (
            "submit",
            {"job": job("b").to_payload(), "seq": "first", "submitted_at": 9.0},
        ),
        "degrade failed_ssds": (
            "degrade", {"node": "n0", "failed_ssds": "two", "bw_sag": 0.5},
        ),
        "assign null iter_time": (
            "assign",
            {"job_id": "a", "node": "n1", "iter_time": None, "remaining": 5,
             "migrated": True},
        ),
    }

    @pytest.mark.parametrize("case", sorted(WRONGLY_TYPED))
    def test_wrongly_typed_record_skipped_whole(self, tmp_path, case):
        """A well-formed JSON record with a wrongly typed field is skipped
        and counted: none of its fields apply, the clock included, and
        recovery runs on without it."""
        path = str(tmp_path / "j.jsonl")
        journal = FleetJournal(path)
        spec = job("a", iterations=10, checkpoint_every=2)
        journal.append("submit", 0.0, job=spec.to_payload(), seq=0, submitted_at=0.0)
        journal.append(
            "assign", 0.0, job_id="a", node="n0", iter_time=2.0, remaining=10,
            migrated=False,
        )
        before = journal.fold()
        rec, fields = self.WRONGLY_TYPED[case]
        journal.append(rec, 9.0, **fields)
        fold = journal.fold()
        journal.close()
        assert fold.skipped == before.skipped + 1 == 1
        assert fold.clock == before.clock == 0.0
        assert fold.jobs == before.jobs and fold.nodes == before.nodes == {}

        recovered = Fleet.recover(path, stub_nodes(2), "fifo", oracle=StubOracle())
        assert [state.spec.job_id for state in recovered._queue] == ["a"]
        assert recovered._by_name["n0"].failed_ssds == 0
        outcome = recovered.drain()
        assert [r.state for r in outcome.results] == ["completed"]
        recovered.journal.close()

    def test_out_of_range_degrade_skipped(self, tmp_path):
        """A degrade no node could be in (negative drives, a sag outside
        (0, 1]) is skipped in the fold, so recovery never raises on it."""
        path = str(tmp_path / "j.jsonl")
        journal = FleetJournal(path)
        journal.append("degrade", 1.0, node="n0", failed_ssds=-1, bw_sag=0.5)
        journal.append("degrade", 2.0, node="n0", failed_ssds=1, bw_sag=1.5)
        journal.append("degrade", 3.0, node="n1", failed_ssds=1, bw_sag=0.5)
        journal.close()
        fold = FleetJournal(path).fold()
        assert fold.skipped == 2 and list(fold.nodes) == ["n1"]
        recovered = Fleet.recover(path, stub_nodes(2), "fifo", oracle=StubOracle())
        assert not recovered._by_name["n0"].degraded
        assert recovered._by_name["n1"].failed_ssds == 1
        recovered.journal.close()

    def test_degrade_beyond_the_array_skipped_at_recovery(self, tmp_path, caplog):
        """A degrade failing more drives than the recovering node has is
        kept by the fold, which does not know the cluster, and skipped by
        recovery with one warning: the node stays as the earlier records
        left it, and recovery runs on."""
        path = str(tmp_path / "j.jsonl")
        journal = FleetJournal(path)
        journal.append("submit", 0.0, job=job("a").to_payload(), seq=0, submitted_at=0.0)
        journal.append("degrade", 1.0, node="n0", failed_ssds=1, bw_sag=0.5)
        journal.append("degrade", 2.0, node="n0", failed_ssds=99, bw_sag=0.25)
        journal.close()
        fold = FleetJournal(path).fold()
        assert fold.skipped == 0 and len(fold.nodes["n0"]) == 2

        with caplog.at_level(logging.WARNING, logger="repro.fleet"):
            recovered = Fleet.recover(path, stub_nodes(2), "fifo", oracle=StubOracle())
        skips = [r for r in caplog.records if "skipping the degrade" in r.getMessage()]
        assert len(skips) == 1
        n0 = recovered._by_name["n0"]
        assert (n0.failed_ssds, n0.bw_sag) == (1, 0.5)
        assert [state.spec.job_id for state in recovered._queue] == ["a"]
        assert [r.state for r in recovered.drain().results] == ["completed"]
        recovered.journal.close()

    def test_record_after_terminal_is_refused(self, tmp_path):
        """A job record after the job's terminal record is refused and
        counted: the job stays completed, recovery requeues nothing, and
        the journal keeps its one finish record."""
        path = str(tmp_path / "j.jsonl")
        journal = FleetJournal(path)
        journal.append("submit", 0.0, job=job("a").to_payload(), seq=0, submitted_at=0.0)
        journal.append(
            "assign", 0.0, job_id="a", node="n0", iter_time=2.0, remaining=5,
            migrated=False,
        )
        journal.append(
            "finish", 10.0, job_id="a", node="n0", started_at=0.0,
            iteration_time=2.0, preemptions=0, migrations=0, lost=0,
            nodes_visited=["n0"],
        )
        journal.append(
            "assign", 11.0, job_id="a", node="n1", iter_time=2.0, remaining=5,
            migrated=True,
        )
        journal.close()
        fold = FleetJournal(path).fold()
        assert fold.duplicate_terminals == 1
        a = fold.jobs["a"]
        assert a.state == "completed" and a.node == "n0" and a.nodes_visited == ["n0"]

        recovered = Fleet.recover(path, stub_nodes(2), "fifo", oracle=StubOracle())
        assert not recovered._queue
        outcome = recovered.drain()
        assert [r.state for r in outcome.results] == ["completed"]
        assert outcome.results[0].finished_at == 10.0
        probe = FleetJournal(path)
        finishes = [rec for rec in probe.records() if rec["rec"] == "finish"]
        probe.close()
        assert len(finishes) == 1

    def test_unknown_kind_rejected_on_append(self, tmp_path):
        journal = self._journal(tmp_path)
        with pytest.raises(FleetError, match="unknown journal record kind"):
            journal.append("martian", 0.0)
        journal.close()


# -- crash recovery -------------------------------------------------------------


class TestCrashRecovery:
    def test_live_job_requeues_at_last_checkpoint(self, tmp_path):
        fleet, path = journaled_fleet(tmp_path, n=2)
        # 6B = 2.0 s/iter: checkpoints land at t=6 (3 iters) on cadence 3.
        fleet.submit(job("a", iterations=10, checkpoint_every=3))
        # b's assign record at t=8.5 advances the journal clock past a's
        # checkpoint, so the fold sees a's fourth iteration complete.
        fleet.submit(job("b", submit_at=8.5))
        fleet.run_until(9.0)
        kill_minus_nine(fleet)
        del fleet

        recovered = Fleet.recover(path, stub_nodes(2), "fifo", oracle=StubOracle())
        state = recovered._jobs["a"]
        # 4 iterations had run by the last journaled instant (t=8.5), but
        # only 3 were checkpointed: one is redone, seven remain.
        assert state.checkpointed == 3
        assert state.remaining_iterations == 7
        assert state.lost_iterations == 1
        assert {s.spec.job_id for s in recovered._queue} == {"a", "b"}

        outcome = recovered.drain()
        assert all(r.completed for r in outcome.results)
        recovered.journal.close()

    def test_job_without_checkpoints_restarts_from_zero(self, tmp_path):
        fleet, path = journaled_fleet(tmp_path, n=2)
        fleet.submit(job("a", iterations=10))  # checkpoint_every=None
        fleet.submit(job("b", submit_at=8.5))  # assign record moves the clock
        fleet.run_until(9.0)
        kill_minus_nine(fleet)
        del fleet

        recovered = Fleet.recover(path, stub_nodes(2), "fifo", oracle=StubOracle())
        state = recovered._jobs["a"]
        assert state.remaining_iterations == 10
        assert state.lost_iterations == 4
        recovered.journal.close()

    def test_terminal_jobs_stay_terminal_exactly_once(self, tmp_path):
        fleet, path = journaled_fleet(tmp_path, n=1)
        fleet.submit(job("done", iterations=2))  # finishes at t=4
        fleet.submit(job("live", iterations=10, submit_at=5.0))
        fleet.run_until(8.0)
        assert fleet.result("done") is not None
        kill_minus_nine(fleet)
        del fleet

        recovered = Fleet.recover(path, stub_nodes(1), "fifo", oracle=StubOracle())
        result = recovered.result("done")
        assert result is not None and result.completed and result.node == "n0"
        outcome = recovered.drain()
        assert {r.spec.job_id for r in outcome.results} == {"done", "live"}
        # Exactly one terminal record per job across both fleet lives.
        probe = FleetJournal(path)
        counts = Counter(
            rec["job_id"]
            for rec in probe.records()
            if rec["rec"] in ("finish", "reject")
        )
        probe.close()
        recovered.journal.close()
        assert counts == {"done": 1, "live": 1}

    def test_torn_tail_repaired_before_first_append(self, tmp_path):
        fleet, path = journaled_fleet(tmp_path, n=1)
        fleet.submit(job("a", iterations=10))
        fleet.run_until(5.0)
        kill_minus_nine(fleet)
        del fleet

        recovered = Fleet.recover(path, stub_nodes(1), "fifo", oracle=StubOracle())
        assert recovered.journal.repaired_bytes == len(TORN)
        recovered.drain()
        probe = FleetJournal(path)
        records = probe.records()
        probe.close()
        recovered.journal.close()
        assert all(rec["rec"] for rec in records)  # every line parses again

    def test_recover_twice_yields_identical_fleets(self, tmp_path):
        fleet, path = journaled_fleet(tmp_path, scheduler="sjf")
        for i in range(4):
            fleet.submit(job(f"j{i}", iterations=8, checkpoint_every=2,
                             submit_at=float(i)))
        fleet.run_until(7.0)
        kill_minus_nine(fleet)
        del fleet

        first = Fleet.recover(path, stub_nodes(2), "sjf", oracle=StubOracle())
        second = Fleet.recover(path, stub_nodes(2), "sjf", oracle=StubOracle())
        assert first.snapshot() == second.snapshot()
        first.journal.close()
        second.journal.close()

    def test_priority_aging_clock_restored(self, tmp_path):
        # One slow job pins the single node; the queued jobs age.
        fleet, path = journaled_fleet(tmp_path, scheduler="priority", n=1)
        # 30B = 30 s/iter; checkpoint_every=1 journals at t=30/60/90, so
        # the recovered clock lands at 90 rather than stalling at zero.
        fleet.submit(job("hog", model="30B", iterations=10, priority=5,
                         checkpoint_every=1))
        fleet.submit(job("old", priority=0, submit_at=10.0))
        fleet.submit(job("new", priority=1, submit_at=90.0))
        fleet.run_until(100.0)
        queued_ids = {s.spec.job_id for s in fleet._queue}
        assert {"old", "new"} <= queued_ids
        kill_minus_nine(fleet)
        del fleet

        recovered = Fleet.recover(path, stub_nodes(1), "priority", oracle=StubOracle())
        scheduler = recovered.scheduler
        by_id = {s.spec.job_id: s for s in recovered._queue}
        # submitted_at survives recovery bit-exactly, so queue ages (and
        # with them the aged priorities) continue from real wall ages.
        assert by_id["old"].submitted_at == 10.0
        assert by_id["new"].submitted_at == 90.0
        clock = recovered.now
        assert clock == pytest.approx(90.0)
        assert scheduler.effective_priority(by_id["old"], clock) == pytest.approx(
            0 + scheduler.aging_rate * max(0.0, clock - 10.0)
        )
        assert scheduler.effective_priority(by_id["new"], clock) == pytest.approx(
            1 + scheduler.aging_rate * max(0.0, clock - 90.0)
        )
        recovered.journal.close()

    def test_rejected_jobs_survive_as_rejected(self, tmp_path):
        fleet, path = journaled_fleet(tmp_path)
        fleet.submit(job("pinned", hardware_class="nowhere"))
        fleet.run_until(1.0)
        assert fleet.result("pinned").state == "rejected"
        kill_minus_nine(fleet)
        del fleet

        recovered = Fleet.recover(path, stub_nodes(2), "fifo", oracle=StubOracle())
        result = recovered.result("pinned")
        assert result.state == "rejected" and result.node is None
        assert not recovered._queue
        recovered.journal.close()

    def test_quarantine_survives_coordinator_crash(self, tmp_path):
        fleet, path = journaled_fleet(tmp_path, n=2)
        flap(fleet)
        fleet.run_until(100.0)
        assert fleet._by_name["n0"].quarantined
        kill_minus_nine(fleet)
        del fleet

        recovered = Fleet.recover(path, stub_nodes(2), "fifo", oracle=StubOracle())
        assert recovered.journal.repaired_bytes == len(TORN)
        n0 = recovered._by_name["n0"]
        assert n0.quarantined and n0.alive and not n0.free
        assert n0.crash_times == [10.0, 35.0, 60.0]
        assert recovered._by_name["n1"].free
        recovered.journal.close()

    def test_node_health_reinstated(self, tmp_path):
        fleet, path = journaled_fleet(tmp_path, n=3)
        fleet.submit(job("a", iterations=10))
        fleet.inject(2.0, "n1", failed_ssds=1, bw_sag=0.5)
        fleet.inject_crash(3.0, "n2")
        fleet.run_until(5.0)
        kill_minus_nine(fleet)
        del fleet

        recovered = Fleet.recover(path, stub_nodes(3), "fifo", oracle=StubOracle())
        by_name = {node.name: node for node in recovered.nodes}
        assert by_name["n1"].failed_ssds == 1 and by_name["n1"].bw_sag == 0.5
        assert not by_name["n2"].alive and by_name["n2"].crash_times == [3.0]
        assert by_name["n0"].alive and not by_name["n0"].degraded
        recovered.journal.close()

    @staticmethod
    def _killed_twice(fleet, path, n, kills):
        """Kill -9 and recover at each instant, then drain; results by id."""
        for kill_at in kills:
            fleet.run_until(kill_at)
            kill_minus_nine(fleet)
            fleet = Fleet.recover(path, stub_nodes(n), "fifo", oracle=StubOracle())
        outcome = fleet.drain()
        fleet.journal.close()
        return {r.spec.job_id: r for r in outcome.results}

    def test_every_recovery_counts_its_rollback(self, tmp_path):
        """A job running at each of two coordinator crashes was unseated
        twice: the second recovery's fold replays the first's rollback."""
        fleet, path = journaled_fleet(tmp_path, n=1)
        # 6B = 2.0 s/iter: checkpoints at t=6, then t=12 after the first
        # recovery (clock 6) reassigns the job.
        fleet.submit(job("a", iterations=10, checkpoint_every=3))
        a = self._killed_twice(fleet, path, 1, (9.0, 15.0))["a"]
        assert a.completed
        assert (a.preemptions, a.lost_iterations) == (2, 0)

    def test_second_recovery_keeps_the_first_rollback(self, tmp_path):
        fleet, path = journaled_fleet(tmp_path, n=2)
        # 6B = 2.0 s/iter.  a never checkpoints; b checkpoints every two
        # iterations, which carries the journal clock to t=16.
        fleet.submit(job("a", iterations=10))
        fleet.submit(job("b", iterations=10, checkpoint_every=2))
        results = self._killed_twice(fleet, path, 2, (17.0, 31.0))
        # The first recovery (clock 16) loses a's 8 iterations and
        # restarts it; the second (clock 20, b's finish) loses 2 more.
        a, b = results["a"], results["b"]
        assert (a.preemptions, a.lost_iterations) == (2, 10)
        assert (b.preemptions, b.lost_iterations) == (1, 0)
        assert a.completed and b.completed


# -- node fail-stop, flap, quarantine -------------------------------------------


class TestNodeFailStop:
    def test_crash_unseats_and_requeues_elsewhere(self, tmp_path):
        fleet = Fleet(stub_nodes(2), "fifo", oracle=StubOracle())
        fleet.submit(job("a", iterations=10, checkpoint_every=2))
        fleet.inject_crash(5.0, "n0")
        outcome = fleet.drain()
        result = outcome.results[0]
        assert result.completed and result.node == "n1"
        assert result.preemptions == 1 and result.migrations == 1
        requeues = [e for e in outcome.events if e.kind == "requeue"]
        assert requeues and "fail-stop" in requeues[0].detail
        assert outcome.metrics["node_crashes"] == 1

    def test_rollback_to_checkpoint_vs_full_restart(self, tmp_path):
        def run(checkpoint_every):
            fleet = Fleet(stub_nodes(1), "fifo", oracle=StubOracle())
            fleet.submit(job("a", iterations=10, checkpoint_every=checkpoint_every))
            # crash at t=5: 2 iterations done (t=4), partway into the 3rd
            fleet.inject_crash(5.0, "n0", rejoin_after=10.0)
            return fleet.drain().results[0]

        with_ckpt = run(2)  # checkpointed 2 at t=4 -> nothing past it lost
        without = run(None)  # no checkpoint -> both done iterations redone
        assert with_ckpt.lost_iterations == 0
        assert without.lost_iterations == 2
        assert with_ckpt.completed and without.completed
        assert with_ckpt.finished_at < without.finished_at

    def test_flap_trips_quarantine_and_restore_clears_it(self, tmp_path):
        fleet = Fleet(stub_nodes(2), "fifo", oracle=StubOracle())
        flap(fleet)
        fleet.run_until(100.0)
        n0 = fleet._by_name["n0"]
        assert n0.quarantined and n0.alive  # back up, but not schedulable
        assert not n0.free
        assert sum(1 for e in fleet.events if e.kind == "quarantine") == 1

        fleet.inject(110.0, "n0", restore=True)
        fleet.run_until(120.0)
        assert not n0.quarantined and n0.crash_times == [] and n0.free

    def test_crashes_outside_flap_window_do_not_quarantine(self, tmp_path):
        fleet = Fleet(stub_nodes(2), "fifo", oracle=StubOracle())
        # The first crash is 3,690 s before the third, outside the
        # 3,600 s flap window: only two count when the third lands.
        for at in (10.0, 3000.0, 3700.0):
            fleet.inject_crash(at, "n0", rejoin_after=5.0)
        fleet.run_until(4000.0)
        n0 = fleet._by_name["n0"]
        assert n0.crash_times == [10.0, 3000.0, 3700.0]
        assert not n0.quarantined

    def test_double_crash_is_a_noop(self, tmp_path):
        fleet = Fleet(stub_nodes(2), "fifo", oracle=StubOracle())
        fleet.inject_crash(5.0, "n0")
        fleet.inject_crash(6.0, "n0")  # already down: swallowed
        fleet.run_until(10.0)
        assert fleet._by_name["n0"].crash_times == [5.0]

    def test_injection_validation(self):
        fleet = Fleet(stub_nodes(1), "fifo", oracle=StubOracle())
        with pytest.raises(FleetError, match="unknown node"):
            fleet.inject_crash(1.0, "ghost")
        with pytest.raises(FleetError, match="rejoin_after"):
            fleet.inject_crash(1.0, "n0", rejoin_after=0.0)


# -- the crash drill ------------------------------------------------------------


def drill_nodes():
    """Stub versions of the standard fleet (same names, cheap specs).

    Twelve SSDs so the standard degradation (4090 box loses 10 drives)
    stays in range.
    """
    server = evaluation_server(n_ssds=12)
    return [
        Node(name, server, RatelPolicy(), hardware_class=cls)
        for name, cls in (
            ("box-3090", "3090"),
            ("box-4080", "4080"),
            ("box-4090", "4090"),
            ("dgx-a100", "dgx"),
        )
    ]


class TestCrashDrill:
    SPEEDS = {"box-3090": 2.5, "box-4080": 1.8, "box-4090": 1.0, "dgx-a100": 0.4}

    def _run(self, mode, **kwargs):
        return run_crash_drill(
            "sjf",
            mode=mode,
            oracle=StubOracle(speeds=self.SPEEDS),
            nodes=drill_nodes(),
            **kwargs,
        )

    def test_resume_mode_loses_and_duplicates_nothing(self, tmp_path):
        report = self._run("resume", journal_path=str(tmp_path / "drill.jsonl"))
        assert crash_contract([report]) == []
        assert report.lost_jobs == 0 and report.duplicated_jobs == 0
        assert report.journal_repaired_bytes > 0
        assert report.checkpoints > 0
        assert report.recovered_requeued >= 1
        assert report.pre_crash_completed < report.submitted

    def test_restart_redoes_at_least_as_much_as_resume(self, tmp_path):
        resume = self._run("resume")
        restart = self._run("restart")
        assert crash_contract([resume, restart]) == []
        assert resume.lost_iterations <= restart.lost_iterations
        assert restart.checkpoints == 0

    def test_no_journal_mode_reports_the_loss(self):
        report = self._run("no-journal", kill_at=900.0)
        assert crash_contract([report]) == []
        assert report.lost_jobs > 0  # the baseline the journal exists to kill
        assert report.journal_records == 0
        assert math.isnan(report.makespan_s)

    def test_contract_flags_each_broken_rule(self):
        resume, restart, bare = (
            self._run(mode) for mode in ("resume", "restart", "no-journal")
        )
        assert crash_contract([resume, restart, bare]) == []
        broken = [
            replace(resume, lost_jobs=2),
            replace(restart, duplicated_jobs=1, lost_iterations=0),
            replace(bare, lost_jobs=0),
        ]
        violations = crash_contract(broken)
        assert len(violations) == 4, violations
        assert "resume mode lost 2" in violations[0]
        assert "restart mode double-completed 1" in violations[1]
        assert "journal-less baseline lost no jobs" in violations[2]
        assert "strictly less work" in violations[3]

    def test_drills_leave_no_journal_handle_open(self, tmp_path):
        """A drained fleet closes its journal: neither drill leaks the
        keep-open append handle to the garbage collector."""
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always", ResourceWarning)
            self._run("resume")
            run_bursty_drill(
                "sjf",
                n_jobs=8,
                oracle=StubOracle(speeds=self.SPEEDS),
                nodes=drill_nodes(),
                journal=str(tmp_path / "bursty.jsonl"),
            )
            gc.collect()
        leaks = [w for w in caught if issubclass(w.category, ResourceWarning)]
        assert not leaks, [str(w.message) for w in leaks]

    def test_unknown_mode_rejected(self):
        with pytest.raises(FleetError, match="unknown crash-drill mode"):
            run_crash_drill("sjf", mode="optimistic")


#: Record count and sha256 of the standard sjf crash drill's journal and
#: ledger in each mode, on the real cost oracle, with the fields that
#: differ between runs (``trace_id``, ``timestamp``, ``git_sha``) removed.
PINNED_DRILL_RECORDS = {
    ("resume", "journal"): (
        177, "e988469a0bbe7553a901817868764e957b3f22da134a1a1c58b286d1a93166ca",
    ),
    ("resume", "ledger"): (
        65, "d8a0675beccca49424a06b826a94ea7482c6d7c3d54d666f9eb8d298b615dafa",
    ),
    ("restart", "journal"): (
        90, "8f9f796d76f54822ec4fa5b05aa1c43e88a6f9897f834553cb2f5592bc0096cf",
    ),
    ("restart", "ledger"): (
        66, "97c4a042d8769b2770511696a532fa9a1fbf41449218369b4b4f406e906fdda7",
    ),
    ("no-journal", "journal"): (
        0, "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
    ),
    ("no-journal", "ledger"): (
        45, "b3cc4d7531c17e42a2defde2fdf89eca8f1114ec048505a87fa33275562483bd",
    ),
}


def _without_run_fields(value):
    if isinstance(value, dict):
        return {
            key: _without_run_fields(item)
            for key, item in value.items()
            if key not in ("trace_id", "timestamp", "git_sha")
        }
    if isinstance(value, list):
        return [_without_run_fields(item) for item in value]
    return value


def test_standard_crash_drill_records_are_pinned(tmp_path):
    """Every journal and ledger record the three drill modes write, byte
    for byte: a fleet refactor that keeps these keeps its recovery."""
    digests = {}
    for mode in ("resume", "restart", "no-journal"):
        journal = tmp_path / f"{mode}.jsonl"
        ledger = tmp_path / f"{mode}-ledger.jsonl"
        run_crash_drill(
            "sjf",
            mode=mode,
            journal_path=str(journal),
            ledger=str(ledger),
            oracle=CostOracle(Sweep()),
        )
        for name, path in (("journal", journal), ("ledger", ledger)):
            lines = path.read_text().splitlines() if path.exists() else []
            records = [
                json.dumps(_without_run_fields(json.loads(line)), sort_keys=True)
                for line in lines
            ]
            digest = hashlib.sha256("\n".join(records).encode()).hexdigest()
            digests[mode, name] = (len(records), digest)
    assert digests == PINNED_DRILL_RECORDS


# -- hypothesis properties ------------------------------------------------------

SCHEDULER_NAMES = ("fifo", "sjf", "priority", "binpack")


def crash_spec_strategy():
    models = st.sampled_from(["30B", "13B", "6B"])
    return st.builds(
        lambda i, model, iters, prio, submit, every: JobSpec(
            f"job-{i:03d}",
            model=model,
            batch_size={"30B": 32, "13B": 16, "6B": 8}[model],
            iterations=iters,
            priority=prio,
            submit_at=submit,
            checkpoint_every=every,
        ),
        st.integers(0, 10**6),
        models,
        st.integers(1, 15),
        st.integers(0, 5),
        st.floats(0.0, 300.0, allow_nan=False),
        st.sampled_from([None, 1, 2, 3]),
    )


crash_trace_strategy = st.lists(
    crash_spec_strategy(),
    min_size=1,
    max_size=8,
    unique_by=lambda spec: spec.job_id,
)


def _crash_and_recover(trace, scheduler, kill_at):
    """Run, kill -9 at ``kill_at``, recover on fresh nodes; returns
    (recovered fleet, drained outcome, journal path, tmp dir handle)."""
    tmp = tempfile.TemporaryDirectory()
    path = os.path.join(tmp.name, "journal.jsonl")
    fleet = Fleet(stub_nodes(2), scheduler, oracle=StubOracle(), journal=path)
    for spec in trace:
        fleet.submit(spec)
    fleet.run_until(kill_at)
    kill_minus_nine(fleet)
    del fleet
    recovered = Fleet.recover(path, stub_nodes(2), scheduler, oracle=StubOracle())
    outcome = recovered.drain()
    return recovered, outcome, path, tmp


@settings(max_examples=25, deadline=None)
@given(
    trace=crash_trace_strategy,
    scheduler=st.sampled_from(SCHEDULER_NAMES),
    kill_at=st.floats(0.0, 500.0, allow_nan=False),
)
def test_no_job_lost_or_doubled_across_crash(trace, scheduler, kill_at):
    """Conservation + exactly-once, under any trace, scheduler and kill
    instant: every submitted job ends in exactly one terminal state and
    the journal carries exactly one terminal record for it."""
    recovered, outcome, path, tmp = _crash_and_recover(trace, scheduler, kill_at)
    try:
        ids = {spec.job_id for spec in trace}
        assert {r.spec.job_id for r in outcome.results} == ids
        assert all(r.state in ("completed", "rejected") for r in outcome.results)
        probe = FleetJournal(path)
        terminals = Counter(
            rec["job_id"]
            for rec in probe.records()
            if rec["rec"] in ("finish", "reject")
        )
        probe.close()
        assert set(terminals) == ids
        assert all(count == 1 for count in terminals.values())
        assert probe.fold().duplicate_terminals == 0
    finally:
        recovered.journal.close()
        tmp.cleanup()


@settings(max_examples=15, deadline=None)
@given(
    trace=crash_trace_strategy,
    scheduler=st.sampled_from(SCHEDULER_NAMES),
    kill_at=st.floats(0.0, 500.0, allow_nan=False),
)
def test_recovery_is_idempotent(trace, scheduler, kill_at):
    """Replaying the same journal twice rebuilds identical fleets."""
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "journal.jsonl")
        fleet = Fleet(stub_nodes(2), scheduler, oracle=StubOracle(), journal=path)
        for spec in trace:
            fleet.submit(spec)
        fleet.run_until(kill_at)
        kill_minus_nine(fleet)
        del fleet
        first = Fleet.recover(path, stub_nodes(2), scheduler, oracle=StubOracle())
        second = Fleet.recover(path, stub_nodes(2), scheduler, oracle=StubOracle())
        try:
            assert first.snapshot() == second.snapshot()
        finally:
            first.journal.close()
            second.journal.close()


@settings(max_examples=15, deadline=None)
@given(
    trace=crash_trace_strategy,
    kill_at=st.floats(0.0, 500.0, allow_nan=False),
)
def test_checkpoints_bound_redone_work(trace, kill_at):
    """No recovered job loses more than ``checkpoint_every - 1`` full
    iterations *to the coordinator crash itself* plus the partial one in
    flight — the bound checkpoint cadence buys."""
    recovered, outcome, path, tmp = _crash_and_recover(trace, "fifo", kill_at)
    try:
        probe = FleetJournal(path)
        fold = probe.fold()
        probe.close()
        for spec in trace:
            jf = fold.jobs[spec.job_id]
            assert jf.checkpointed <= max(0, spec.iterations - 1)
            if spec.checkpoint_every is not None:
                # resume point never rolls back past one cadence + the
                # in-flight iteration from the last durable checkpoint
                assert jf.resume_iterations <= spec.iterations
    finally:
        recovered.journal.close()
        tmp.cleanup()


def job_fields(jobs):
    """Every ``JobState`` field but ``version``, per job (NaN as None)."""
    return {
        job_id: {
            name: None if isinstance(value, float) and math.isnan(value) else value
            for name, value in vars(state).items()
            if name != "version"
        }
        for job_id, state in jobs.items()
    }


class FoldCheckedJournal(FleetJournal):
    """After each append, checks that the fold of the journal so far
    equals the jobs of ``fleet`` (unset while a recovery builds it)."""

    fleet = None

    def append(self, rec, t, **fields_):
        super().append(rec, t, **fields_)
        if self.fleet is not None:
            assert job_fields(self.fold().jobs) == job_fields(self.fleet._jobs), rec


@settings(max_examples=25, deadline=None)
@given(
    trace=crash_trace_strategy,
    scheduler=st.sampled_from(SCHEDULER_NAMES),
    degrade_factor=st.sampled_from([1.2, 3.0]),
    degrade=st.tuples(
        st.floats(0.0, 400.0), st.sampled_from(["n0", "n1"]),
        st.integers(0, 2), st.sampled_from([0.5, 1.0]),
    ),
    crash=st.tuples(
        st.floats(0.0, 400.0), st.sampled_from(["n0", "n1"]), st.floats(1.0, 200.0),
    ),
    kills=st.tuples(st.floats(0.0, 300.0), st.floats(0.0, 300.0)),
)
def test_fold_equals_live_fleet_at_every_append(
    trace, scheduler, degrade_factor, degrade, crash, kills
):
    """Across random traces, every scheduler, a degrade, a node crash and
    two kill-and-recover cycles: after each journal append, the fold of
    the journal so far equals the live fleet's jobs in every field but
    ``version``, and so does each recovered fleet."""
    oracle = StubOracle(degrade_factor=degrade_factor)
    degrade_at, degrade_node, failed_ssds, bw_sag = degrade
    crash_at, crash_node, down_s = crash
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "journal.jsonl")
        journal = FoldCheckedJournal(path)
        fleet = journal.fleet = Fleet(stub_nodes(2), scheduler, oracle=oracle, journal=journal)
        try:
            for spec in trace:
                fleet.submit(spec)
            killed = -1.0
            for kill_at in (kills[0], kills[0] + kills[1], None):
                # Drift the killed coordinator had not reached is armed again.
                if degrade_at > killed:
                    fleet.inject(
                        degrade_at, degrade_node, failed_ssds=failed_ssds, bw_sag=bw_sag
                    )
                if crash_at > killed:
                    fleet.inject_crash(crash_at, crash_node, rejoin_after=down_s)
                if kill_at is None:
                    break
                fleet.run_until(kill_at)
                kill_minus_nine(fleet)
                killed = kill_at
                journal = FoldCheckedJournal(path)
                fleet = Fleet.recover(journal, stub_nodes(2), scheduler, oracle=oracle)
                journal.fleet = fleet
                assert job_fields(journal.fold().jobs) == job_fields(fleet._jobs)
            outcome = fleet.drain()
        finally:
            journal.close()
    assert {r.spec.job_id for r in outcome.results} == {spec.job_id for spec in trace}
