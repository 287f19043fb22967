"""Crash-fault tolerance of the fleet: journal, recovery, node fail-stop.

The tentpole's contract, pinned from four sides:

* **journal fold** — the record grammar folds to last-write-wins job
  state; duplicate terminals are counted (and must stay 0 in any run
  the fleet itself produced); garbage lines are skipped, never fatal.
* **recovery** — after a simulated ``kill -9`` (coordinator abandoned,
  torn half-record glued onto the journal tail), :meth:`Fleet.recover`
  repairs the tail and rebuilds the fleet: terminal jobs stay terminal,
  live jobs requeue at their last checkpoint, the clock and the
  priority-aging ages resume where the journal left them.
* **node fail-stop** — a crash unseats the running job (rolled back to
  its checkpoint, or to zero without one), the flap hysteresis
  quarantines a node that keeps dying, and ``restore()`` is the
  operator's way back.
* **hypothesis properties** — across random traces, kill instants and
  all four schedulers: every submitted job reaches exactly one terminal
  state (conservation), the journal holds at most one terminal record
  per job (exactly-once), and recovering twice yields identical fleets
  (replay idempotency).
"""

from __future__ import annotations

import math
import os
import tempfile
from collections import Counter

import pytest
from hypothesis import given, settings, strategies as st

from repro.core import RatelPolicy
from repro.faults import NodeCrash, NodeFaultSchedule, NodeFlap
from repro.faults.schedule import FaultScheduleError
from repro.fleet import (
    Fleet,
    FleetError,
    FleetJournal,
    JobSpec,
    Node,
    run_crash_drill,
)
from repro.hardware import evaluation_server


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


def journaled_fleet(tmp_path, scheduler="fifo", n=2, oracle=None, **kwargs):
    path = str(tmp_path / "journal.jsonl")
    fleet = Fleet(
        stub_nodes(n), scheduler, oracle=oracle or StubOracle(), journal=path, **kwargs
    )
    return fleet, path


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
        assert fold.clock == 8.0 and fold.order == ["a"]
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
        assert state.checkpointed_iterations == 3
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
        fleet, path = journaled_fleet(
            tmp_path, n=2, flap_window=1000.0, flap_threshold=3
        )
        NodeFaultSchedule(
            (NodeFlap(at=10.0, node="n0", cycles=3, down_s=5.0, up_s=20.0),)
        ).install(fleet)
        fleet.run_until(100.0)
        assert fleet._by_name["n0"].quarantined
        kill_minus_nine(fleet)
        del fleet

        recovered = Fleet.recover(
            path, stub_nodes(2), "fifo", oracle=StubOracle(),
            flap_window=1000.0, flap_threshold=3,
        )
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
        fleet = Fleet(
            stub_nodes(2), "fifo", oracle=StubOracle(),
            flap_window=1000.0, flap_threshold=3,
        )
        NodeFaultSchedule(
            (NodeFlap(at=10.0, node="n0", cycles=3, down_s=5.0, up_s=20.0),)
        ).install(fleet)
        fleet.run_until(100.0)
        n0 = fleet._by_name["n0"]
        assert n0.quarantined and n0.alive  # back up, but not schedulable
        assert not n0.free
        assert sum(1 for e in fleet.events if e.kind == "quarantine") == 1

        fleet.inject(110.0, "n0", restore=True)
        fleet.run_until(120.0)
        assert not n0.quarantined and n0.crash_times == [] and n0.free

    def test_crashes_outside_flap_window_do_not_quarantine(self, tmp_path):
        fleet = Fleet(
            stub_nodes(2), "fifo", oracle=StubOracle(),
            flap_window=20.0, flap_threshold=2,
        )
        fleet.inject_crash(10.0, "n0", rejoin_after=5.0)
        fleet.inject_crash(100.0, "n0", rejoin_after=5.0)  # window expired
        fleet.run_until(200.0)
        assert not fleet._by_name["n0"].quarantined

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
        with pytest.raises(FleetError, match="flap_threshold"):
            Fleet(stub_nodes(1), "fifo", oracle=StubOracle(), flap_threshold=1)
        with pytest.raises(FleetError, match="flap_window"):
            Fleet(stub_nodes(1), "fifo", oracle=StubOracle(), flap_window=0.0)


class TestNodeFaultSchedule:
    def test_flap_expands_to_crash_rejoin_pairs(self):
        flap = NodeFlap(at=100.0, node="x", cycles=2, down_s=10.0, up_s=20.0)
        crashes = flap.crashes()
        assert [c.at for c in crashes] == [100.0, 130.0]
        assert all(c.rejoin_after == 10.0 for c in crashes)

    def test_duplicate_event_rejected(self):
        crash = NodeCrash(at=5.0, node="x")
        with pytest.raises(FaultScheduleError, match="duplicate"):
            NodeFaultSchedule((crash, crash))

    def test_overlapping_dead_windows_rejected(self):
        with pytest.raises(FaultScheduleError, match="overlapping"):
            NodeFaultSchedule(
                (
                    NodeCrash(at=5.0, node="x", rejoin_after=100.0),
                    NodeCrash(at=50.0, node="x"),
                )
            )

    def test_crash_into_permanently_dead_node_rejected(self):
        with pytest.raises(FaultScheduleError, match="overlapping"):
            NodeFaultSchedule(
                (NodeCrash(at=5.0, node="x"), NodeCrash(at=500.0, node="x"))
            )

    def test_event_validation(self):
        with pytest.raises(FaultScheduleError):
            NodeCrash(at=-1.0, node="x")
        with pytest.raises(FaultScheduleError):
            NodeCrash(at=1.0, node="x", rejoin_after=-3.0)
        with pytest.raises(FaultScheduleError, match="cycles"):
            NodeFlap(at=1.0, node="x", cycles=1)


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
        assert report.passed
        assert report.lost_jobs == 0 and report.duplicated_jobs == 0
        assert report.journal_repaired_bytes > 0
        assert report.checkpoints > 0
        assert report.recovered_requeued >= 1
        assert report.pre_crash_completed < report.submitted

    def test_restart_redoes_at_least_as_much_as_resume(self, tmp_path):
        resume = self._run("resume")
        restart = self._run("restart")
        assert resume.passed and restart.passed
        assert resume.lost_iterations <= restart.lost_iterations
        assert restart.checkpoints == 0

    def test_no_journal_mode_reports_the_loss(self):
        report = self._run("no-journal", kill_at=900.0)
        assert report.lost_jobs > 0  # the baseline the journal exists to kill
        assert report.journal_records == 0
        assert math.isnan(report.makespan_s)

    def test_unknown_mode_rejected(self):
        with pytest.raises(FleetError, match="unknown crash-drill mode"):
            run_crash_drill("sjf", mode="optimistic")


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
