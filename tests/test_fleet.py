"""Tests for ``repro.fleet``: API types, schedulers, the event loop.

Unit tests drive :class:`Fleet` through a stub cost oracle (constant
per-(model, node) iteration times) so scheduler behavior is tested
without the simulation stack; the integration tests at the bottom run
the real :class:`~repro.fleet.oracle.CostOracle` end to end, including
the drift-to-rescheduling escalation and its run-ledger audit trail.

The hypothesis properties pin the ISSUE's three invariants:

* **conservation** — every submitted job terminates exactly once
  (completed or rejected), under any trace and any scheduler;
* **bounded wait** — under the aged-priority scheduler, a job queued
  longer than ``(p_max - p_min) / aging_rate`` outranks any fresh
  arrival, so it can never start after one submitted that much later;
* **identity round-trip** — ``JobSpec`` survives preempt/requeue and
  payload serialisation bit-exactly.
"""

from __future__ import annotations

import json
import math
from dataclasses import replace

import pytest
from hypothesis import given, settings, strategies as st

from repro.adapt.health import BW_RATIO, BandwidthDrift, DriveDrift
from repro.core import RatelPolicy
from repro.fleet import (
    CostOracle,
    Fleet,
    FleetError,
    FleetEvent,
    FleetJournal,
    JobSpec,
    Node,
    PriorityScheduler,
    SCHEDULERS,
    bursty_trace,
    make_scheduler,
    percentile,
    run_bursty_drill,
    standard_degradations,
    standard_fleet_nodes,
)
from repro.fleet.schedulers import FifoScheduler
from repro.hardware import evaluation_server
from repro.obs.ledger import load_ledger
from repro.runner.keys import same_value


class StubOracle:
    """Constant-time costs so tests steer schedulers deterministically."""

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
    """``n`` identical nodes named n0..n{n-1} (cheap specs, never simulated)."""
    server = evaluation_server(n_ssds=2)
    return [
        Node(f"n{i}", server, RatelPolicy(), hardware_class=hardware_class)
        for i in range(n)
    ]


def job(job_id, model="6B", **kwargs):
    batch = {"30B": 32, "13B": 16, "6B": 8}[model]
    kwargs.setdefault("iterations", 5)
    return JobSpec(job_id, model=model, batch_size=batch, **kwargs)


class TestApiTypes:
    def test_job_spec_validation(self):
        with pytest.raises(FleetError):
            JobSpec("", model="6B", batch_size=8, iterations=5)
        with pytest.raises(FleetError):
            job("a", iterations=0)
        with pytest.raises(FleetError):
            job("a", deadline_s=0.0)
        with pytest.raises(FleetError):
            job("a", submit_at=-1.0)

    def test_event_kind_validation(self):
        with pytest.raises(FleetError):
            FleetEvent(0.0, "explode")
        event = FleetEvent(12.0, "requeue", job_id="j", node="n0", detail="why")
        assert "requeue j @n0: why" in str(event)

    def test_percentile_nearest_rank(self):
        values = [float(v) for v in range(1, 101)]
        assert percentile(values, 0.99) == 99.0
        assert percentile(values, 0.5) == 50.0
        assert percentile([7.0], 0.99) == 7.0
        assert math.isnan(percentile([], 0.99))
        with pytest.raises(FleetError):
            percentile(values, 1.5)

    def test_unknown_scheduler_lists_choices(self):
        with pytest.raises(FleetError, match="binpack"):
            make_scheduler("bogus")
        for name in SCHEDULERS:
            assert make_scheduler(name).name == name

    def test_scheduler_instance_passes_through(self):
        sched = PriorityScheduler(aging_rate=0.5)
        assert make_scheduler(sched) is sched


class TestFleetLoop:
    def test_duplicate_job_id_rejected(self):
        fleet = Fleet(stub_nodes(), "fifo", oracle=StubOracle())
        fleet.submit(job("a"))
        with pytest.raises(FleetError, match="duplicate"):
            fleet.submit(job("a"))

    def test_infeasible_everywhere_is_rejected_at_arrival(self):
        fleet = Fleet(stub_nodes(), "fifo", oracle=StubOracle())
        fleet.submit(job("pinned", hardware_class="tpu"))
        outcome = fleet.drain()
        [result] = outcome.results
        assert result.state == "rejected"
        assert outcome.metrics["rejected"] == 1
        assert any(e.kind == "reject" for e in outcome.events)

    def test_fifo_runs_everything_in_arrival_order(self):
        fleet = Fleet(stub_nodes(1), "fifo", oracle=StubOracle())
        for i in range(3):
            fleet.submit(job(f"j{i}", submit_at=float(i)))
        outcome = fleet.drain()
        starts = [e for e in outcome.events if e.kind == "start"]
        assert [e.job_id for e in starts] == ["j0", "j1", "j2"]
        assert outcome.metrics["completed"] == 3
        assert len(outcome.completed) == 3

    def test_sjf_dispatches_short_job_first(self):
        fleet = Fleet(stub_nodes(1), "sjf", oracle=StubOracle())
        # Both queued while the head job occupies the single node.
        fleet.submit(job("head", model="6B", submit_at=0.0, iterations=5))
        fleet.submit(job("long", model="30B", submit_at=1.0))
        fleet.submit(job("short", model="6B", submit_at=2.0))
        outcome = fleet.drain()
        starts = [e.job_id for e in outcome.events if e.kind == "start"]
        assert starts.index("short") < starts.index("long")

    def test_priority_preempts_and_requeues_victim(self):
        fleet = Fleet(
            stub_nodes(1),
            PriorityScheduler(aging_rate=0.0, preempt_margin=1.0),
            oracle=StubOracle(),
        )
        fleet.submit(job("lowly", model="30B", priority=0, submit_at=0.0))
        fleet.submit(job("urgent", model="6B", priority=5, submit_at=10.0))
        outcome = fleet.drain()
        kinds = [(e.kind, e.job_id) for e in outcome.events]
        assert ("preempt", "lowly") in kinds
        # The victim re-enters the queue and restarts after the intruder.
        lowly_starts = [e.time for e in outcome.events
                        if e.kind == "start" and e.job_id == "lowly"]
        assert len(lowly_starts) == 2
        assert outcome.metrics["completed"] == 2
        lowly = next(r for r in outcome.results if r.spec.job_id == "lowly")
        assert lowly.preemptions >= 1
        urgent = next(r for r in outcome.results if r.spec.job_id == "urgent")
        assert urgent.started_at == 10.0

    def test_degradation_requeues_running_job_to_healthy_node(self):
        oracle = StubOracle(speeds={"n0": 1.0, "n1": 1.1})
        fleet = Fleet(stub_nodes(2), "sjf", oracle=oracle)
        fleet.submit(job("victim", model="30B", submit_at=0.0, iterations=10))
        fleet.inject(50.0, "n0", failed_ssds=1, bw_sag=0.5)
        outcome = fleet.drain()
        kinds = {e.kind for e in outcome.events}
        assert {"degrade", "requeue", "migrate"} <= kinds
        victim = outcome.results[0]
        assert victim.completed and victim.node == "n1"
        assert victim.nodes_visited == ("n0", "n1")
        assert outcome.metrics["migrations"] == 1

    def test_mild_degradation_reprices_in_place(self):
        # 1.2x slowdown stays under the 1.3x migrate threshold.
        oracle = StubOracle(speeds={"n0": 1.0, "n1": 1.0}, degrade_factor=1.2)
        fleet = Fleet(stub_nodes(2), "sjf", oracle=oracle)
        fleet.submit(job("steady", model="30B", submit_at=0.0, iterations=10))
        fleet.inject(50.0, "n0", bw_sag=0.9)
        outcome = fleet.drain()
        assert not any(e.kind in ("requeue", "migrate") for e in outcome.events)
        [result] = outcome.results
        assert result.completed and result.node == "n0"
        # 1 full iteration done healthy (30 s each); 9 remain at 36 s.
        assert result.finished_at == pytest.approx(50.0 + 9 * 36.0)

    def test_current_server_is_one_spec_per_state(self):
        """Same object until degrade/restore moves the state; then a spec
        equal, field type for field type, to a fresh derivation."""
        server = evaluation_server(n_ssds=4)
        node = Node("n0", server, RatelPolicy())
        assert node.current_server() is server
        node.degrade(failed_ssds=1, bw_sag=0.5)
        degraded = node.current_server()
        assert node.current_server() is degraded
        expected = server.with_ssds(3)
        expected = replace(
            expected,
            ssd=replace(expected.ssd, read_bw=expected.ssd.read_bw * 0.5,
                        write_bw=expected.ssd.write_bw * 0.5),
        )
        assert same_value(degraded, expected)
        node.degrade(bw_sag=0.5)  # same state: same spec
        assert node.current_server() is degraded
        node.degrade(bw_sag=0.25)
        sagged = node.current_server()
        assert sagged is not degraded and sagged.ssd.read_bw == server.ssd.read_bw * 0.25
        assert sagged.n_ssds == 3
        node.restore()
        assert node.current_server() is server

    def test_restore_heals_the_node(self):
        fleet = Fleet(stub_nodes(1), "fifo", oracle=StubOracle())
        fleet.inject(10.0, "n0", failed_ssds=1, bw_sag=0.5)
        fleet.inject(20.0, "n0", restore=True)
        fleet.submit(job("late", submit_at=30.0))
        outcome = fleet.drain()
        assert fleet.nodes[0].failed_ssds == 0 and fleet.nodes[0].bw_sag == 1.0
        [result] = outcome.results
        assert result.completed
        assert result.iteration_time == pytest.approx(2.0)  # healthy 6B time

    def test_run_until_advances_partially(self):
        fleet = Fleet(stub_nodes(1), "fifo", oracle=StubOracle())
        fleet.submit(job("a", submit_at=0.0, iterations=5))      # 10 s of work
        fleet.submit(job("b", submit_at=100.0, iterations=5))
        fleet.run_until(50.0)
        assert fleet.result("a").completed
        assert fleet.result("b") is None
        outcome = fleet.drain()
        assert outcome.metrics["completed"] == 2

    def test_deadline_accounting(self):
        fleet = Fleet(stub_nodes(1), "fifo", oracle=StubOracle())
        fleet.submit(job("ok", deadline_s=100.0, iterations=5))          # 10 s
        fleet.submit(job("late", deadline_s=5.0, iterations=10, submit_at=1.0))
        outcome = fleet.drain()
        assert outcome.metrics["deadlines_total"] == 2
        assert outcome.metrics["deadlines_met"] == 1

    def test_outcome_payload_is_json_serialisable(self):
        fleet = Fleet(stub_nodes(), "fifo", oracle=StubOracle())
        fleet.submit(job("a"))
        payload = fleet.drain().to_payload()
        parsed = json.loads(json.dumps(payload))
        assert parsed["scheduler"] == "fifo"
        assert parsed["metrics"]["completed"] == 1


class TestNodeDrift:
    """A node reads its drift events off the state change itself."""

    def test_restore_raises_only_the_drive_change(self):
        node = standard_fleet_nodes()[2]  # box-4090, 12 drives
        node.degrade(failed_ssds=10, bw_sag=0.6)
        assert node.restore() == [DriveDrift(2, 12)]
        assert node.restore() == []

    def test_first_degrade_keeps_its_events_and_strings(self):
        box, dgx = standard_fleet_nodes()[2:]
        events = box.degrade(failed_ssds=10, bw_sag=0.6)
        assert [event.kind for event in events] == ["drive_loss", "bandwidth_sag"]
        assert [str(event) for event in events] == [
            "SSD array lost 10 drive(s): 2 of 12 remain",
            "bandwidth sag on ssd: 3.2 GB/s observed vs 32.0 GB/s profiled (10%)",
        ]
        # No SSD array, nothing to drift.
        assert dgx.degrade(failed_ssds=0, bw_sag=0.5) == []
        assert dgx.restore() == []

    def test_rejected_degrade_changes_nothing(self):
        node = standard_fleet_nodes()[2]
        with pytest.raises(FleetError, match="bw_sag"):
            node.degrade(failed_ssds=3, bw_sag=1.5)
        assert (node.failed_ssds, node.bw_sag) == (0, 1.0)
        assert node.degrade(failed_ssds=1) == [DriveDrift(12, 11)]

    @settings(max_examples=60, deadline=None)
    @given(
        calls=st.lists(
            st.one_of(
                st.none(),  # restore
                st.tuples(
                    st.one_of(st.none(), st.integers(0, 12)),
                    st.one_of(st.none(), st.floats(0.0, 1.0, exclude_min=True)),
                ),
            ),
            min_size=1,
            max_size=12,
        )
    )
    def test_drift_follows_the_state(self, calls):
        node = standard_fleet_nodes()[2]
        n_ssds = node.server.n_ssds
        for call in calls:
            before = n_ssds - node.failed_ssds
            if call is None:
                events = node.restore()
            else:
                events = node.degrade(failed_ssds=call[0], bw_sag=call[1])
            after = n_ssds - node.failed_ssds
            drives = [e for e in events if isinstance(e, DriveDrift)]
            sags = [e for e in events if isinstance(e, BandwidthDrift)]
            assert drives == ([DriveDrift(before, after)] if after != before else [])
            assert bool(sags) == ((after / n_ssds) * node.bw_sag < BW_RATIO)
            assert len(events) == len(drives) + len(sags)


class TestUnseatRecords:
    """What each way of unseating a running job writes: its journal
    record, its ledger decision and its timeline event."""

    JOURNAL = {"rec", "t", "job_id", "node", "remaining", "lost"}
    DECISION = {"decision", "time", "scheduler", "job", "lost_iterations"}

    def drain(self, tmp_path, nodes, scheduler, oracle, specs, inject):
        journal, ledger = tmp_path / "journal.jsonl", tmp_path / "ledger.jsonl"
        fleet = Fleet(
            nodes, scheduler, oracle=oracle, journal=str(journal), ledger=str(ledger)
        )
        for spec in specs:
            fleet.submit(spec)
        inject(fleet)
        outcome = fleet.drain()
        fleet.journal.close()
        records = FleetJournal(str(journal)).records()
        decisions = [entry.metrics["decision"] for entry in load_ledger(str(ledger)).entries()]
        return outcome, records, decisions

    @staticmethod
    def one(items, kind, key):
        [item] = [item for item in items if item[key] == kind]
        return item

    def test_priority_preemption(self, tmp_path):
        outcome, records, decisions = self.drain(
            tmp_path,
            stub_nodes(1),
            PriorityScheduler(aging_rate=0.0, preempt_margin=1.0),
            StubOracle(),
            [
                job("lowly", model="30B", priority=0, submit_at=0.0),
                job("urgent", model="6B", priority=5, submit_at=10.0),
            ],
            lambda fleet: None,
        )
        record = self.one(records, "preempt", "rec")
        assert set(record) == self.JOURNAL
        assert (record["job_id"], record["node"], record["lost"]) == ("lowly", "n0", 0)
        assert set(self.one(decisions, "preempt", "decision")) == self.DECISION
        [event] = [e for e in outcome.events if e.kind == "preempt"]
        assert (event.job_id, event.node, event.detail) == ("lowly", "n0", "")
        assert not any(e.kind == "requeue" for e in outcome.events)

    def test_drift_requeue(self, tmp_path):
        outcome, records, decisions = self.drain(
            tmp_path,
            stub_nodes(2),
            "sjf",
            StubOracle(speeds={"n0": 1.0, "n1": 1.1}),
            [job("victim", model="30B", submit_at=0.0, iterations=10)],
            lambda fleet: fleet.inject(50.0, "n0", failed_ssds=1, bw_sag=0.5),
        )
        reason = "degraded 3.00x past threshold 1.30x"
        record = self.one(records, "requeue", "rec")
        assert set(record) == self.JOURNAL | {"reason"}
        assert (record["job_id"], record["lost"], record["reason"]) == ("victim", 1, reason)
        decision = self.one(decisions, "requeue", "decision")
        assert set(decision) == self.DECISION | {"reason", "drift", "resume_pricing"}
        assert decision["reason"] == reason
        assert [d["kind"] for d in decision["drift"]] == ["drive_loss", "bandwidth_sag"]
        [event] = [e for e in outcome.events if e.kind == "requeue"]
        assert (event.job_id, event.node, event.detail) == ("victim", "n0", reason)
        assert not any(e.kind == "preempt" for e in outcome.events)

    def test_fail_stop_requeue(self, tmp_path):
        outcome, records, decisions = self.drain(
            tmp_path,
            stub_nodes(2),
            "fifo",
            StubOracle(),
            [job("victim", model="30B", iterations=10, checkpoint_every=2)],
            lambda fleet: fleet.inject_crash(100.0, "n0"),
        )
        record = self.one(records, "requeue", "rec")
        assert set(record) == self.JOURNAL | {"reason"}
        # 3 iterations done, 2 of them checkpointed at t=60 s.
        assert (record["reason"], record["lost"], record["remaining"]) == (
            "node fail-stop", 1, 8
        )
        decision = self.one(decisions, "requeue", "decision")
        assert set(decision) == self.DECISION | {"reason", "resume_from"}
        assert (decision["reason"], decision["resume_from"]) == ("node fail-stop", 2)
        [event] = [e for e in outcome.events if e.kind == "requeue"]
        assert (event.job_id, event.node, event.detail) == ("victim", "n0", "node fail-stop")


# -- hypothesis properties -----------------------------------------------------


def spec_strategy(with_pins=True):
    models = st.sampled_from(["30B", "13B", "6B"])
    pins = (
        st.sampled_from([None, None, "good", "nope"])
        if with_pins
        else st.just(None)
    )
    return st.builds(
        lambda i, model, iters, prio, submit, pin: JobSpec(
            f"job-{i:03d}",
            model=model,
            batch_size={"30B": 32, "13B": 16, "6B": 8}[model],
            iterations=iters,
            priority=prio,
            submit_at=submit,
            hardware_class=pin,
        ),
        st.integers(0, 10**6),
        models,
        st.integers(1, 20),
        st.integers(0, 5),
        st.floats(0.0, 3000.0, allow_nan=False),
        pins,
    )


def trace_strategy(with_pins=True, max_size=18):
    return st.lists(
        spec_strategy(with_pins),
        min_size=1,
        max_size=max_size,
        unique_by=lambda spec: spec.job_id,
    )


class PoisonScheduler(FifoScheduler):
    """FIFO that raises on jobs whose id starts with ``bad`` at one hook."""

    name = "poison"

    def __init__(self, where="order"):
        self.where = where

    def _maybe_boom(self, hook, jobs):
        if self.where == hook and any(
            state.spec.job_id.startswith("bad") for state in jobs
        ):
            raise RuntimeError("poisoned job")

    def order(self, queue, now, nodes, oracle):
        self._maybe_boom("order", queue)
        return super().order(queue, now, nodes, oracle)

    def place(self, job, free_nodes, now, oracle):
        self._maybe_boom("place", [job])
        return super().place(job, free_nodes, now, oracle)


class TestSchedulerContainment:
    """A raising scheduler callback quarantines the job, not the loop."""

    def _drain(self, scheduler, n_nodes=1):
        fleet = Fleet(stub_nodes(n_nodes), scheduler, oracle=StubOracle())
        fleet.submit(job("ok-1", submit_at=0.0))
        fleet.submit(job("bad", submit_at=1.0))
        fleet.submit(job("ok-2", submit_at=2.0))
        return fleet.drain()

    def _assert_contained(self, outcome):
        by_id = {result.spec.job_id: result for result in outcome.results}
        assert by_id["ok-1"].completed and by_id["ok-2"].completed
        assert by_id["bad"].state == "rejected"
        assert "scheduler error" in by_id["bad"].reason
        errors = [e for e in outcome.events if e.kind == "scheduler_error"]
        assert errors and errors[0].job_id == "bad"

    def test_order_exception_quarantines_offender(self):
        self._assert_contained(self._drain(PoisonScheduler("order")))

    def test_place_exception_quarantines_offender(self):
        self._assert_contained(self._drain(PoisonScheduler("place")))

    def test_preempt_victim_exception_quarantines_offender(self):
        class PoisonPreempt(FifoScheduler):
            name = "poison-preempt"
            preemptive = True

            def preempt_victim(self, job, busy_nodes, now, oracle):
                if job.spec.job_id.startswith("bad"):
                    raise RuntimeError("poisoned job")
                return None

        self._assert_contained(self._drain(PoisonPreempt()))

    def test_combination_failure_falls_back_to_arrival_order(self):
        class ComboPoison(FifoScheduler):
            name = "combo-poison"

            def order(self, queue, now, nodes, oracle):
                if len(queue) >= 2:
                    raise RuntimeError("needs the pair to blow up")
                return super().order(queue, now, nodes, oracle)

        fleet = Fleet(stub_nodes(1), ComboPoison(), oracle=StubOracle())
        # "a" occupies the node while "b" and "c" pile up in the queue,
        # so order() eventually sees the raising pair.
        fleet.submit(job("a", submit_at=0.0))
        fleet.submit(job("b", submit_at=1.0))
        fleet.submit(job("c", submit_at=2.0))
        outcome = fleet.drain()
        # No single offender: nothing is quarantined, everything still runs.
        assert outcome.metrics["completed"] == 3
        errors = [e for e in outcome.events if e.kind == "scheduler_error"]
        assert errors and "no single offender" in errors[0].detail


class TestConservationProperty:
    @settings(max_examples=40, deadline=None)
    @given(trace=trace_strategy(), scheduler=st.sampled_from(sorted(SCHEDULERS)))
    def test_no_job_lost_or_duplicated(self, trace, scheduler):
        nodes = stub_nodes(2, hardware_class="good")
        fleet = Fleet(nodes, scheduler, oracle=StubOracle())
        for spec in trace:
            fleet.submit(spec)
        outcome = fleet.drain()
        assert outcome.metrics["completed"] + outcome.metrics["rejected"] == len(trace)
        terminal_ids = [r.spec.job_id for r in outcome.results]
        assert sorted(terminal_ids) == sorted(spec.job_id for spec in trace)
        assert len(set(terminal_ids)) == len(trace)
        for result in outcome.results:
            if result.spec.hardware_class == "nope":
                assert result.state == "rejected"
            else:
                assert result.completed


class TestBoundedWaitProperty:
    """Aged priority bounds starvation: bound = (p_max - p_min) / aging_rate.

    With priorities in [0, 5] and ``aging_rate=0.01`` the bound is 500 s:
    once a job has queued 500 s its effective priority strictly exceeds
    any fresh arrival's, so — feasibility being uniform — no job can
    start before one submitted more than 500 s earlier.
    """

    AGING = 0.01
    BOUND = (5 - 0) / AGING

    @settings(max_examples=40, deadline=None)
    @given(trace=trace_strategy(with_pins=False))
    def test_no_start_inversion_past_the_bound(self, trace):
        fleet = Fleet(
            stub_nodes(2),
            PriorityScheduler(aging_rate=self.AGING),
            oracle=StubOracle(),
        )
        for spec in trace:
            fleet.submit(spec)
        outcome = fleet.drain()
        started = {
            r.spec.job_id: (r.submitted_at, r.started_at)
            for r in outcome.results
            if r.started_at is not None
        }
        for id_a, (submit_a, start_a) in started.items():
            for id_b, (submit_b, start_b) in started.items():
                if submit_a + self.BOUND < submit_b:
                    assert start_a <= start_b, (
                        f"{id_a} (t={submit_a:.0f}) started after {id_b} "
                        f"(t={submit_b:.0f}) despite waiting past the "
                        f"{self.BOUND:.0f} s starvation bound"
                    )


class TestSpecRoundTripProperty:
    @settings(max_examples=60, deadline=None)
    @given(spec=spec_strategy())
    def test_payload_round_trip_is_bit_exact(self, spec):
        assert JobSpec.from_payload(spec.to_payload()) == spec
        over_json = json.loads(json.dumps(spec.to_payload()))
        assert JobSpec.from_payload(over_json) == spec

    @settings(max_examples=25, deadline=None)
    @given(trace=trace_strategy(with_pins=False, max_size=8))
    def test_preempt_requeue_preserves_spec_identity(self, trace):
        originals = {spec.job_id: spec.to_payload() for spec in trace}
        fleet = Fleet(
            stub_nodes(1),
            PriorityScheduler(aging_rate=0.0, preempt_margin=1.0),
            oracle=StubOracle(),
        )
        for spec in trace:
            fleet.submit(spec)
        outcome = fleet.drain()
        for result in outcome.results:
            assert result.spec.to_payload() == originals[result.spec.job_id]
            assert JobSpec.from_payload(result.spec.to_payload()) == result.spec


# -- integration: the real cost oracle ----------------------------------------


class TestRealOracleIntegration:
    def test_degradation_escalates_to_ledgered_migration(self, tmp_path):
        path = str(tmp_path / "fleet.jsonl")
        fleet = Fleet(standard_fleet_nodes(), "sjf", ledger=path)
        fleet.submit(JobSpec("long", model="30B", batch_size=32, iterations=12))
        fleet.submit(
            JobSpec("med", model="13B", batch_size=16, iterations=8, submit_at=5.0)
        )
        fleet.inject(30.0, "box-4090", failed_ssds=10, bw_sag=0.6)
        outcome = fleet.drain()
        assert outcome.metrics["completed"] == 2
        assert outcome.metrics["requeues"] >= 1
        assert outcome.metrics["migrations"] >= 1

        entries = load_ledger(path).entries()
        assert all(entry.kind == "fleet" for entry in entries)
        decisions = [entry.metrics["decision"] for entry in entries]
        requeues = [d for d in decisions if d["decision"] == "requeue"]
        assert requeues and "threshold" in requeues[0]["reason"]
        migrated = next(d for d in decisions if d["decision"] == "migrate")
        assert JobSpec.from_payload(migrated["job"]).job_id == "med"

    def test_oracle_prefers_predicted_iteration_time(self):
        oracle = CostOracle()
        node = standard_fleet_nodes()[2]  # box-4090, Ratel
        spec = JobSpec("probe", model="13B", batch_size=16, iterations=4)
        outcome = oracle.outcome(spec, node)
        assert outcome.feasible
        t = oracle.iteration_time(spec, node)
        assert t == pytest.approx(outcome.predicted_iteration_time)
        assert oracle.service_time(spec, node, 4) == pytest.approx(4 * t)

    def test_bursty_drill_smoke(self):
        outcome = run_bursty_drill("fifo", n_jobs=6, degrade=False)
        assert outcome.metrics["completed"] + outcome.metrics["rejected"] == 6
        assert len(bursty_trace(6)) == 6
        assert bursty_trace(6) == bursty_trace(6)  # deterministic
        assert standard_degradations()[0]["node"] == "box-4090"
