"""End-to-end causal trace propagation across serve, sweep, fleet, adapt.

One trace_id born at a request boundary must be retrievable from every
record the request produced: the serve response (and its pool-worker
backend call), the sweep's process-pool worker envelopes, fleet events
and decisions, adapt decisions, and every ledger entry appended while
the trace was active.  The Hypothesis properties pin the two contracts
the issue names: a single trace_id (with an acyclic parent/child span
chain) through serve -> single-flight cache -> pool worker, and
bit-exact ``TraceContext`` serialisation through the JSONL ledger.
"""

from __future__ import annotations

import io
import math

import pytest
from hypothesis import given, settings, strategies as st

from repro.cli import main
from repro.core import EvalOutcome, RatelPolicy
from repro.hardware import evaluation_server
from repro.models import llm
from repro.obs import tracectx
from repro.obs.ledger import LedgerEntry, RunLedger, load_ledger
from repro.obs.tracectx import TraceContext
from repro.runner import Sweep, SweepPoint
from repro.runner.sweep import _pool_compute
from repro.serve import PlannerService, ServiceConfig, make_server, start_in_thread

hex_trace = st.text("0123456789abcdef", min_size=32, max_size=32).filter(
    lambda s: set(s) != {"0"}
)
hex_span = st.text("0123456789abcdef", min_size=16, max_size=16).filter(
    lambda s: set(s) != {"0"}
)


def run_cli(*argv) -> tuple[int, str]:
    out = io.StringIO()
    code = main(list(argv), out)
    return code, out.getvalue()


def assert_acyclic_chain(leaf: TraceContext, spans: dict[str, TraceContext]) -> None:
    """Walk leaf -> root through parent_id; no cycles, one trace id."""
    seen: set[str] = set()
    current: TraceContext | None = leaf
    while current is not None:
        assert current.span_id not in seen, "span cycle"
        seen.add(current.span_id)
        assert current.trace_id == leaf.trace_id
        current = spans.get(current.parent_id)


# -- ledger stamping -----------------------------------------------------------


def entry(**overrides) -> LedgerEntry:
    fields = dict(
        label="evaluate:Ratel/13B/b8@test",
        policy="Ratel",
        model="13B",
        batch_size=8,
        server="test",
        feasible=True,
    )
    fields.update(overrides)
    return LedgerEntry(**fields)


class TestLedgerStamping:
    def test_ambient_trace_stamps_appended_entries(self, tmp_path):
        ledger = RunLedger(str(tmp_path / "runs.jsonl"))
        ctx = tracectx.new_trace()
        with tracectx.activate(ctx):
            ledger.append(entry())
        ledger.append(entry())  # outside any trace
        first, second = ledger.entries()
        assert first.trace_id == ctx.trace_id
        assert second.trace_id == ""

    def test_explicit_trace_id_wins_over_ambient(self, tmp_path):
        ledger = RunLedger(str(tmp_path / "runs.jsonl"))
        with tracectx.activate(tracectx.new_trace()):
            ledger.append(entry(trace_id="f" * 32))
        [held] = ledger.entries()
        assert held.trace_id == "f" * 32

    @given(trace_id=hex_trace, span_id=hex_span, parent_id=st.one_of(st.just(""), hex_span))
    @settings(max_examples=25, deadline=None)
    def test_context_round_trips_bit_exactly_through_jsonl(
        self, tmp_path_factory, trace_id, span_id, parent_id
    ):
        ctx = TraceContext(trace_id=trace_id, span_id=span_id, parent_id=parent_id)
        path = str(tmp_path_factory.mktemp("trace-ledger") / "runs.jsonl")
        RunLedger(path).append(
            entry(trace_id=ctx.trace_id, metrics={"trace": ctx.to_payload()})
        )
        [held] = load_ledger(path).entries()
        assert held.trace_id == ctx.trace_id
        assert TraceContext.from_payload(held.metrics["trace"]) == ctx


# -- sweep process pool --------------------------------------------------------


class TestSweepPoolPropagation:
    def _point(self, batch=8):
        return SweepPoint.evaluate(RatelPolicy(), llm("13B"), batch, evaluation_server())

    def test_worker_runs_under_a_child_span(self):
        submitted = tracectx.new_trace()
        envelope = _pool_compute(self._point(), submitted.to_payload())
        worker = TraceContext.from_payload(envelope["worker_trace"])
        assert worker.trace_id == submitted.trace_id
        assert worker.parent_id == submitted.span_id
        spans = {ctx.span_id: ctx for ctx in (submitted, worker)}
        assert_acyclic_chain(worker, spans)

    def test_untraced_submission_ships_no_trace(self):
        envelope = _pool_compute(self._point())
        assert "worker_trace" not in envelope

    def test_torn_trace_payload_does_not_fail_the_point(self):
        envelope = _pool_compute(self._point(), {"trace_id": "not-hex"})
        assert "worker_trace" not in envelope
        assert envelope["value"] is not None

    def test_process_sweep_attributes_ledger_and_metrics(self, tmp_path):
        path = str(tmp_path / "runs.jsonl")
        sweep = Sweep(executor="process", max_workers=2, ledger=path)
        with tracectx.activate(tracectx.new_trace()) as trace:
            trace_id = trace.trace_id
            points = [self._point(batch) for batch in (8, 16)]
            outcomes = sweep.run(points)
        assert all(o.feasible for o in outcomes)
        entries = load_ledger(path).entries()
        assert len(entries) == 2
        assert {e.trace_id for e in entries} == {trace_id}
        # Worker snapshots shipped home under the same trace.
        assert sweep.metrics().trace_id == trace_id


# -- serve: request -> single-flight cache -> pool worker ----------------------


def ok_backend(query, cancel):
    return EvalOutcome(
        policy=query.policy,
        model=query.model,
        batch_size=query.batch_size,
        server=query.gpu,
        feasible=True,
        metrics={"iteration_time": 2.0, "tokens_per_s": 1000.0 / query.batch_size},
    ).to_payload()


@pytest.fixture(scope="module")
def serve_rig(tmp_path_factory):
    """A planner service whose backend records the ambient trace context."""
    root = tmp_path_factory.mktemp("serve-trace")
    observed: list[TraceContext | None] = []

    def recording_backend(query, cancel):
        observed.append(tracectx.current())
        return ok_backend(query, cancel)

    service = PlannerService(
        ServiceConfig(
            rate=10_000.0,
            burst=5_000.0,
            retry_attempts=1,
            cache_dir=str(root / "cache"),
            journal_path=str(root / "journal.jsonl"),
        ),
        backend=recording_backend,
        sleep=lambda _: None,
    )
    yield service, observed
    service.close()


class TestServePropagation:
    def test_direct_request_roots_a_retrievable_trace(self, serve_rig):
        service, _ = serve_rig
        response = service.handle({"model": "6B", "batch_size": 4})
        assert response.status == 200
        assert len(response.trace_id) == 32
        assert response.to_payload()["trace_id"] == response.trace_id

    def test_backend_runs_under_a_child_of_the_request(self, serve_rig):
        service, observed = serve_rig
        root = tracectx.new_trace()
        observed.clear()
        with tracectx.activate(root):
            response = service.handle({"model": "13B", "batch_size": 3})
        assert response.status == 200
        assert response.trace_id == root.trace_id
        [backend_ctx] = observed
        assert backend_ctx is not None
        assert backend_ctx.trace_id == root.trace_id
        assert backend_ctx.parent_id == root.span_id

    def test_cache_hit_carries_the_second_requests_trace(self, serve_rig):
        service, observed = serve_rig
        payload = {"model": "6B", "batch_size": 7}
        first = tracectx.new_trace()
        with tracectx.activate(first):
            assert service.handle(payload).trace_id == first.trace_id
        observed.clear()
        second = tracectx.new_trace()
        with tracectx.activate(second):
            response = service.handle(payload)
        # Served from the cache index: no backend call, and the answer is
        # attributed to the request that asked, not the one that filled it.
        assert observed == []
        assert response.rung == "exact"
        assert response.trace_id == second.trace_id

    @given(trace_id=hex_trace, span_id=hex_span, batch=st.integers(min_value=1, max_value=48))
    @settings(max_examples=20, deadline=None)
    def test_one_trace_id_and_acyclic_spans_per_request(
        self, serve_rig, trace_id, span_id, batch
    ):
        service, observed = serve_rig
        root = TraceContext(trace_id=trace_id, span_id=span_id)
        observed.clear()
        with tracectx.activate(root):
            response = service.handle({"model": "30B", "batch_size": batch})
        assert response.status == 200
        assert response.trace_id == root.trace_id
        spans = {root.span_id: root}
        for ctx in observed:  # empty on a single-flight cache hit
            assert ctx is not None
            spans[ctx.span_id] = ctx
            assert_acyclic_chain(ctx, spans)


class TestHTTPTraceparent:
    @pytest.fixture()
    def server(self, serve_rig):
        server = make_server(serve_rig[0], port=0)
        start_in_thread(server)
        yield server
        server.shutdown()
        server.server_close()

    def _post(self, server, payload, headers=None):
        import json as _json
        import urllib.request

        host, port = server.server_address[:2]
        request = urllib.request.Request(
            f"http://{host}:{port}/v1/whatif",
            data=_json.dumps(payload).encode(),
            headers=dict({"Content-Type": "application/json"}, **(headers or {})),
        )
        with urllib.request.urlopen(request) as response:
            return _json.loads(response.read()), response.headers

    def test_traceparent_joined_and_echoed(self, server):
        root = tracectx.new_trace()
        body, headers = self._post(
            server,
            {"model": "6B", "batch_size": 11},
            {"traceparent": root.to_traceparent()},
        )
        assert body["trace_id"] == root.trace_id
        echoed = TraceContext.from_traceparent(headers["traceparent"])
        assert echoed is not None
        assert echoed.trace_id == root.trace_id
        assert echoed.span_id != root.span_id  # the server's own hop

    def test_malformed_traceparent_starts_a_fresh_trace(self, server):
        body, headers = self._post(
            server,
            {"model": "6B", "batch_size": 12},
            {"traceparent": "00-zzz-bad-01"},
        )
        assert len(body["trace_id"]) == 32
        echoed = TraceContext.from_traceparent(headers["traceparent"])
        assert echoed is not None and echoed.trace_id == body["trace_id"]


# -- fleet and adapt -----------------------------------------------------------


class StubOracle:
    def feasible(self, spec, node):
        return True

    def iteration_time(self, spec, node):
        return 2.0

    def service_time(self, spec, node, iterations):
        return iterations * self.iteration_time(spec, node)

    def needs(self, spec, node):
        return None


class TestFleetStamping:
    def _fleet(self, tmp_path):
        from repro.fleet import Fleet, Node

        nodes = [
            Node(f"n{i}", evaluation_server(n_ssds=2), RatelPolicy())
            for i in range(2)
        ]
        return Fleet(
            nodes, "fifo", oracle=StubOracle(), ledger=str(tmp_path / "fleet.jsonl")
        )

    def test_submit_stamps_spec_events_and_ledger(self, tmp_path):
        from repro.fleet import JobSpec

        fleet = self._fleet(tmp_path)
        ctx = tracectx.new_trace()
        with tracectx.activate(ctx):
            fleet.submit(JobSpec("traced", model="6B", batch_size=8, iterations=2))
        fleet.submit(JobSpec("plain", model="6B", batch_size=8, iterations=2))
        outcome = fleet.drain()
        assert outcome.metrics["completed"] == 2
        by_job = {}
        for event in outcome.events:
            if event.job_id:
                by_job.setdefault(event.job_id, set()).add(event.trace_id)
        assert by_job["traced"] == {ctx.trace_id}
        assert by_job["plain"] == {""}
        entries = load_ledger(str(tmp_path / "fleet.jsonl")).entries()
        traced = [e for e in entries if "traced" in e.label]
        assert traced and all(e.trace_id == ctx.trace_id for e in traced)

    def test_node_degrade_ledgered_under_ambient_trace(self, tmp_path):
        """A node's health change is linked to the trace it happened
        under by its ledger decision: a degrade processed under a trace
        carries that trace_id, a restore processed outside one carries none."""
        fleet = self._fleet(tmp_path)
        fleet.inject(10.0, "n0", failed_ssds=1)
        fleet.inject(20.0, "n0", restore=True)
        ctx = tracectx.new_trace()
        with tracectx.activate(ctx):
            fleet.run_until(15.0)
        fleet.drain()
        entries = load_ledger(str(tmp_path / "fleet.jsonl")).entries()
        stamps = [(e.metrics["decision"]["decision"], e.trace_id) for e in entries]
        assert stamps == [("degrade", ctx.trace_id), ("restore", "")]


class TestAdaptStamping:
    def test_drill_decisions_stamped_under_session_trace(self, tmp_path):
        from repro.adapt import drill_outcome

        path = str(tmp_path / "adapt.jsonl")
        with tracectx.activate(tracectx.new_trace()) as trace:
            trace_id = trace.trace_id
            outcome = drill_outcome(ledger=RunLedger(path))
        assert outcome.metrics["plan_swaps"] > 0
        decisions = [e for e in load_ledger(path).entries() if e.kind == "adapt"]
        assert decisions
        assert {e.trace_id for e in decisions} == {trace_id}
        for held in decisions:
            assert held.metrics["decision"]["trace_id"] == trace_id


# -- the acceptance path: one id from request to report ------------------------


class TestTraceReportRoundTrip:
    def test_serve_request_retrievable_via_obs_report(self, tmp_path):
        ledger_path = str(tmp_path / "serve-ledger.jsonl")
        service = PlannerService(
            ServiceConfig(
                rate=100.0,
                burst=50.0,
                retry_attempts=1,
                cache_dir=str(tmp_path / "cache"),
                journal_path=str(tmp_path / "journal.jsonl"),
                ledger_path=ledger_path,
            ),
            backend=ok_backend,
            sleep=lambda _: None,
        )
        try:
            response = service.handle({"model": "13B", "batch_size": 8})
        finally:
            service.close()
        assert response.status == 200 and response.trace_id
        code, text = run_cli(
            "obs", "report", "--trace-id", response.trace_id, "--ledger", ledger_path
        )
        assert code == 0
        assert response.trace_id in text
        assert "ledger record" in text

    def test_traced_sweep_retrievable_via_obs_report(self, tmp_path):
        path = str(tmp_path / "runs.jsonl")
        sweep = Sweep(executor="process", max_workers=2, ledger=path)
        with tracectx.activate(tracectx.new_trace()) as trace:
            sweep.run(
                [
                    SweepPoint.evaluate(
                        RatelPolicy(), llm("13B"), batch, evaluation_server()
                    )
                    for batch in (8, 16)
                ]
            )
            trace_id = trace.trace_id
        code, text = run_cli("obs", "report", "--trace-id", trace_id, "--ledger", path)
        assert code == 0
        assert "2 ledger record" in text

    def test_unknown_trace_id_reports_no_matches(self, tmp_path):
        path = str(tmp_path / "runs.jsonl")
        RunLedger(path).append(entry())
        code, text = run_cli("obs", "report", "--trace-id", "e" * 32, "--ledger", path)
        assert code == 1
        assert "no entries with trace_id" in text


def test_fleet_math_guard():
    # Guard against NaN service times leaking from the stub oracle shape.
    assert math.isfinite(StubOracle().service_time(None, None, 3))
