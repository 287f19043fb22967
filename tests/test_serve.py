"""The hardened planner service (repro.serve.service + .admission + .http).

Covers the request pipeline end to end with a stub backend and an
injected clock: validation, admission (429 vs 503 with honest
Retry-After), the breaker-driven degradation ladder, write-ahead
journal recovery (replay without double-run), the stats surface, and
an HTTP round trip over an ephemeral port.
"""

from __future__ import annotations

import json
import threading
import urllib.error
import urllib.request

import pytest

from repro.core import EvalOutcome, RatelPolicy
from repro.hardware import evaluation_server
from repro.models import llm
from repro.runner import Sweep, encode_value
from repro.serve import (
    AdmissionController,
    PlannerService,
    ServiceConfig,
    WhatIfQuery,
    make_server,
    start_in_thread,
)
from repro.serve import breaker as breaker_module
from repro.serve.breaker import HISTORY_LEN, CircuitBreaker
from repro.serve.chaos import ChaosBackend
from repro.serve.journal import RequestJournal
from repro.serve.service import ServeError, analytic_estimate


class FakeClock:
    def __init__(self) -> None:
        self.now = 0.0

    def __call__(self) -> float:
        return self.now

    def advance(self, dt: float) -> None:
        self.now += dt


def ok_backend(query, cancel):
    return EvalOutcome(
        policy=query.policy,
        model=query.model,
        batch_size=query.batch_size,
        server=query.gpu,
        feasible=True,
        metrics={"iteration_time": 2.0, "tokens_per_s": 1000.0 / query.batch_size},
    ).to_payload()


def crash_backend(query, cancel):
    raise RuntimeError("injected backend crash")


def config_for(tmp_path, **overrides):
    overrides.setdefault("rate", 100.0)
    overrides.setdefault("burst", 50.0)
    overrides.setdefault("retry_attempts", 1)
    overrides.setdefault("cache_dir", str(tmp_path / "cache"))
    overrides.setdefault("journal_path", str(tmp_path / "journal.jsonl"))
    return ServiceConfig(**overrides)


@pytest.fixture
def clock():
    return FakeClock()


def make_service(tmp_path, clock, backend=ok_backend, **overrides):
    return PlannerService(
        config_for(tmp_path, **overrides),
        backend=backend,
        clock=clock,
        sleep=lambda _: None,
    )


class TestWhatIfQuery:
    def test_round_trip_and_defaults(self):
        query = WhatIfQuery.from_payload({"model": "13B", "batch_size": 8})
        assert query.policy == "ratel"
        assert query.gpu == "4090"
        again = WhatIfQuery.from_payload(query.to_payload())
        assert again == query
        assert query.key() == again.key()

    @pytest.mark.parametrize(
        "payload",
        [
            {"batch_size": 8},
            {"model": "9000B", "batch_size": 8},
            {"model": "13B", "batch_size": 0},
            {"model": "13B", "batch_size": 8, "policy": "zeus"},
            {"model": "13B", "batch_size": 8, "gpu": "1080"},
            {"model": "13B", "batch_size": 8, "flux_capacitor": 1},
            {"model": "13B", "batch_size": 8, "deadline_s": -1},
        ],
    )
    def test_malformed_queries_rejected(self, payload):
        with pytest.raises(ServeError):
            WhatIfQuery.from_payload(payload)

    def test_analytic_estimate_is_positive(self):
        metrics = analytic_estimate(WhatIfQuery(model="13B", batch_size=8))
        assert metrics["iteration_time"] > 0
        assert metrics["tokens_per_s"] > 0


class TestAdmission:
    def test_queue_full_sheds_503_and_keeps_the_token(self, clock):
        admission = AdmissionController(
            rate=1.0, burst=1.0, max_queue=2, queue_wait_hint_s=3.0, clock=clock
        )
        decision = admission.admit(queue_depth=2)
        assert (decision.admitted, decision.status) == (False, 503)
        assert decision.retry_after_s == pytest.approx(3.0)
        # The 503 never consumed the rate token: the next paced call passes.
        assert admission.admit(queue_depth=0).admitted
        assert (admission.shed_depth, admission.shed_rate) == (1, 0)

    def test_rate_exhaustion_sheds_429_with_honest_retry_after(self, clock):
        admission = AdmissionController(rate=2.0, burst=1.0, max_queue=8, clock=clock)
        assert admission.admit(0).admitted
        decision = admission.admit(0)
        assert (decision.admitted, decision.status) == (False, 429)
        assert decision.retry_after_s == pytest.approx(0.5)  # 1 token at 2/s
        clock.advance(0.5)
        assert admission.admit(0).admitted


class TestServicePipeline:
    def test_first_answer_simulates_then_index_serves(self, tmp_path, clock):
        service = make_service(tmp_path, clock)
        first = service.handle({"model": "6B", "batch_size": 4})
        assert (first.status, first.rung, first.source) == (200, "exact", "sim")
        assert first.feasible is True
        second = service.handle({"model": "6B", "batch_size": 4})
        assert (second.status, second.rung, second.source) == (200, "exact", "ledger")
        assert service.cache.stats.stores == 1
        service.close()

    def test_malformed_payload_is_a_400_not_an_exception(self, tmp_path, clock):
        service = make_service(tmp_path, clock)
        response = service.handle({"model": "13B"})
        assert response.status == 400
        assert "batch_size" in response.detail
        service.close()

    def test_rate_shed_is_429_before_any_journal_write(self, tmp_path, clock):
        service = make_service(tmp_path, clock, rate=10.0, burst=1.0)
        assert service.handle({"model": "6B", "batch_size": 4}).status == 200
        shed = service.handle({"model": "6B", "batch_size": 4})
        assert (shed.status, shed.source) == (429, "admission")
        assert shed.retry_after_s > 0
        accounting = RequestJournal(service.config.journal_path).fold()
        assert len(accounting.accepted) == 1  # the shed request never landed
        service.close()

    def test_breaker_opens_then_probe_restores_exact(self, tmp_path, clock):
        backend = {"mode": "crash"}

        def flaky(query, cancel):
            if backend["mode"] == "crash":
                return crash_backend(query, cancel)
            return ok_backend(query, cancel)

        service = make_service(
            tmp_path, clock, backend=flaky,
            breaker_threshold=2, breaker_cooldown_s=5.0,
        )
        # Crashing backend: every answer degrades to analytic but stays 200.
        for _ in range(2):
            response = service.handle({"model": "6B", "batch_size": 4})
            assert (response.status, response.rung) == (200, "analytic")
        assert service.breaker.state == "open"
        # While open the backend is never touched: still analytic.
        calls_before = service.cache.stats.stores
        response = service.handle({"model": "6B", "batch_size": 4})
        assert (response.status, response.rung) == (200, "analytic")
        assert service.cache.stats.stores == calls_before
        # Cooldown + healthy backend: the half-open probe restores exact.
        backend["mode"] = "ok"
        clock.advance(5.0)
        probe = service.handle({"model": "6B", "batch_size": 4})
        assert (probe.status, probe.rung, probe.source) == (200, "exact", "sim")
        assert service.breaker.state == "closed"
        assert not service.ladder.degraded
        assert service.ladder.episode >= 1
        service.close()

    def test_stats_snapshot_shape(self, tmp_path, clock):
        service = make_service(tmp_path, clock)
        service.handle({"model": "6B", "batch_size": 4})
        stats = service.stats()
        assert stats["breaker"] == "closed"
        assert stats["ladder_floor"] == "exact"
        assert stats["indexed_answers"] == 1
        assert stats["cache"]["computes"] == 1
        assert stats["inflight"] == 0
        service.close()

    def test_one_simulated_request_counts_one_miss(self, tmp_path, clock):
        service = make_service(tmp_path, clock)
        response = service.handle({"model": "6B", "batch_size": 4})
        assert response.source == "sim"
        # The exact rung's own lookup is the only one counted: the
        # single-flight re-checks around the simulation are not.
        assert service.stats()["cache"] == {
            "hits": 0, "misses": 1, "computes": 1, "corrupt": 0,
        }
        service.close()

    def test_answers_a_point_a_sweep_stored(self, tmp_path, clock):
        # `repro sweep --cache-dir D` and `repro serve --cache-dir D`
        # share one store: the sweep's answer is served, not recomputed.
        outcome = Sweep(cache_dir=str(tmp_path / "cache")).evaluate(
            RatelPolicy(), llm("13B"), 8, evaluation_server()
        )
        calls = []

        def recording(query, cancel):
            calls.append(query)
            return ok_backend(query, cancel)

        service = make_service(tmp_path, clock, backend=recording)
        response = service.handle({"model": "13B", "batch_size": 8})
        assert (response.status, response.rung, response.source) == (200, "exact", "cache")
        assert calls == []
        assert response.feasible is True
        assert response.metrics["iteration_time"] == outcome.iteration_time
        service.close()

    def test_a_sweep_reads_a_point_the_service_stored(self, tmp_path, clock):
        # The other direction, through the drill's synthetic backend:
        # what the service stores decodes as the runner's own entry.
        service = make_service(tmp_path, clock, backend=ChaosBackend())
        response = service.handle({"model": "13B", "batch_size": 8})
        assert response.source == "sim"
        service.close()
        outcome = Sweep(cache_dir=str(tmp_path / "cache")).evaluate(
            RatelPolicy(), llm("13B"), 8, evaluation_server()
        )
        assert outcome.cached is True
        assert outcome.iteration_time == response.metrics["iteration_time"]

    def test_a_partial_backend_payload_is_never_stored(self, tmp_path, clock):
        def partial(query, cancel):
            return {"feasible": True, "metrics": {"iteration_time": 2.0}}

        service = make_service(tmp_path, clock, backend=partial)
        response = service.handle({"model": "6B", "batch_size": 4})
        assert (response.status, response.rung) == (200, "analytic")
        assert service.stats()["cache"]["computes"] == 0
        assert list((tmp_path / "cache").rglob("*.json")) == []
        service.close()


class TestBreakerHistory:
    def test_keeps_only_the_newest_transitions(self, clock):
        seen = []
        breaker = CircuitBreaker(
            failure_threshold=1, cooldown_s=1.0, clock=clock, on_transition=seen.append
        )
        while len(seen) < 2 * HISTORY_LEN:
            breaker.record_failure("boom")  # closed or half_open -> open
            clock.advance(1.0)
            assert breaker.allow()  # open -> half_open: the probe
        assert len(seen) == 2 * HISTORY_LEN
        assert breaker.transitions == seen[-HISTORY_LEN:]

    def test_stats_count_every_transition(self, tmp_path, clock, monkeypatch):
        monkeypatch.setattr(breaker_module, "HISTORY_LEN", 2)
        backend = {"mode": "crash"}

        def flaky(query, cancel):
            if backend["mode"] == "crash":
                return crash_backend(query, cancel)
            return ok_backend(query, cancel)

        service = make_service(
            tmp_path, clock, backend=flaky, breaker_threshold=1, breaker_cooldown_s=5.0
        )
        service.handle({"model": "6B", "batch_size": 4})
        assert service.stats()["breaker_transitions"] == 1  # closed -> open
        backend["mode"] = "ok"
        clock.advance(5.0)
        service.handle({"model": "6B", "batch_size": 4})
        # open -> half_open -> closed: three in all, two kept
        assert service.stats()["breaker_transitions"] == 3
        assert [t.to_state for t in service.breaker.transitions] == ["half_open", "closed"]
        service.close()


class TestRecovery:
    def test_orphan_replays_against_cache_without_double_run(self, tmp_path, clock):
        service = make_service(tmp_path, clock)
        query = WhatIfQuery(model="6B", batch_size=4)
        # Stored on disk as the service itself stores answers.
        entry = encode_value(EvalOutcome.from_payload(ok_backend(query, None)))
        service.cache.put(query.key(), entry, entry)
        # Accepted before the crash, never terminated: an orphan.
        service.journal.accepted("orphan-1", query.to_payload(), query.key())
        service.close()

        # Recorded, not raised: the exact rung contains backend errors,
        # so a raising stub would only degrade the answer unseen.
        calls = []

        def never(query, cancel):
            calls.append(query)
            return ok_backend(query, cancel)

        restarted = make_service(tmp_path, clock, backend=never)
        assert restarted.recover() == 1
        assert calls == [], "replay must hit the cache, not the backend"
        accounting = RequestJournal(restarted.config.journal_path).fold()
        assert accounting.orphans == []
        assert "orphan-1" in accounting.done
        assert accounting.duplicate_terminals == 0
        restarted.close()

    def test_torn_journal_tail_repaired_before_append(self, tmp_path, clock):
        service = make_service(tmp_path, clock)
        service.handle({"model": "6B", "batch_size": 4})
        service.close()
        with open(str(tmp_path / "journal.jsonl"), "a", encoding="utf-8") as handle:
            handle.write('{"rec": "accepted", "request_id": "torn')  # no newline
        restarted = make_service(tmp_path, clock)
        restarted.recover()
        assert restarted.journal.repaired_bytes > 0
        accounting = RequestJournal(restarted.config.journal_path).fold()
        assert accounting.orphans == []
        restarted.close()

    def test_unreplayable_orphan_is_marked_failed(self, tmp_path, clock):
        service = make_service(tmp_path, clock)
        service.journal.accepted("orphan-bad", {"model": "9000B"}, "k")
        service.close()
        restarted = make_service(tmp_path, clock)
        assert restarted.recover() == 0
        accounting = RequestJournal(restarted.config.journal_path).fold()
        assert "orphan-bad" in accounting.failed
        restarted.close()


class TestHTTP:
    @pytest.fixture
    def server(self, tmp_path):
        service = PlannerService(
            config_for(tmp_path, rate=1000.0, burst=100.0), backend=ok_backend
        )
        server = make_server(service, port=0)
        start_in_thread(server)
        yield server
        server.shutdown()
        server.shutdown_service()

    def _url(self, server, path):
        host, port = server.server_address[:2]
        return f"http://{host}:{port}{path}"

    def _get(self, server, path):
        with urllib.request.urlopen(self._url(server, path)) as response:
            return response.status, json.loads(response.read() or b"{}")

    def _post(self, server, path, payload):
        request = urllib.request.Request(
            self._url(server, path),
            data=json.dumps(payload).encode(),
            headers={"Content-Type": "application/json"},
        )
        try:
            with urllib.request.urlopen(request) as response:
                return response.status, json.loads(response.read()), response.headers
        except urllib.error.HTTPError as error:
            return error.code, json.loads(error.read()), error.headers

    def test_whatif_round_trip(self, server):
        status, body, _ = self._post(
            server, "/v1/whatif", {"model": "6B", "batch_size": 4}
        )
        assert status == 200
        assert body["rung"] == "exact"
        assert body["feasible"] is True
        assert body["metrics"]["iteration_time"] == 2.0

    def test_healthz_and_stats(self, server):
        status, body = self._get(server, "/healthz")
        assert (status, body["status"], body["breaker"]) == (200, "ok", "closed")
        status, stats = self._get(server, "/v1/stats")
        assert status == 200
        assert "cache" in stats

    def test_metrics_exposition(self, server):
        self._post(server, "/v1/whatif", {"model": "6B", "batch_size": 4})
        with urllib.request.urlopen(self._url(server, "/metrics")) as response:
            text = response.read().decode()
            content_type = response.headers["Content-Type"]
        assert "requests_accepted_total" in text
        # Prometheus scrapers key on the exposition-format version.
        assert content_type == "text/plain; version=0.0.4"

    def test_metrics_parse_under_exposition_grammar(self, server):
        # Every line of /metrics must be a comment, a # TYPE header, or a
        # sample `name{labels} value` — and histogram buckets cumulative.
        import re

        self._post(server, "/v1/whatif", {"model": "6B", "batch_size": 4})
        with urllib.request.urlopen(self._url(server, "/metrics")) as response:
            text = response.read().decode()
        name = r"[a-zA-Z_:][a-zA-Z0-9_:]*"
        label = rf'{name}="(?:[^"\\]|\\["\\n])*"'
        sample = re.compile(rf"^{name}(?:\{{{label}(?:,{label})*\}})? -?[0-9.e+\-]+$|^{name}(?:\{{.*\}})? \+Inf$")
        typed = re.compile(rf"^# TYPE {name} (counter|gauge|histogram)$")
        buckets: dict[str, list[float]] = {}
        for line in text.splitlines():
            if not line:
                continue
            if line.startswith("#"):
                assert typed.match(line) or line.startswith("# HELP"), line
                continue
            assert sample.match(line), f"not exposition-shaped: {line!r}"
            match = re.match(rf'^({name})_bucket\{{.*le="([^"]+)".*\}} ([0-9.e+\-]+|\+?Inf)?$', line)
            if match:
                buckets.setdefault(match.group(1), []).append(
                    float(line.rsplit(" ", 1)[1])
                )
        assert buckets, "no histogram buckets in /metrics"
        for series, counts in buckets.items():
            assert counts == sorted(counts), f"{series} buckets not cumulative"

    def test_validation_error_is_400(self, server):
        status, body, _ = self._post(server, "/v1/whatif", {"model": "13B"})
        assert status == 400
        assert "batch_size" in body["detail"]

    def test_unknown_path_is_404(self, server):
        status, _, _ = self._post(server, "/v1/nope", {})
        assert status == 404

    def test_shed_carries_retry_after_header(self, tmp_path):
        service = PlannerService(
            config_for(tmp_path, rate=0.001, burst=1.0), backend=ok_backend
        )
        server = make_server(service, port=0)
        start_in_thread(server)
        try:
            assert self._post(
                server, "/v1/whatif", {"model": "6B", "batch_size": 4}
            )[0] == 200
            status, body, headers = self._post(
                server, "/v1/whatif", {"model": "6B", "batch_size": 4}
            )
            assert status == 429
            assert int(headers["Retry-After"]) >= 1
            assert body["detail"] == "rate limit exceeded"
        finally:
            server.shutdown()
            server.shutdown_service()


class TestConcurrentService:
    def test_racing_requests_compute_the_key_once(self, tmp_path):
        entered = threading.Event()

        def counted(query, cancel):
            entered.set()
            return ok_backend(query, cancel)

        service = PlannerService(
            config_for(tmp_path, rate=1000.0, burst=100.0, workers=4, max_queue=32),
            backend=counted,
        )
        results = []
        lock = threading.Lock()
        barrier = threading.Barrier(8)

        def fire():
            barrier.wait()
            response = service.handle({"model": "6B", "batch_size": 4})
            with lock:
                results.append(response)

        threads = [threading.Thread(target=fire) for _ in range(8)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        assert all(r.status == 200 for r in results)
        assert all(r.rung == "exact" for r in results)
        assert service.cache.stats.stores == 1, "same key simulated more than once"
        service.close()
