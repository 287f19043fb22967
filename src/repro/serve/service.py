"""The planner service core: admission → journal → ladder → answer.

:class:`PlannerService` is transport-agnostic (the HTTP layer in
:mod:`repro.serve.http` is a thin adapter over :meth:`handle`) and every
collaborator is injectable — backend, clock, sleeper, RNG — so the
chaos harness and the property tests drive it deterministically.

One request flows:

1. **Admission** (:mod:`.admission`): shed *before* any durable write —
   a rejected request costs a counter bump and an honest 429/503.
2. **Journal** (:mod:`.journal`): the accepted request is fsync'd to
   the WAL before work starts; a terminal record follows the answer.
3. **Answer**, down the ladder (:mod:`.ladder`):

   * *exact* — run-ledger hit by content key, then a hit in the
     runner's :class:`~repro.runner.ResultCache` (a directory that
     ``repro sweep --cache-dir`` filled answers too), then a fresh
     single-flight simulation on the bounded worker pool, under the
     request deadline with cooperative cancellation and jittered
     retries (:mod:`repro.util.backoff`), behind the circuit breaker
     (:mod:`.breaker`);
   * *neighbor* — nearest previously answered point (same
     policy/model/server, closest batch), tagged stale;
   * *analytic* — Eqs. 1-8 closed form, no simulation;
   * *unavailable* — explicit 503 + Retry-After.

4. **Ledger**: every answer (and every shed/breaker transition) lands
   in the decision ledger as a ``kind="serve"`` entry, the same
   audit-trail contract the fleet and adapt subsystems follow.
"""

from __future__ import annotations

import logging
import random
import threading
import time
import uuid
from concurrent.futures import ThreadPoolExecutor, TimeoutError as FutureTimeout
from dataclasses import dataclass, field, replace
from typing import Any, Callable

from repro.core import EvalOutcome, RatelPolicy
from repro.core.hwprofile import ProfilingError
from repro.core.iteration_model import IterationTimeModel
from repro.hardware import GiB, RTX_3090, RTX_4080, RTX_4090, evaluation_server
from repro.models import profile_model
from repro.models.config import llm
from repro.obs import tracectx
from repro.obs.ledger import LedgerEntry, RunLedger, hardware_payload
from repro.obs.metrics import MetricsRegistry
from repro.runner import ResultCache, SweepPoint, decode_value, encode_value
from repro.runner.sweep import compute_point
from repro.util.backoff import BackoffPolicy, retry_call

from .admission import AdmissionController
from .breaker import STATES as BREAKER_STATES, BreakerTransition, CircuitBreaker
from .journal import RequestJournal
from .ladder import DegradationLadder, rung_index, rung_name

logger = logging.getLogger("repro.serve")

_GPUS = {"4090": RTX_4090, "3090": RTX_3090, "4080": RTX_4080}

#: Policies the service can answer for (analytic rung needs Ratel's planner).
_POLICIES = {
    "ratel": RatelPolicy,
    "ratel-naive": lambda: RatelPolicy("naive"),
    "ratel-zero": lambda: RatelPolicy("zero"),
}


class ServeError(ValueError):
    """Raised for malformed queries or service configuration."""


class _DeadlineExceeded(Exception):
    """Internal: a request deadline expired (never retried as transient)."""


@dataclass(frozen=True)
class WhatIfQuery:
    """One capacity question: a (policy, model, batch, server) point."""

    model: str
    batch_size: int
    policy: str = "ratel"
    gpu: str = "4090"
    memory_gb: int = 768
    n_ssds: int = 12
    deadline_s: float | None = None

    def __post_init__(self) -> None:
        if self.model not in _llm_names():
            raise ServeError(
                f"unknown model {self.model!r}; choose from {_llm_names()}"
            )
        if self.batch_size < 1:
            raise ServeError(f"batch_size must be positive, got {self.batch_size}")
        if self.policy not in _POLICIES:
            raise ServeError(
                f"unknown policy {self.policy!r}; choose from {sorted(_POLICIES)}"
            )
        if self.gpu not in _GPUS:
            raise ServeError(f"unknown gpu {self.gpu!r}; choose from {sorted(_GPUS)}")
        if self.memory_gb < 1:
            raise ServeError(f"memory_gb must be positive, got {self.memory_gb}")
        if self.n_ssds < 0:
            raise ServeError(f"n_ssds cannot be negative, got {self.n_ssds}")
        if self.deadline_s is not None and self.deadline_s <= 0:
            raise ServeError(f"deadline_s must be positive, got {self.deadline_s}")

    @classmethod
    def from_payload(cls, payload: dict[str, Any]) -> "WhatIfQuery":
        if not isinstance(payload, dict) or "model" not in payload:
            raise ServeError(f"not a what-if query: {payload!r}")
        known = set(cls.__dataclass_fields__)
        unknown = set(payload) - known
        if unknown:
            raise ServeError(f"unknown query fields: {sorted(unknown)}")
        try:
            return cls(**payload)
        except TypeError as exc:
            raise ServeError(f"malformed query: {exc}") from None

    def to_payload(self) -> dict[str, Any]:
        payload = {
            "model": self.model,
            "batch_size": self.batch_size,
            "policy": self.policy,
            "gpu": self.gpu,
            "memory_gb": self.memory_gb,
            "n_ssds": self.n_ssds,
        }
        if self.deadline_s is not None:
            payload["deadline_s"] = self.deadline_s
        return payload

    # -- resolution ------------------------------------------------------------

    def server(self):
        return evaluation_server(
            gpu=_GPUS[self.gpu],
            main_memory_bytes=self.memory_gb * GiB,
            n_ssds=self.n_ssds,
        )

    def point(self) -> SweepPoint:
        return SweepPoint.evaluate(
            _POLICIES[self.policy](), llm(self.model), self.batch_size, self.server()
        )

    def key(self) -> str:
        """The runner's content key — shared with cache and ledger."""
        return self.point().key()

    def label(self) -> str:
        return self.point().label()

    @property
    def group(self) -> tuple[str, str, str]:
        """Neighbor-lookup identity: answers comparable across batch sizes."""
        return (_POLICIES[self.policy]().name, self.model, self.server().name)


def _llm_names() -> tuple[str, ...]:
    from repro.models.config import LLM_PRESETS

    return tuple(sorted(LLM_PRESETS))


@dataclass(frozen=True)
class Deadline:
    """A per-request time budget on an injectable clock."""

    budget_s: float
    started: float
    clock: Callable[[], float] = time.monotonic

    @classmethod
    def start(
        cls, budget_s: float, clock: Callable[[], float] = time.monotonic
    ) -> "Deadline":
        return cls(budget_s=budget_s, started=clock(), clock=clock)

    def remaining(self) -> float:
        return max(0.0, self.budget_s - (self.clock() - self.started))

    def expired(self) -> bool:
        return self.remaining() <= 0.0


@dataclass(frozen=True)
class ServeResponse:
    """One answered (or shed) request, transport-agnostic."""

    status: int
    rung: str
    source: str
    request_id: str
    key: str = ""
    feasible: bool | None = None
    metrics: dict[str, Any] = field(default_factory=dict)
    staleness: dict[str, Any] | None = None
    detail: str = ""
    retry_after_s: float = 0.0
    elapsed_s: float = 0.0
    trace_id: str = ""

    def to_payload(self) -> dict[str, Any]:
        payload: dict[str, Any] = {
            "status": self.status,
            "rung": self.rung,
            "source": self.source,
            "request_id": self.request_id,
        }
        if self.trace_id:
            payload["trace_id"] = self.trace_id
        if self.key:
            payload["key"] = self.key
        if self.feasible is not None:
            payload["feasible"] = self.feasible
        if self.metrics:
            payload["metrics"] = self.metrics
        if self.staleness is not None:
            payload["staleness"] = self.staleness
        if self.detail:
            payload["detail"] = self.detail
        if self.retry_after_s:
            payload["retry_after_s"] = round(self.retry_after_s, 3)
        payload["elapsed_s"] = round(self.elapsed_s, 6)
        return payload


@dataclass(frozen=True)
class ServiceConfig:
    """Every knob of the hardened service, in one immutable bundle."""

    rate: float = 50.0
    burst: float = 16.0
    workers: int = 2
    max_queue: int = 8
    deadline_s: float = 5.0
    breaker_threshold: int = 3
    breaker_cooldown_s: float = 1.0
    retry_attempts: int = 2
    retry_base_s: float = 0.01
    cache_dir: str = ".serve-cache"
    journal_path: str = ".serve-cache/journal.jsonl"
    ledger_path: str | None = None
    seed: int = 0

    def __post_init__(self) -> None:
        if self.workers < 1:
            raise ServeError(f"workers must be at least 1, got {self.workers}")
        if self.deadline_s <= 0:
            raise ServeError(f"deadline_s must be positive, got {self.deadline_s}")
        if self.retry_attempts < 1:
            raise ServeError(
                f"retry_attempts must be at least 1, got {self.retry_attempts}"
            )


#: A backend computes the exact answer for a query.  It receives the
#: cancellation event (set when the request's deadline expires — check
#: it between phases) and must return an ``EvalOutcome`` payload
#: (:meth:`~repro.core.evaluation.EvalOutcome.to_payload`).  The service
#: rebuilds the outcome before storing it, so a partial payload fails
#: the exact rung instead of reaching the shared store.
Backend = Callable[[WhatIfQuery, threading.Event], dict[str, Any]]


def simulate_backend(query: WhatIfQuery, cancel: threading.Event) -> dict[str, Any]:
    """The real backend: plan + simulate via the runner's compute path.

    Cooperative cancellation is coarse here — the discrete-event sim is
    one call — so the check runs between resolution and simulation and
    again before returning (an abandoned result is discarded, not
    cached, keeping answers consistent with what clients saw).
    """
    point = query.point()
    if cancel.is_set():
        raise TimeoutError("cancelled before simulation started")
    outcome = compute_point(point)
    if cancel.is_set():
        raise TimeoutError("cancelled during simulation")
    return outcome.to_payload()


class _AnswerIndex:
    """In-memory view of answered points: exact by key, neighbors by group."""

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._exact: dict[str, dict[str, Any]] = {}
        self._groups: dict[tuple[str, str, str], dict[int, dict[str, Any]]] = {}

    def add(
        self,
        *,
        key: str,
        group: tuple[str, str, str],
        batch_size: int,
        feasible: bool,
        metrics: dict[str, Any],
        timestamp: str = "",
    ) -> dict[str, Any]:
        record = {
            "key": key,
            "batch_size": batch_size,
            "feasible": feasible,
            "metrics": metrics,
            "timestamp": timestamp,
        }
        with self._lock:
            self._exact[key] = record
            self._groups.setdefault(group, {})[batch_size] = record
        return record

    def exact(self, key: str) -> dict[str, Any] | None:
        with self._lock:
            return self._exact.get(key)

    def nearest(
        self, group: tuple[str, str, str], batch_size: int
    ) -> dict[str, Any] | None:
        with self._lock:
            candidates = self._groups.get(group)
            if not candidates:
                return None
            best_batch = min(
                candidates, key=lambda b: (abs(b - batch_size), b)
            )
            return candidates[best_batch]

    def __len__(self) -> int:
        with self._lock:
            return len(self._exact)


class PlannerService:
    """The hardened what-if answering machine (transport-agnostic)."""

    def __init__(
        self,
        config: ServiceConfig | None = None,
        *,
        backend: Backend | None = None,
        clock: Callable[[], float] = time.monotonic,
        sleep: Callable[[float], None] = time.sleep,
    ) -> None:
        self.config = config or ServiceConfig()
        self.backend: Backend = backend or simulate_backend
        self.clock = clock
        self._sleep = sleep
        self._rng = random.Random(self.config.seed)
        self.metrics = MetricsRegistry()
        self.admission = AdmissionController(
            rate=self.config.rate,
            burst=self.config.burst,
            max_queue=self.config.max_queue,
            queue_wait_hint_s=self.config.deadline_s,
            clock=clock,
        )
        self.breaker = CircuitBreaker(
            failure_threshold=self.config.breaker_threshold,
            cooldown_s=self.config.breaker_cooldown_s,
            clock=clock,
            on_transition=self._on_breaker_transition,
        )
        self.ladder = DegradationLadder()
        self.cache = ResultCache(disk_dir=self.config.cache_dir)
        self.journal = RequestJournal(self.config.journal_path)
        self.ledger = (
            RunLedger(self.config.ledger_path, fsync=True)
            if self.config.ledger_path
            else None
        )
        self.index = _AnswerIndex()
        self._retry = BackoffPolicy(
            base_s=self.config.retry_base_s,
            factor=2.0,
            max_attempts=self.config.retry_attempts,
            jitter="full",
        )
        self._pool = ThreadPoolExecutor(
            max_workers=self.config.workers, thread_name_prefix="serve-sim"
        )
        self._inflight_lock = threading.Lock()
        self._inflight = 0
        self.replayed = 0
        self._counters = {
            name: self.metrics.counter(f"requests_{name}_total")
            for name in ("accepted", "shed", "answered", "failed", "replayed")
        }
        self._rung_counter = self.metrics.counter("answers_by_rung_total")
        self._latency = self.metrics.histogram(
            "request_latency_seconds",
            buckets=(0.001, 0.005, 0.02, 0.1, 0.5, 1.0, 5.0),
        )
        self._seed_index_from_ledger()

    # -- lifecycle -------------------------------------------------------------

    def close(self) -> None:
        self._pool.shutdown(wait=False, cancel_futures=True)

    def __enter__(self) -> "PlannerService":
        return self

    def __exit__(self, *exc_info: Any) -> None:
        self.close()

    # -- crash recovery --------------------------------------------------------

    def recover(self) -> int:
        """Replay journal orphans (accepted, never terminated) exactly once.

        Each orphan is re-answered through the normal ladder — but the
        cache/index is consulted first, so an answer that already landed
        before the crash is only *marked* done, never recomputed.
        Returns the number of orphans replayed.
        """
        # A crash mid-append leaves a torn half-record; truncate it first
        # or the next append would corrupt itself by gluing onto it.
        self.journal.repair()
        accounting = self.journal.fold()
        for record in accounting.orphans:
            query_payload = record.get("query")
            request_id = record.get("request_id", "")
            try:
                query = WhatIfQuery.from_payload(query_payload)
            except ServeError as exc:
                self.journal.failed(
                    request_id, key=record.get("key", ""), reason=f"unreplayable: {exc}"
                )
                continue
            response = self._answer(query, request_id=request_id, replay=True)
            self.replayed += 1
            self._counters["replayed"].inc()
            logger.info(
                "replayed orphaned request %s -> %s/%s",
                request_id,
                response.rung,
                response.source,
            )
        return self.replayed

    # -- the request path ------------------------------------------------------

    def handle(self, payload: dict[str, Any]) -> ServeResponse:
        """Answer one raw request payload end to end.

        Runs under a causal trace: the caller's ambient
        :class:`~repro.obs.tracectx.TraceContext` when one is active (the
        HTTP layer activates the parsed ``traceparent``), a fresh root
        trace otherwise (direct callers like the chaos drill still get
        a retrievable trace_id).  Every ledger entry recorded along the
        way is stamped with it, and the response carries it back.
        """
        ctx = tracectx.current()
        if ctx is None:
            ctx = tracectx.new_trace()
        with tracectx.activate(ctx):
            response = self._handle(payload)
        if not response.trace_id:
            response = replace(response, trace_id=ctx.trace_id)
        return response

    def _handle(self, payload: dict[str, Any]) -> ServeResponse:
        started = self.clock()
        request_id = uuid.uuid4().hex[:12]
        try:
            query = WhatIfQuery.from_payload(payload)
        except ServeError as exc:
            return ServeResponse(
                status=400,
                rung="unavailable",
                source="validation",
                request_id=request_id,
                detail=str(exc),
                elapsed_s=self.clock() - started,
            )
        decision = self.admission.admit(self._current_inflight())
        if not decision.admitted:
            self._counters["shed"].inc()
            self._record_decision(
                query,
                request_id=request_id,
                status=decision.status,
                rung="unavailable",
                source="admission",
                detail=decision.reason,
            )
            return ServeResponse(
                status=decision.status,
                rung="unavailable",
                source="admission",
                request_id=request_id,
                detail=decision.reason,
                retry_after_s=decision.retry_after_s,
                elapsed_s=self.clock() - started,
            )
        self._counters["accepted"].inc()
        self.journal.accepted(request_id, query.to_payload(), query.key())
        with self._inflight_lock:
            self._inflight += 1
        try:
            response = self._answer(query, request_id=request_id, started=started)
        finally:
            with self._inflight_lock:
                self._inflight -= 1
        return response

    def _current_inflight(self) -> int:
        with self._inflight_lock:
            return self._inflight

    # -- answering -------------------------------------------------------------

    def _answer(
        self,
        query: WhatIfQuery,
        *,
        request_id: str,
        started: float | None = None,
        replay: bool = False,
    ) -> ServeResponse:
        started = self.clock() if started is None else started
        key = query.key()
        deadline = Deadline.start(
            query.deadline_s or self.config.deadline_s, self.clock
        )
        self._maybe_end_episode()
        response: ServeResponse | None = None
        detail = ""
        # A half-open breaker overrides the degraded floor: the probe
        # that runs through the exact path is how the episode ends.
        if (
            self.ladder.floor <= rung_index("exact")
            or self.breaker.state == "half_open"
        ):
            response, detail = self._try_exact(query, key, deadline, request_id)
        if response is None and self.ladder.floor <= rung_index("neighbor"):
            response = self._try_neighbor(query, key, request_id, detail)
        if response is None:
            response = self._try_analytic(query, key, request_id, detail)
        if response is None:
            response = ServeResponse(
                status=503,
                rung="unavailable",
                source="ladder",
                request_id=request_id,
                key=key,
                detail=detail or "no rung could answer",
                retry_after_s=max(
                    self.breaker.cooldown_remaining(), self.config.retry_base_s
                ),
            )
        # One history record per answer: (episode, served rung, floor).
        self.ladder.resolve(rung_index(response.rung))
        response = replace(response, elapsed_s=self.clock() - started)
        self._latency.observe(response.elapsed_s)
        self._rung_counter.inc(rung=response.rung)
        if response.status == 200:
            self._counters["answered"].inc()
            self.journal.done(
                request_id, key=key, rung=response.rung, source=response.source
            )
        else:
            self._counters["failed"].inc()
            self.journal.failed(
                request_id, key=key, reason=response.detail or response.rung
            )
        self._record_decision(
            query,
            request_id=request_id,
            status=response.status,
            rung=response.rung,
            source=response.source,
            detail=response.detail,
            feasible=response.feasible,
            answer_metrics=response.metrics,
            replayed=replay,
        )
        return response

    def _try_exact(
        self,
        query: WhatIfQuery,
        key: str,
        deadline: Deadline,
        request_id: str,
    ) -> tuple[ServeResponse | None, str]:
        """Ledger → cache → simulate; None + reason when the rung fails."""
        indexed = self.index.exact(key)
        if indexed is not None:
            return self._exact_response(key, request_id, indexed, "ledger"), ""
        hit = self.cache.get(key)
        if hit is not None:
            answer = self._remember(query, key, decode_value(hit[1]))
            return self._exact_response(key, request_id, answer, "cache"), ""
        if deadline.expired():
            return None, "deadline exhausted before simulation"
        if not self.breaker.allow():
            self.ladder.escalate(rung_index("neighbor"))
            return None, "circuit breaker open"
        try:
            outcome = self._simulate(query, deadline)
        except TimeoutError as exc:
            self.breaker.record_failure(str(exc))
            self._escalate_if_breaker_open()
            return None, f"simulation timed out: {exc}"
        except Exception as exc:  # noqa: BLE001 - backend containment boundary
            self.breaker.record_failure(str(exc))
            self._escalate_if_breaker_open()
            return None, f"simulation failed: {type(exc).__name__}: {exc}"
        self.breaker.record_success()
        # A successful probe closed the breaker: the overload episode is
        # over, and this very answer already belongs to the new episode.
        if self.ladder.degraded and self.breaker.state == "closed":
            if self.ladder.reset():
                logger.info("breaker closed; overload episode ended")
        answer = self._remember(query, key, outcome)
        return self._exact_response(key, request_id, answer, "sim"), ""

    def _simulate(self, query: WhatIfQuery, deadline: Deadline) -> EvalOutcome:
        """One simulation on the pool: single-flight, deadline, retries.

        The answer is stored through the runner's
        :func:`~repro.runner.encode_value`, so a sweep over the same
        directory reads it too.  Deadline expiry raises a private
        exception class so the shared retry helper never mistakes it
        for a transient backend error (``TimeoutError`` *is* an
        ``OSError``, which we do retry).
        """

        def compute() -> dict[str, Any]:
            cancel = threading.Event()
            # contextvars do not follow an executor submission: capture
            # the request's trace here (compute() runs on the requesting
            # thread, single-flight) and re-activate a child span inside
            # the worker thread, so backend-side ledger/metrics work is
            # attributed to the originating request.
            ctx = tracectx.current()

            def traced_backend(q: WhatIfQuery, c: threading.Event) -> dict[str, Any]:
                if ctx is None:
                    return self.backend(q, c)
                with tracectx.activate(ctx.child()):
                    return self.backend(q, c)

            def run_once() -> dict[str, Any]:
                if deadline.expired():
                    raise _DeadlineExceeded("deadline exhausted")
                future = self._pool.submit(traced_backend, query, cancel)
                try:
                    return future.result(timeout=deadline.remaining())
                except FutureTimeout:
                    cancel.set()  # cooperative: the worker sees it between phases
                    future.cancel()
                    raise _DeadlineExceeded(
                        f"no result within {deadline.budget_s:.3f}s"
                    ) from None

            payload = retry_call(
                run_once,
                policy=self._retry,
                what=f"simulate {query.label()}",
                retry_on=(RuntimeError, OSError),
                sleep=self._sleep,
                rng=self._rng,
            )
            return encode_value(EvalOutcome.from_payload(payload))

        try:
            entry = self.cache.get_or_compute(
                query.key(), compute, wait_timeout_s=max(deadline.remaining(), 0.001)
            )
        except _DeadlineExceeded as exc:
            raise TimeoutError(str(exc)) from None
        return decode_value(entry)

    def _try_neighbor(
        self,
        query: WhatIfQuery,
        key: str,
        request_id: str,
        detail: str,
    ) -> ServeResponse | None:
        nearest = self.index.nearest(query.group, query.batch_size)
        if nearest is None:
            return None
        self.ladder.escalate(rung_index("neighbor"))
        staleness = {
            "neighbor_batch_size": nearest["batch_size"],
            "batch_distance": abs(nearest["batch_size"] - query.batch_size),
            "answered_at": nearest.get("timestamp", ""),
        }
        return ServeResponse(
            status=200,
            rung="neighbor",
            source="index",
            request_id=request_id,
            key=key,
            feasible=bool(nearest["feasible"]),
            metrics=dict(nearest["metrics"]),
            staleness=staleness,
            detail=detail,
        )

    def _try_analytic(
        self,
        query: WhatIfQuery,
        key: str,
        request_id: str,
        detail: str,
    ) -> ServeResponse | None:
        self.ladder.escalate(rung_index("analytic"))
        try:
            metrics = analytic_estimate(query)
        except (ProfilingError, ValueError) as exc:
            return ServeResponse(
                status=200,
                rung="analytic",
                source="model",
                request_id=request_id,
                key=key,
                feasible=False,
                detail=detail or str(exc),
            )
        except Exception as exc:  # noqa: BLE001 - estimate must never 500
            logger.warning("analytic rung failed for %s: %s", query.label(), exc)
            return None
        return ServeResponse(
            status=200,
            rung="analytic",
            source="model",
            request_id=request_id,
            key=key,
            feasible=True,
            metrics=metrics,
            detail=detail,
        )

    # -- plumbing --------------------------------------------------------------

    def _exact_response(
        self, key: str, request_id: str, answer: dict[str, Any], source: str
    ) -> ServeResponse:
        return ServeResponse(
            status=200,
            rung="exact",
            source=source,
            request_id=request_id,
            key=key,
            feasible=bool(answer["feasible"]),
            metrics=dict(answer["metrics"]),
        )

    def _remember(self, query: WhatIfQuery, key: str, outcome: EvalOutcome) -> dict[str, Any]:
        """Index an exact answer (for later exact and neighbor hits)."""
        return self.index.add(
            key=key,
            group=query.group,
            batch_size=query.batch_size,
            feasible=bool(outcome.feasible),
            metrics=dict(outcome.metrics),
        )

    def _escalate_if_breaker_open(self) -> None:
        """Raise the degraded floor once the breaker declares the backend sick.

        Individual failures degrade only their own request (the answer
        falls through to a lower rung); the service-wide floor moves
        when the breaker opens, so the backend keeps seeing the failures
        it needs to count.
        """
        if self.breaker.state == "open":
            self.ladder.escalate(rung_index("neighbor"))

    def _maybe_end_episode(self) -> None:
        """Relax the ladder when the stress that caused it has cleared."""
        if (
            self.ladder.degraded
            and self.breaker.state == "closed"
            and self._current_inflight() <= 1
        ):
            if self.ladder.reset():
                logger.info("overload episode ended; ladder reset to exact")

    def _on_breaker_transition(self, transition: BreakerTransition) -> None:
        self.metrics.counter("breaker_transitions_total").inc(
            to_state=transition.to_state
        )
        if self.ledger is not None:
            self.ledger.append(
                LedgerEntry(
                    label=f"serve:breaker:{transition.to_state}",
                    policy="-",
                    model="-",
                    batch_size=None,
                    server="-",
                    feasible=True,
                    kind="serve",
                    source="breaker",
                    metrics={
                        "from_state": transition.from_state,
                        "to_state": transition.to_state,
                        "reason": transition.reason,
                        "time": transition.time,
                    },
                )
            )

    def _record_decision(
        self,
        query: WhatIfQuery,
        *,
        request_id: str,
        status: int,
        rung: str,
        source: str,
        detail: str = "",
        feasible: bool | None = None,
        answer_metrics: dict[str, Any] | None = None,
        replayed: bool = False,
    ) -> None:
        if self.ledger is None:
            return
        metrics: dict[str, Any] = {
            "request_id": request_id,
            "status": status,
            "rung": rung,
            "source": source,
        }
        if detail:
            metrics["detail"] = detail
        if answer_metrics:
            for name in ("iteration_time", "tokens_per_s"):
                if name in answer_metrics:
                    metrics[name] = answer_metrics[name]
        if replayed:
            metrics["replayed"] = True
        self.ledger.append(
            LedgerEntry(
                label=f"serve:{query.label()}",
                policy=query.policy,
                model=query.model,
                batch_size=query.batch_size,
                server=query.server().name,
                feasible=bool(feasible) if feasible is not None else status == 200,
                kind="serve",
                config_key=query.key(),
                hardware=hardware_payload(query.server()),
                source=source,
                metrics=metrics,
            )
        )

    def _seed_index_from_ledger(self) -> None:
        """Warm the answer index from prior serve/evaluate ledger entries."""
        if self.ledger is None:
            return
        for entry in self.ledger:
            if entry.kind not in ("serve", "evaluate"):
                continue
            if not entry.config_key or entry.metrics.get("rung") not in (
                None,
                "exact",
            ):
                continue
            iteration_time = entry.metrics.get("iteration_time")
            if iteration_time is None:
                continue
            self.index.add(
                key=entry.config_key,
                group=(entry.policy, entry.model, entry.server),
                batch_size=entry.batch_size or 0,
                feasible=entry.feasible,
                metrics={
                    name: value
                    for name, value in entry.metrics.items()
                    if name in ("iteration_time", "tokens_per_s")
                },
                timestamp=entry.timestamp,
            )

    # -- introspection ---------------------------------------------------------

    def stats(self) -> dict[str, Any]:
        """A JSON-ready snapshot of the service's health and counters."""
        cache = self.cache.stats
        transitions = self.metrics.counter("breaker_transitions_total")
        return {
            "breaker": self.breaker.state,
            "breaker_transitions": int(
                sum(transitions.value(to_state=state) for state in BREAKER_STATES)
            ),
            "ladder_floor": rung_name(self.ladder.floor),
            "ladder_episode": self.ladder.episode,
            "inflight": self._current_inflight(),
            "indexed_answers": len(self.index),
            "cache": {
                "hits": cache.hits,
                "misses": cache.misses,
                # every store the service makes is a computed answer
                "computes": cache.stores,
                "corrupt": cache.corrupt,
            },
            "shed": {
                "rate": self.admission.shed_rate,
                "queue": self.admission.shed_depth,
            },
            "replayed": self.replayed,
        }


def analytic_estimate(query: WhatIfQuery) -> dict[str, Any]:
    """Rung-2 estimate: Eqs. 1-8 at the floor swap amount, no simulation.

    Matches the adapt ladder's cheap-plan idiom: profile the model, take
    ``A_G2M`` at the inter-block floor (always schedulable), and read
    the closed-form iteration time.  Raises
    :class:`~repro.core.hwprofile.InsufficientMemoryError` when the
    point cannot fit at all — the caller answers "analytically
    infeasible" rather than degrading further.
    """
    policy = _POLICIES[query.policy]()
    server = query.server()
    profile = profile_model(llm(query.model), query.batch_size)
    hardware = policy.hardware_profile(profile, server)
    model = IterationTimeModel(profile, hardware)
    estimate = model.estimate(profile.inter_block_bytes)
    total = estimate.total
    return {
        "iteration_time": total,
        "tokens_per_s": profile.tokens_per_iteration / total if total > 0 else 0.0,
        "estimator": "iteration-time-model@floor-swap",
    }
