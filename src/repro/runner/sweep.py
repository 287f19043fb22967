"""The sweep orchestrator: cached, fan-out evaluation of grids of points.

:class:`Sweep` is the single entry point the experiment harnesses, the
benchmarks and the CLI evaluate configurations through.  A sweep *point*
is a memoizable query against the planning/simulation stack:

* ``evaluate``       — feasibility + Algorithm-1 plan + one simulated
  iteration for (policy, model config, batch, server);
* ``max_trainable``  — the capacity planner's largest trainable size;
* ``max_batch``      — the largest feasible batch among candidates;
* ``max_global_batch`` / ``data_parallel`` — the multi-GPU analogues.

Every point has a deterministic content key
(:func:`repro.runner.keys.cache_key`); results are memoized in a
two-layer :class:`~repro.runner.cache.ResultCache` and grids fan out
across a ``concurrent.futures`` pool with ordered result collection and
a progress hook.  Process workers return the JSON payload (the full
event trace stays in the worker); serial execution keeps live
:class:`~repro.core.engine.IterationResult` objects in the memory layer.

Long sweeps survive bad points: with ``retries``/``timeout`` set and
``on_error="quarantine"``, a point that raises, hangs past its deadline
or takes its worker process down is retried with exponential backoff and
finally *quarantined* — its slot in the results carries a structured
:class:`PointFailure` instead of aborting the other points.  Failures
are never cached, so a fixed environment gets a clean retry on the next
run.  The default (``on_error="raise"``) keeps the historical fail-fast
behaviour.
"""

from __future__ import annotations

import contextlib
import dataclasses
import logging
import threading
import time
from concurrent.futures import (
    FIRST_COMPLETED,
    BrokenExecutor,
    Future,
    ProcessPoolExecutor,
    wait,
)
from dataclasses import dataclass
from typing import Any, Callable, Iterable

from repro.core.capacity import max_batch_size, max_trainable_params
from repro.core.evaluation import EvalOutcome
from repro.core.memory_model import InfeasibleError
from repro.core.multi_gpu import max_global_batch, run_data_parallel
from repro.core.policy import OffloadPolicy
from repro.hardware.spec import ServerSpec
from repro.models.profile import profile_model
from repro.obs import tracectx
from repro.obs.ledger import RunLedger
from repro.obs.metrics import MetricsRegistry, RegistrySnapshot
from repro.util.backoff import BackoffPolicy, retry_call

from .cache import DISK, ResultCache, decode_value, encode_value
from .keys import cache_key, memo_token, same_value

logger = logging.getLogger("repro.runner")

#: Executor modes accepted by :class:`Sweep`.
EXECUTORS = ("serial", "process")

#: Point kinds :func:`compute_point` answers (``evaluate`` first: the
#: fleet builds hundreds of those per drill).
KINDS = ("evaluate", "max_trainable", "max_batch", "max_global_batch", "data_parallel", "adaptive")

#: Seconds before the first retry of a failing point; each further retry
#: waits twice as long.
RETRY_BACKOFF_S = 0.05

#: Most content keys :meth:`SweepPoint.key` remembers; a full memo is
#: emptied before the next key goes in.
KEY_MEMO_SIZE = 4096

#: Exact point value -> (that value, its content key).  The stored value
#: is what :func:`same_value` checks a hit against: ``==`` on the index
#: alone would merge ``128`` with ``128.0``.
_KEY_MEMO: dict[tuple, tuple[tuple, str]] = {}
#: Serialises the size check and the insert; lookups need no lock.
_KEY_MEMO_LOCK = threading.Lock()


class SweepError(ValueError):
    """Raised for malformed sweep points or executor configuration."""


#: Error-handling modes accepted by :class:`Sweep`.
ON_ERROR_MODES = ("raise", "quarantine")


@dataclass(frozen=True)
class PointFailure:
    """A quarantined sweep point: what failed, how, after how many tries.

    Occupies the failed point's slot in :meth:`Sweep.run` results (and is
    the return value of :meth:`Sweep.run_point`) when the sweep runs with
    ``on_error="quarantine"``.  Failures are never written to the cache.
    """

    kind: str
    label: str
    error_type: str
    message: str
    attempts: int
    timed_out: bool = False

    #: Mirrors :attr:`EvalOutcome.feasible` so result-table code that
    #: checks ``outcome.feasible`` treats failures as non-results.
    @property
    def feasible(self) -> bool:
        return False

    def __str__(self) -> str:
        cause = "timed out" if self.timed_out else self.error_type
        return f"[quarantined after {self.attempts} attempt(s): {cause}] {self.message}"


def is_failure(value: Any) -> bool:
    """True when a sweep result slot holds a quarantined failure."""
    return isinstance(value, PointFailure)


@dataclass(frozen=True)
class SweepPoint:
    """One memoizable query against the planning/simulation stack."""

    kind: str
    policy: OffloadPolicy
    server: ServerSpec
    config: Any = None
    batch_size: int | None = None
    simulate_infeasible: bool = False
    cap: int | None = None

    def __post_init__(self) -> None:
        if self.kind not in KINDS:
            raise SweepError(f"unknown sweep point kind {self.kind!r}; choose from {KINDS}")

    # -- constructors ----------------------------------------------------------

    @classmethod
    def evaluate(
        cls,
        policy: OffloadPolicy,
        config: Any,
        batch_size: int,
        server: ServerSpec,
        *,
        simulate_infeasible: bool = False,
    ) -> "SweepPoint":
        """Plan + simulate one (policy, model, batch, server) point."""
        return cls(
            kind="evaluate",
            policy=policy,
            config=config,
            batch_size=batch_size,
            server=server,
            simulate_infeasible=simulate_infeasible,
        )

    @classmethod
    def max_trainable(
        cls, policy: OffloadPolicy, server: ServerSpec, *, batch_size: int = 1
    ) -> "SweepPoint":
        """Largest trainable parameter count on this server."""
        return cls(kind="max_trainable", policy=policy, server=server, batch_size=batch_size)

    @classmethod
    def max_batch(
        cls, policy: OffloadPolicy, config: Any, server: ServerSpec, *, cap: int | None = None
    ) -> "SweepPoint":
        """Largest feasible batch size (optionally capped)."""
        return cls(kind="max_batch", policy=policy, config=config, server=server, cap=cap)

    @classmethod
    def max_global_batch(
        cls, policy: OffloadPolicy, config: Any, server: ServerSpec
    ) -> "SweepPoint":
        """Largest feasible data-parallel global batch."""
        return cls(kind="max_global_batch", policy=policy, config=config, server=server)

    @classmethod
    def data_parallel(
        cls, policy: OffloadPolicy, config: Any, global_batch: int, server: ServerSpec
    ) -> "SweepPoint":
        """One simulated data-parallel iteration at a global batch."""
        return cls(
            kind="data_parallel",
            policy=policy,
            config=config,
            batch_size=global_batch,
            server=server,
        )

    @classmethod
    def adaptive(
        cls, policy: OffloadPolicy, config: Any, batch_size: int, server: ServerSpec
    ) -> "SweepPoint":
        """The standard fault drill under the adaptive controller.

        Computes :func:`repro.adapt.drill_outcome`: all three recovery
        postures (stale / replan-once / adaptive) through the PR-2 drill
        on this server, folded into one :class:`EvalOutcome`.
        """
        return cls(
            kind="adaptive",
            policy=policy,
            config=config,
            batch_size=batch_size,
            server=server,
        )

    # -- identity --------------------------------------------------------------

    def key(self) -> str:
        """Deterministic content key for this point, computed once per value.

        The memo is indexed by :func:`~repro.runner.keys.memo_token`, so
        a policy changed after keying gets its new key, and a remembered
        key is returned only when :func:`~repro.runner.keys.same_value`
        matches the stored token type for type (see :mod:`.keys`).
        """
        try:
            token = memo_token(
                self.kind,
                self.policy,
                self.server,
                self.config,
                self.batch_size,
                self.simulate_infeasible,
                self.cap,
            )
            remembered = _KEY_MEMO.get(token)
        except TypeError:  # a policy describe cannot key, or an unhashable part
            return self._cache_key()
        if remembered is not None and same_value(remembered[0], token):
            return remembered[1]
        key = self._cache_key()
        with _KEY_MEMO_LOCK:
            if len(_KEY_MEMO) >= KEY_MEMO_SIZE:
                _KEY_MEMO.clear()
            _KEY_MEMO[token] = (token, key)
        return key

    def _cache_key(self) -> str:
        return cache_key(
            self.kind,
            policy=self.policy,
            server=self.server,
            config=self.config,
            batch_size=self.batch_size,
            simulate_infeasible=self.simulate_infeasible,
            cap=self.cap,
        )

    def label(self) -> str:
        """Short human-readable identity for progress lines."""
        model = getattr(self.config, "name", "-")
        batch = self.batch_size if self.batch_size is not None else "-"
        return f"{self.kind}:{self.policy.name}/{model}/b{batch}@{self.server.name}"


@dataclass(frozen=True)
class ProgressEvent:
    """One completed point, reported through the progress hook."""

    index: int
    total: int
    label: str
    cached: bool
    elapsed_s: float
    value: Any


ProgressHook = Callable[[ProgressEvent], None]


def compute_point(point: SweepPoint) -> Any:
    """Compute one point from scratch (no caching) and return its value."""
    if point.kind == "evaluate":
        profile = profile_model(point.config, point.batch_size)
        return point.policy.evaluate(
            profile, point.server, simulate_infeasible=point.simulate_infeasible
        )
    if point.kind == "max_trainable":
        return max_trainable_params(
            point.policy, point.server, batch_size=point.batch_size or 1
        )
    if point.kind == "max_batch":
        return max_batch_size(point.policy, point.config, point.server, cap=point.cap)
    if point.kind == "max_global_batch":
        return max_global_batch(point.policy, point.config, point.server)
    if point.kind == "data_parallel":
        return _compute_data_parallel(point)
    # "adaptive", the last of KINDS.  Imported lazily: repro.adapt pulls
    # in the whole planning stack, which evaluate-only sweeps should not
    # pay for.
    from repro.adapt import drill_outcome

    return drill_outcome(
        model_name=point.config.name,
        batch_size=point.batch_size,
        server=point.server,
    )


def _compute_data_parallel(point: SweepPoint) -> EvalOutcome:
    """Data-parallel evaluation as an :class:`EvalOutcome` (no exceptions)."""
    try:
        run = run_data_parallel(point.policy, point.config, point.batch_size, point.server)
    except InfeasibleError as exc:
        return EvalOutcome(
            policy=point.policy.name,
            model=point.config.name,
            batch_size=point.batch_size,
            server=point.server.name,
            feasible=False,
            reason=str(exc),
        )
    return EvalOutcome(
        policy=point.policy.name,
        model=point.config.name,
        batch_size=point.batch_size,
        server=point.server.name,
        feasible=True,
        metrics={
            "iteration_time": run.iteration_time,
            "tokens_per_s": run.tokens_per_s,
            "n_gpus": run.n_gpus,
        },
        result=run,
    )


def _pool_compute(
    point: SweepPoint, trace_payload: dict[str, Any] | None = None
) -> dict[str, Any]:
    """Process-pool worker: compute, meter, and return the envelope.

    Each worker meters its own work into a private registry and ships
    the snapshot alongside the payload; the parent folds every worker
    snapshot into the sweep's registry, so counters stay correct across
    any number of processes.

    ``trace_payload`` is the submitting side's serialized
    :class:`~repro.obs.tracectx.TraceContext` (contextvars do not cross
    process boundaries, so the trace rides in the task payload).  The
    worker runs under a *child* span of it and ships the child back in
    ``worker_trace``, so the parent can attribute the worker's metrics —
    and tests can assert the parent/child edge — under one trace_id.
    """
    ctx = None
    if trace_payload is not None:
        try:
            ctx = tracectx.TraceContext.from_payload(trace_payload).child()
        except tracectx.TraceError:
            ctx = None  # a torn payload must not fail the point
    with tracectx.activate(ctx) if ctx is not None else contextlib.nullcontext():
        registry = MetricsRegistry()
        started = time.perf_counter()
        envelope = encode_value(compute_point(point))
        registry.counter("worker_points_total").inc(kind=point.kind)
        registry.histogram("worker_compute_seconds").observe(
            time.perf_counter() - started, kind=point.kind
        )
        envelope["worker_metrics"] = registry.snapshot().to_payload()
        if ctx is not None:
            envelope["worker_trace"] = ctx.to_payload()
    return envelope


@dataclass
class Sweep:
    """Cached, optionally parallel evaluation over grids of sweep points.

    ``executor`` picks the fan-out mode of :meth:`run`: ``"serial"``
    (in-process, keeps live traces) or ``"process"`` (a
    ``ProcessPoolExecutor`` of ``max_workers``; workers return metric
    payloads).  ``cache_dir`` turns on the on-disk JSON store
    (conventionally ``.repro_cache/``).  ``progress`` receives a
    :class:`ProgressEvent` per completed point.

    Robustness knobs:

    * ``retries`` — how many times a failing point is recomputed (with
      exponential backoff starting at :data:`RETRY_BACKOFF_S`) before its
      failure is final.  A crashed worker process counts as a failed
      attempt for every point that was in flight on the broken pool.
    * ``timeout`` — per-point wall-clock budget in seconds.  Enforced in
      the process pool (a worker cannot be preempted from within, so
      serial mode ignores it); a point past its deadline is abandoned
      without retry — retrying a hang only spends the budget again.
    * ``on_error`` — ``"raise"`` (default) propagates the final failure
      and aborts the sweep; ``"quarantine"`` converts it into a
      :class:`PointFailure` in the point's result slot and keeps going.

    Every sweep owns a :class:`~repro.obs.metrics.MetricsRegistry`
    (``registry``, injectable): progress events, cache hits/misses,
    retries, timeouts, quarantined failures and pool rebuilds are all
    counted, and process-pool workers ship their own metered snapshots
    back for merging — ``metrics()`` returns the combined view.

    ``ledger`` (a :class:`~repro.obs.ledger.RunLedger` or a path string)
    turns on the longitudinal run ledger: every *computed*
    ``evaluate``/``data_parallel``/``adaptive`` outcome is appended as
    one JSONL entry (content key, git SHA, hardware, metrics +
    attribution) — cache hits are not re-recorded, so the ledger is a
    log of evaluations that actually executed.  A ledger write failure
    is logged, never fatal to the sweep.
    """

    executor: str = "serial"
    max_workers: int | None = None
    cache_dir: str | None = None
    progress: ProgressHook | None = None
    retries: int = 0
    timeout: float | None = None
    on_error: str = "raise"
    registry: MetricsRegistry = None  # type: ignore[assignment]
    ledger: RunLedger | str | None = None

    def __post_init__(self) -> None:
        if self.executor not in EXECUTORS:
            raise SweepError(f"unknown executor {self.executor!r}; choose from {EXECUTORS}")
        if self.on_error not in ON_ERROR_MODES:
            raise SweepError(
                f"unknown on_error mode {self.on_error!r}; choose from {ON_ERROR_MODES}"
            )
        if self.retries < 0:
            raise SweepError(f"retries cannot be negative, got {self.retries}")
        if self.timeout is not None and self.timeout <= 0:
            raise SweepError(f"timeout must be positive, got {self.timeout}")
        # The shared backoff schedule both retry paths (in-process and
        # pool resubmission) sleep on.  Jitter-free: sweep retries are
        # single-tenant, and the tests pin deterministic behaviour.
        self._backoff = BackoffPolicy(
            base_s=RETRY_BACKOFF_S,
            factor=2.0,
            max_attempts=self.retries + 1,
            jitter="none",
        )
        self.cache = ResultCache(disk_dir=self.cache_dir)
        if self.registry is None:
            self.registry = MetricsRegistry()
        if isinstance(self.ledger, str):
            self.ledger = RunLedger(self.ledger)

    @property
    def stats(self):
        """Hit/miss counters of the underlying cache."""
        return self.cache.stats

    def metrics(self) -> RegistrySnapshot:
        """Snapshot of this sweep's registry (worker snapshots merged in)."""
        return self.registry.snapshot()

    # -- single-point API ------------------------------------------------------

    def evaluate(
        self,
        policy: OffloadPolicy,
        config: Any,
        batch_size: int,
        server: ServerSpec,
        *,
        simulate_infeasible: bool = False,
        detail: bool = False,
    ) -> EvalOutcome:
        """Cached rich evaluation of one point.

        ``detail=True`` guarantees a live :class:`IterationResult` (with
        the event trace) on the returned outcome, recomputing if the hit
        came from the metrics-only disk layer.
        """
        point = SweepPoint.evaluate(
            policy, config, batch_size, server, simulate_infeasible=simulate_infeasible
        )
        outcome = self.run_point(point)
        if detail and isinstance(outcome, EvalOutcome) and outcome.result is None:
            if outcome.feasible or simulate_infeasible:
                outcome = compute_point(point)
                self.cache.put(point.key(), outcome, encode_value(outcome))
        return outcome

    def max_trainable(
        self, policy: OffloadPolicy, server: ServerSpec, *, batch_size: int = 1
    ) -> float:
        """Cached largest trainable parameter count."""
        return self.run_point(SweepPoint.max_trainable(policy, server, batch_size=batch_size))

    def max_batch(
        self, policy: OffloadPolicy, config: Any, server: ServerSpec, *, cap: int | None = None
    ) -> int:
        """Cached largest feasible batch size."""
        return self.run_point(SweepPoint.max_batch(policy, config, server, cap=cap))

    def max_global_batch(
        self, policy: OffloadPolicy, config: Any, server: ServerSpec
    ) -> int:
        """Cached largest feasible data-parallel global batch."""
        return self.run_point(SweepPoint.max_global_batch(policy, config, server))

    def data_parallel(
        self, policy: OffloadPolicy, config: Any, global_batch: int, server: ServerSpec
    ) -> EvalOutcome:
        """Cached data-parallel evaluation."""
        return self.run_point(SweepPoint.data_parallel(policy, config, global_batch, server))

    def run_point(self, point: SweepPoint) -> Any:
        """Evaluate one point through the cache (with retry/quarantine)."""
        key = point.key()
        value = self._lookup(point, key)
        return self._compute(point, key) if value is _MISS else value

    # -- grid API --------------------------------------------------------------

    def run(self, points: Iterable[SweepPoint]) -> list[Any]:
        """Evaluate a grid of points; results are ordered like the input.

        Cache hits are served without touching the pool; distinct points
        that share a content key are computed once.  The progress hook
        fires once per point, in completion order.
        """
        points = list(points)
        total = len(points)
        results: list[Any] = [None] * total
        started = time.perf_counter()

        pending: dict[str, list[int]] = {}
        unique: dict[str, SweepPoint] = {}
        for index, point in enumerate(points):
            key = point.key()
            if key in pending:  # duplicate of an already-missed point
                pending[key].append(index)
                continue
            cached = self._lookup(point, key)
            if cached is _MISS:
                pending[key] = [index]
                unique[key] = point
            else:
                results[index] = cached
                self._report(index, total, point, cached=True, started=started, value=cached)

        def resolve(key: str, value: Any) -> None:
            """Install ``value`` in every result slot that shares ``key``."""
            for index in pending[key]:
                results[index] = value
                self._report(index, total, unique[key], cached=False, started=started, value=value)

        # A single miss is not worth a pool — unless a per-point timeout
        # is set, which only the process pool can enforce.
        if self.executor == "serial" or (len(unique) == 1 and self.timeout is None):
            for key, point in unique.items():
                resolve(key, self._compute(point, key))
        elif unique:
            self._drain_pool(unique, resolve)

        quarantined = [value for value in results if is_failure(value)]
        summary_args: list[Any] = [
            total,
            len(unique),
            total - sum(len(ix) for ix in pending.values()),
            len(quarantined),
            time.perf_counter() - started,
        ]
        summary = "sweep: %d points, %d computed, %d cache hits, %d quarantined in %.2fs"
        if quarantined:
            summary += " (last failure: %s)"
            summary_args.append(quarantined[-1])
        logger.info(summary, *summary_args)
        return results

    # -- internals -------------------------------------------------------------

    def _lookup(self, point: SweepPoint, key: str) -> Any:
        """The cached value of ``point`` (``_MISS`` if none), counting the hit or miss."""
        hit = self.cache.get(key)
        if hit is None:
            self.registry.counter("sweep_cache_misses_total").inc(kind=point.kind)
            return _MISS
        layer, stored = hit
        if layer == DISK:
            stored = decode_value(stored)
            self.cache.promote(key, stored)
        if isinstance(stored, EvalOutcome):
            # A copy, not in-place mutation: the stored outcome keeps
            # cached=False, so the first (computed) return value is never
            # retroactively re-flagged by a later hit on the same object.
            stored = dataclasses.replace(stored, cached=True)
        self.registry.counter("sweep_cache_hits_total").inc(kind=point.kind)
        return stored

    def _compute(self, point: SweepPoint, key: str) -> Any:
        """Compute a missed point in-process, retrying it through
        :func:`~repro.util.backoff.retry_call`, and store the value (a
        failure that survives every attempt goes to :meth:`_fail`)."""

        def timed() -> Any:
            started = time.perf_counter()
            value = compute_point(point)
            elapsed = time.perf_counter() - started
            self.registry.histogram("sweep_point_seconds").observe(elapsed, kind=point.kind)
            logger.debug("computed %s in %.3fs", point.label(), elapsed)
            return value

        def count_retry(attempt: int, exc: BaseException) -> None:
            self.registry.counter("sweep_retries_total").inc(kind=point.kind)

        try:
            value = retry_call(
                timed,
                policy=self._backoff,
                what=f"point {point.label()}",
                retry_on=(Exception,),
                on_retry=count_retry,
            )
        except Exception as exc:  # noqa: BLE001 — resilience boundary
            return self._fail(point, exc, self._backoff.max_attempts)
        self._store(point, key, value, encode_value(value))
        return value

    def _fail(
        self, point: SweepPoint, exc: BaseException, attempts: int, *, timed_out: bool = False
    ) -> PointFailure:
        """A point's final failure: raised under ``on_error="raise"``, else
        logged, counted and returned as its :class:`PointFailure`."""
        if self.on_error == "raise":
            raise exc
        logger.error(
            "quarantining point %s after %d attempt(s): %s", point.label(), attempts, exc
        )
        error_type = type(exc).__name__
        self.registry.counter("sweep_failures_total").inc(kind=point.kind, error=error_type)
        return PointFailure(
            kind=point.kind,
            label=point.label(),
            error_type=error_type,
            message=str(exc),
            attempts=attempts,
            timed_out=timed_out,
        )

    def _store(self, point: SweepPoint, key: str, value: Any, payload: dict[str, Any]) -> None:
        """Keep a computed value in the cache and, for an evaluation, append
        it to the run ledger (a ledger write failure is never fatal)."""
        self.cache.put(key, value, payload)
        if (
            not isinstance(self.ledger, RunLedger)
            or point.kind not in ("evaluate", "data_parallel", "adaptive")
            or not isinstance(value, EvalOutcome)
        ):
            return
        try:
            self.ledger.record(
                value,
                label=point.label(),
                kind=point.kind,
                config_key=key,
                server=point.server,
                source="runner",
            )
            self.registry.counter("sweep_ledger_entries_total").inc(kind=point.kind)
        except OSError:
            logger.exception(
                "ledger append failed for %s (ledger %s); continuing the sweep",
                point.label(), self.ledger.path,
            )

    def _drain_pool(
        self, unique: dict[str, SweepPoint], resolve: Callable[[str, Any], None]
    ) -> None:
        """Fan missed points out over a process pool, surviving bad workers.

        Each point's value or failure goes to ``resolve`` as it lands.  A
        future that raises is retried up to ``retries`` times by
        resubmission; a broken pool (a worker died — OOM kill,
        ``os._exit`` — seen as a lost future or as a refused
        resubmission) is rebuilt and every in-flight point charged one
        attempt, since the culprit cannot be identified; a point past its
        ``timeout`` is abandoned (its worker cannot be preempted, so the
        pool is finally shut down without waiting for stragglers).
        """
        # Capture the submitting side's trace once: every point of this
        # drain belongs to the request that started the sweep.  Workers
        # get it in the task payload (contextvars do not cross process
        # boundaries).
        trace_payload = tracectx.current_payload()
        pool = ProcessPoolExecutor(max_workers=self.max_workers)
        attempts: dict[str, int] = {}
        futures: dict[Future, str] = {}
        deadlines: dict[Future, float] = {}
        # Points whose attempt the broken pool lost, awaiting the rebuild.
        stranded: list[str] = []
        broken: BrokenExecutor | None = None
        had_stragglers = False

        def submit(key: str) -> None:
            nonlocal broken
            attempts[key] = attempts.get(key, 0) + 1
            try:
                future = pool.submit(_pool_compute, unique[key], trace_payload)
            except BrokenExecutor as exc:
                broken = broken or exc
                stranded.append(key)
                return
            futures[future] = key
            if self.timeout is not None:
                deadlines[future] = time.monotonic() + self.timeout

        def retry_or_fail(key: str, exc: BaseException) -> None:
            point = unique[key]
            if attempts[key] > self.retries:
                resolve(key, self._fail(point, exc, attempts[key]))
                return
            self.registry.counter("sweep_retries_total").inc(kind=point.kind)
            delay = self._backoff.delay(attempts[key] - 1)
            logger.warning(
                "point %s failed (attempt %d/%d): %s; retrying in %.3fs",
                point.label(), attempts[key], self.retries + 1, exc, delay,
            )
            if delay > 0:
                time.sleep(delay)
            submit(key)

        try:
            for key in unique:
                submit(key)
            while futures or stranded:
                if stranded:
                    # Every future on the broken pool is lost; none can be
                    # blamed, so each in-flight point is charged one attempt
                    # and rerun on a fresh pool.
                    lost = sorted([*stranded, *futures.values()], key=list(unique).index)
                    stranded.clear()
                    futures.clear()
                    deadlines.clear()
                    pool.shutdown(wait=False, cancel_futures=True)
                    pool = ProcessPoolExecutor(max_workers=self.max_workers)
                    self.registry.counter("sweep_pool_rebuilds_total").inc()
                    logger.warning(
                        "worker pool broke (%s); rebuilding and retrying %d in-flight point(s)",
                        broken, len(lost),
                    )
                    cause, broken = broken, None
                    for key in lost:
                        retry_or_fail(key, cause)
                    continue

                live = set(futures)
                wait_timeout = None
                if deadlines:
                    now = time.monotonic()
                    wait_timeout = max(
                        0.0,
                        min(deadlines[f] for f in live if f in deadlines) - now,
                    )
                done, _ = wait(live, timeout=wait_timeout, return_when=FIRST_COMPLETED)

                if self.timeout is not None:
                    now = time.monotonic()
                    for future in list(live - done):
                        if deadlines.get(future, float("inf")) > now:
                            continue
                        key = futures.pop(future)
                        deadlines.pop(future, None)
                        if not future.cancel():
                            # The worker is stuck inside the point; it
                            # cannot be preempted, only abandoned.
                            had_stragglers = True
                        self.registry.counter("sweep_timeouts_total").inc(
                            kind=unique[key].kind
                        )
                        exc = TimeoutError(
                            f"point exceeded the per-point timeout of {self.timeout:.3g}s"
                        )
                        resolve(key, self._fail(unique[key], exc, attempts[key], timed_out=True))

                for future in done:
                    key = futures.pop(future, None)
                    if key is None:
                        continue
                    deadlines.pop(future, None)
                    try:
                        envelope = future.result()
                    except BrokenExecutor as exc:
                        broken = broken or exc
                        stranded.append(key)
                        continue
                    except Exception as exc:  # noqa: BLE001 — resilience boundary
                        retry_or_fail(key, exc)
                        continue
                    # The worker's own meter rides along in the envelope;
                    # fold it into this sweep's registry (and keep it out
                    # of the cached payload).
                    worker_metrics = envelope.pop("worker_metrics", None)
                    worker_trace = envelope.pop("worker_trace", None)
                    if worker_metrics:
                        self.registry.merge(
                            RegistrySnapshot.from_payload(
                                worker_metrics,
                                trace_id=(worker_trace or {}).get("trace_id", ""),
                            )
                        )
                    value = decode_value(envelope)
                    self._store(unique[key], key, value, envelope)
                    resolve(key, value)
        finally:
            pool.shutdown(wait=not had_stragglers, cancel_futures=True)

    def _report(
        self, index: int, total: int, point: SweepPoint, *, cached: bool, started: float, value: Any
    ) -> None:
        status = "failed" if is_failure(value) else ("cached" if cached else "computed")
        self.registry.counter("sweep_progress_events_total").inc(
            kind=point.kind, status=status
        )
        if self.progress is None:
            return
        event = ProgressEvent(
            index=index,
            total=total,
            label=point.label(),
            cached=cached,
            elapsed_s=time.perf_counter() - started,
            value=value,
        )
        try:
            self.progress(event)
        except Exception:  # noqa: BLE001 — a broken hook must not kill the sweep
            logger.exception(
                "progress hook raised for %s (point %d/%d); continuing the sweep",
                event.label, index + 1, total,
            )


_MISS = object()

_default_sweep: Sweep | None = None


def default_sweep() -> Sweep:
    """The process-wide sweep the experiment harnesses share.

    In-memory cache only by default; :func:`configure` swaps in a sweep
    with a disk store and/or a parallel executor (the CLI's
    ``--jobs`` / ``--cache-dir`` flags do exactly that).
    """
    global _default_sweep
    if _default_sweep is None:
        _default_sweep = Sweep()
    return _default_sweep


def configure(**kwargs: Any) -> Sweep:
    """Replace the shared default sweep (returns the new one)."""
    global _default_sweep
    _default_sweep = Sweep(**kwargs)
    return _default_sweep


def reset() -> None:
    """Drop the shared default sweep (next use builds a fresh one)."""
    global _default_sweep
    _default_sweep = None
