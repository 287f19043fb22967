"""One front door for run-scoped wiring: ledger + health + observability.

Three attachment idioms grew up independently across PRs:

* ``repro.experiments.common.attach_ledger`` — point the shared sweep's
  run ledger at a JSONL path (left attached forever);
* ``RatelRuntime.attach_health`` — install an adaptive health monitor on
  a runtime's step path (caller remembers to detach);
* ``repro.obs.observe`` — a context manager enabling span recording.

:class:`Session` composes all three behind one ``with`` block with
symmetric teardown — the ledger is restored to whatever was attached
before, span recording reverts to the previous recorder, and every
runtime bound through :meth:`Session.bind` has its monitor detached::

    from repro.session import Session

    with Session(ledger="runs.jsonl", observe=True) as session:
        session.bind(runtime, health)      # adapt ladder on the step path
        runtime.train_step(loss_fn)
        session.recorder.stage_windows     # spans recorded inside the block

The old entry points remain and now delegate here:
``attach_ledger`` below is the canonical implementation the experiments
helper re-exports, and ``Session`` drives ``RatelRuntime.attach_health``
/ ``obs.observe`` rather than duplicating them.
"""

from __future__ import annotations

import contextlib
from typing import TYPE_CHECKING, Any

from repro.obs import spans, tracectx
from repro.obs.ledger import RunLedger
from repro.runner import Sweep, default_sweep

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.obs.metrics import MetricsRegistry
    from repro.obs.spans import SpanRecorder


def attach_ledger(
    path_or_ledger: str | RunLedger, *, sweep: Sweep | None = None
) -> RunLedger:
    """Attach a run ledger to a sweep (default: the shared default sweep).

    Every evaluation the sweep *computes* from here on (cache hits
    excluded) is appended to the ledger as one JSONL entry.  Returns the
    attached :class:`~repro.obs.ledger.RunLedger`.  For scoped
    attachment with automatic restore, use :class:`Session`.
    """
    ledger = (
        path_or_ledger
        if isinstance(path_or_ledger, RunLedger)
        else RunLedger(path_or_ledger)
    )
    (sweep if sweep is not None else default_sweep()).ledger = ledger
    return ledger


class SessionError(RuntimeError):
    """Misuse of the :class:`Session` lifecycle (re-entry, early bind)."""


class Session:
    """A scoped bundle of run wiring: ledger, span recorder, health.

    Parameters
    ----------
    ledger:
        JSONL path or :class:`RunLedger` to attach to the sweep for the
        duration of the block (the previous ledger is restored on exit).
    observe:
        When true, enable span recording inside the block;
        :attr:`recorder` then holds the active
        :class:`~repro.obs.spans.SpanRecorder`.
    registry:
        Optional :class:`~repro.obs.metrics.MetricsRegistry` the span
        recorder should publish into (implies ``observe``).
    sweep:
        The sweep to attach the ledger to (default: the shared one).
    trace:
        ``True`` roots a fresh :class:`~repro.obs.tracectx.TraceContext`
        for the block; an explicit :class:`TraceContext` scopes that one.
        Every ledger entry, fleet job and adapt decision produced inside
        the block is stamped with its trace_id, and :attr:`trace` holds
        the active context.
    """

    def __init__(
        self,
        *,
        ledger: str | RunLedger | None = None,
        observe: bool = False,
        registry: "MetricsRegistry | None" = None,
        sweep: Sweep | None = None,
        trace: "bool | tracectx.TraceContext" = False,
    ) -> None:
        self._ledger_spec = ledger
        self._observe = observe or registry is not None
        self._registry = registry
        self._sweep = sweep
        self._trace_spec = trace
        self._stack: contextlib.ExitStack | None = None
        self.ledger: RunLedger | None = None
        self.recorder: "SpanRecorder | None" = None
        self.trace: "tracectx.TraceContext | None" = None
        self._bound: list[Any] = []

    @property
    def active(self) -> bool:
        return self._stack is not None

    def __enter__(self) -> "Session":
        if self.active:
            raise SessionError("Session is not re-entrant; create a new one")
        stack = contextlib.ExitStack()
        try:
            if self._ledger_spec is not None:
                sweep = self._sweep if self._sweep is not None else default_sweep()
                previous = sweep.ledger
                self.ledger = attach_ledger(self._ledger_spec, sweep=sweep)
                stack.callback(setattr, sweep, "ledger", previous)
            if self._observe:
                self.recorder = stack.enter_context(
                    spans.observe(registry=self._registry)
                )
            if self._trace_spec:
                ctx = (
                    self._trace_spec
                    if isinstance(self._trace_spec, tracectx.TraceContext)
                    else tracectx.new_trace()
                )
                self.trace = stack.enter_context(tracectx.activate(ctx))
            stack.callback(self._unbind_all)
        except BaseException:
            stack.close()
            raise
        self._stack = stack
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        stack, self._stack = self._stack, None
        try:
            if stack is not None:
                stack.close()
        finally:
            self.ledger = None
            self.recorder = None
            self.trace = None

    def bind(self, runtime: Any, health: Any) -> Any:
        """Attach ``health`` to ``runtime``'s step path for this session.

        ``runtime`` is anything with ``attach_health`` (a
        :class:`~repro.runtime.offload.RatelRuntime`); ``health`` is the
        duck-typed monitor it accepts (``clock()`` +
        ``on_step(runtime, dt)``, e.g. :class:`repro.adapt.RuntimeHealth`).
        Detached automatically when the session exits.  Returns the
        runtime for chaining.
        """
        if not self.active:
            raise SessionError("bind() requires an entered Session")
        runtime.attach_health(health)
        self._bound.append(runtime)
        return runtime

    def _unbind_all(self) -> None:
        while self._bound:
            runtime = self._bound.pop()
            try:
                runtime.attach_health(None)
            except Exception:  # noqa: BLE001 - teardown must not mask errors
                pass

    def record(self, outcome, **kwargs) -> None:
        """Record an evaluation to the session ledger (requires one)."""
        if self.ledger is None:
            raise SessionError("Session has no ledger attached")
        self.ledger.record(outcome, **kwargs)
