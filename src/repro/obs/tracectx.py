"""Causal trace context: one request identity across every layer.

PRs 6-8 grew three request paths (serve HTTP → result cache → sweep pool;
fleet job → oracle → node sim; adapt drift → replan) with no shared
identity, so a slow or degraded answer could not be followed across
layers.  :class:`TraceContext` is that identity: a W3C-trace-context
``(trace_id, span_id, parent_id)`` triple carried in a
:class:`contextvars.ContextVar` and injected/extracted at each boundary:

* ``repro.serve`` HTTP accepts and echoes a ``traceparent`` header;
* ``runner/sweep.py`` serializes the context into process-pool task
  payloads so worker-side metrics merge under the originating trace;
* fleet :class:`~repro.fleet.api.JobSpec` / ``FleetEvent`` and adapt
  decisions carry the trace they were born under;
* every :class:`~repro.obs.ledger.LedgerEntry` appended while a context
  is active is stamped with its ``trace_id`` — which is what
  ``repro obs report --trace-id`` filters on.

The context is **ambient**: code that never touches tracing pays one
ContextVar read returning ``None``, the same free-when-off contract the
span recorder keeps.  Serialization (:meth:`TraceContext.to_payload` /
:meth:`~TraceContext.from_payload`) is bit-exact — the Hypothesis suite
round-trips it through the JSONL ledger.
"""

from __future__ import annotations

import contextlib
import contextvars
import os
import re
from dataclasses import dataclass
from typing import Any, Iterator


class TraceError(ValueError):
    """Raised for malformed trace ids, headers or payloads."""


#: W3C trace-context ``traceparent``: version-traceid-spanid-flags.
_TRACEPARENT_RE = re.compile(
    r"^([0-9a-f]{2})-([0-9a-f]{32})-([0-9a-f]{16})-([0-9a-f]{2})$"
)
_TRACE_ID_RE = re.compile(r"^[0-9a-f]{32}$")
_SPAN_ID_RE = re.compile(r"^[0-9a-f]{16}$")


def _random_hex(nbytes: int) -> str:
    return os.urandom(nbytes).hex()


@dataclass(frozen=True)
class TraceContext:
    """One (trace, span) position in a request's causal tree.

    ``trace_id`` (32 lowercase hex chars) names the whole request;
    ``span_id`` (16 hex chars) names this hop; ``parent_id`` is the hop
    that caused it (``""`` at the root).  Frozen: crossing a boundary
    never mutates a context, it derives a :meth:`child`.
    """

    trace_id: str
    span_id: str
    parent_id: str = ""

    def __post_init__(self) -> None:
        if not _TRACE_ID_RE.fullmatch(self.trace_id) or set(self.trace_id) == {"0"}:
            raise TraceError(f"trace_id must be 32 lowercase hex chars, got {self.trace_id!r}")
        if not _SPAN_ID_RE.fullmatch(self.span_id) or set(self.span_id) == {"0"}:
            raise TraceError(f"span_id must be 16 lowercase hex chars, got {self.span_id!r}")
        if self.parent_id and not _SPAN_ID_RE.fullmatch(self.parent_id):
            raise TraceError(f"parent_id must be 16 lowercase hex chars, got {self.parent_id!r}")

    # -- derivation ------------------------------------------------------------

    def child(self) -> "TraceContext":
        """A new span under this one (same trace, this span as parent)."""
        return TraceContext(
            trace_id=self.trace_id,
            span_id=_random_hex(8),
            parent_id=self.span_id,
        )

    # -- W3C traceparent -------------------------------------------------------

    def to_traceparent(self) -> str:
        """This context as a W3C ``traceparent`` header value."""
        return f"00-{self.trace_id}-{self.span_id}-01"

    @classmethod
    def from_traceparent(cls, header: str | None) -> "TraceContext | None":
        """Parse a ``traceparent`` header; ``None`` when absent/malformed.

        Lenient by design (the W3C spec says a receiver that cannot parse
        the header starts a fresh trace rather than failing the request).
        """
        if not header:
            return None
        match = _TRACEPARENT_RE.fullmatch(header.strip().lower())
        if match is None:
            return None
        version, trace_id, span_id, _flags = match.groups()
        if version == "ff":  # forbidden by the spec
            return None
        try:
            return cls(trace_id=trace_id, span_id=span_id)
        except TraceError:
            return None

    # -- serialisation ---------------------------------------------------------

    def to_payload(self) -> dict[str, Any]:
        """JSON-serialisable payload; :meth:`from_payload` round-trips it bit-exactly."""
        return {
            "trace_id": self.trace_id,
            "span_id": self.span_id,
            "parent_id": self.parent_id,
        }

    @classmethod
    def from_payload(cls, payload: dict[str, Any]) -> "TraceContext":
        if not isinstance(payload, dict) or "trace_id" not in payload:
            raise TraceError(f"not a trace-context payload: {payload!r}")
        return cls(
            trace_id=payload["trace_id"],
            span_id=payload.get("span_id", ""),
            parent_id=payload.get("parent_id", ""),
        )


#: The ambient context.  ``None`` means "not inside any traced request" —
#: the free path every untraced caller stays on.
_current: contextvars.ContextVar[TraceContext | None] = contextvars.ContextVar(
    "repro_trace_context", default=None
)


def current() -> TraceContext | None:
    """The ambient :class:`TraceContext`, or ``None`` outside any trace."""
    return _current.get()


def current_trace_id() -> str:
    """The ambient trace id, or ``""`` outside any trace (ledger stamp)."""
    ctx = _current.get()
    return ctx.trace_id if ctx is not None else ""


def new_trace() -> TraceContext:
    """A fresh root context (new trace id, new span, no parent)."""
    return TraceContext(trace_id=_random_hex(16), span_id=_random_hex(8))


@contextlib.contextmanager
def activate(ctx: TraceContext) -> Iterator[TraceContext]:
    """Install ``ctx`` as the ambient context for the ``with`` block."""
    token = _current.set(ctx)
    try:
        yield ctx
    finally:
        _current.reset(token)


@contextlib.contextmanager
def child_scope() -> Iterator[TraceContext | None]:
    """A child span scope under the ambient context (no-op outside a trace).

    The boundary one-liner::

        with tracectx.child_scope():
            ...work attributed to a new span...
    """
    ctx = _current.get()
    if ctx is None:
        yield None
        return
    with activate(ctx.child()) as child:
        yield child


def current_payload() -> dict[str, Any] | None:
    """The ambient context as a payload, or ``None`` — for task envelopes."""
    ctx = _current.get()
    return ctx.to_payload() if ctx is not None else None
