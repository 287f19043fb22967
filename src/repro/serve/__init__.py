"""The hardened what-if planner service (``repro serve``).

Answers capacity questions — "would this model/batch/hardware combo be
feasible, and at what iteration time?" — over HTTP without re-running
the full planning stack per request.  The answer pipeline consults the
run ledger first, then the runner's checksummed on-disk
:class:`~repro.runner.ResultCache` (whose entries ``repro sweep
--cache-dir`` writes too), and only simulates on a miss, single-flight,
inside a bounded worker pool.

Every layer is built to degrade loudly instead of failing silently:

* :mod:`repro.serve.admission` — token-bucket admission control and a
  bounded queue; overload is shed with explicit 429/503 + Retry-After.
* :mod:`repro.serve.breaker` — a circuit breaker around the simulation
  backend (open on consecutive failures, half-open probes, every
  transition ledgered).
* :mod:`repro.serve.ladder` — the four-rung answer-degradation ladder
  (exact → cached neighbor → analytic estimate → 503), monotone within
  an overload episode.
* :mod:`repro.serve.journal` — crash safety: a write-ahead journal of
  accepted requests, so ``kill -9`` + restart loses and double-runs
  nothing (the result cache's writes are atomic and checksummed).
* :mod:`repro.serve.chaos` — the fault drill that proves all of the
  above under request floods, worker crashes, slow backends and cache
  corruption (scored in ``ext_serve`` / ``bench_serve``).
"""

from .admission import AdmissionController, AdmissionDecision, TokenBucket
from .breaker import CircuitBreaker
from .chaos import ChaosReport, run_chaos_drill
from .http import PlannerHTTPServer, make_server, run_daemon, start_in_thread
from .journal import JournalAccounting, RequestJournal
from .ladder import DegradationLadder, RUNGS, rung_index, rung_name
from .service import (
    PlannerService,
    ServeResponse,
    ServiceConfig,
    WhatIfQuery,
)

__all__ = [
    "AdmissionController",
    "AdmissionDecision",
    "ChaosReport",
    "CircuitBreaker",
    "DegradationLadder",
    "JournalAccounting",
    "PlannerHTTPServer",
    "PlannerService",
    "RUNGS",
    "RequestJournal",
    "ServeResponse",
    "ServiceConfig",
    "TokenBucket",
    "WhatIfQuery",
    "make_server",
    "run_chaos_drill",
    "run_daemon",
    "start_in_thread",
    "rung_index",
    "rung_name",
]
