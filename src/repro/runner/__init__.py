"""Sweep orchestration: cached, parallel evaluation of experiment grids.

The experiments, benchmarks and CLI all funnel their (policy, model,
batch, server) evaluation points through this package:

* :class:`Sweep` — the orchestrator: content-keyed memoization
  (:class:`ResultCache`: in-memory LRU + optional CRC32-checked
  on-disk JSON store under ``.repro_cache/``, which ``repro serve``
  answers from too), serial/process-pool fan-out with ordered results,
  and a progress hook.
* :class:`SweepPoint` — one memoizable query (``evaluate``,
  ``max_trainable``, ``max_batch``, ``max_global_batch``,
  ``data_parallel``).
* :func:`default_sweep` / :func:`configure` — the process-wide sweep the
  experiment harnesses share, and how the CLI retargets it.

Example::

    from repro.runner import Sweep, SweepPoint
    from repro.core import RatelPolicy
    from repro.hardware import evaluation_server
    from repro.models import llm

    sweep = Sweep(executor="process", cache_dir=".repro_cache")
    points = [
        SweepPoint.evaluate(RatelPolicy(), llm("13B"), batch, evaluation_server())
        for batch in (8, 16, 32, 64)
    ]
    outcomes = sweep.run(points)          # ordered like the input
    [o.tokens_per_s for o in outcomes]
"""

from .cache import CACHE_VERSION, CacheStats, ResultCache, decode_value, encode_value
from .keys import CacheKeyError, cache_key, describe
from .options import RunOptions, run_options_parent
from .sweep import (
    EXECUTORS,
    ON_ERROR_MODES,
    PointFailure,
    ProgressEvent,
    Sweep,
    SweepError,
    SweepPoint,
    compute_point,
    configure,
    default_sweep,
    is_failure,
    reset,
)

__all__ = [
    "CACHE_VERSION",
    "CacheStats",
    "ResultCache",
    "decode_value",
    "encode_value",
    "CacheKeyError",
    "cache_key",
    "describe",
    "RunOptions",
    "run_options_parent",
    "EXECUTORS",
    "ON_ERROR_MODES",
    "PointFailure",
    "ProgressEvent",
    "Sweep",
    "SweepError",
    "SweepPoint",
    "compute_point",
    "configure",
    "default_sweep",
    "is_failure",
    "reset",
]
