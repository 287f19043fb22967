"""Host-normalised timing: the calibration probe, the op loop and the statistics.

The benchmark runs on shared virtual machines whose speed drifts in
phases that last seconds.  Every timed interval is therefore bracketed by
a fixed calibration probe (a pure-integer loop that builds no containers
and runs with the garbage collector off) and scaled to the committed
reference speed::

    normalised = raw * C_REF_S / mean(probe_before, probe_after)

Probe time never counts as op time.  A change that slows the probe
itself (for example a background thread holding the interpreter lock)
shows up as the raw and normalised rates moving apart, which is why
every run also reports ``host.calib_ms`` and ``host.raw_ops_per_s``.
"""

from __future__ import annotations

import gc
import math
import statistics
import time
from dataclasses import dataclass, field
from typing import Any, Callable

import numpy as np

#: The calibration loop runs in equal chunks (about 2 ms in all on the
#: reference host); the probe's duration is the median chunk times the
#: chunk count, so an interrupt that lands in one chunk does not move it.
PROBE_CHUNKS = 16
CHUNK_ITERS = 1_000

#: Probe time on the reference host (2-vCPU x86-64 VM, CPython 3.11), in
#: seconds.  Normalised times are expressed at this speed.
C_REF_S = 1.64e-3

#: A tail percentile is reported only with at least this many samples beyond it.
MIN_BEYOND = 10


def probe() -> float:
    """Run the calibration loop once; returns its duration in seconds."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        chunks = [0.0] * PROBE_CHUNKS
        for chunk in range(PROBE_CHUNKS):
            start = time.perf_counter()
            x = 0
            for i in range(CHUNK_ITERS):
                x = (x * 31 + i) & 0xFFFFFFF
            chunks[chunk] = time.perf_counter() - start
        return PROBE_CHUNKS * statistics.median(chunks)
    finally:
        if enabled:
            gc.enable()


def normalise(raw_s: float, before_s: float, after_s: float, c_ref_s: float = C_REF_S) -> float:
    """Scale a raw duration to the reference host speed (``raw * c_ref / c_op``)."""
    c_op = (before_s + after_s) / 2
    if not c_op > 0:
        raise ValueError(f"calibration probe times must be positive, got {before_s}, {after_s}")
    return raw_s * c_ref_s / c_op


def quantile(samples: list[float], q: float) -> float:
    """Harrell-Davis estimate of the ``q`` quantile.

    A weighted mean of all order statistics, with weights from the
    Beta(q(n+1), (1-q)(n+1)) distribution over the ranks.  Unlike the
    plain sample median, it does not jump between two neighbouring ops
    when a run mixes op kinds of very different cost (four schedulers,
    two capacity questions), so it repeats better from run to run.
    """
    if not 0 < q < 1:
        raise ValueError(f"quantile must be in (0, 1), got {q}")
    x = np.sort(np.asarray(samples, dtype=float))
    n = len(x)
    if n == 0:
        raise ValueError("no samples")
    a, b = q * (n + 1), (1 - q) * (n + 1)
    per_rank = 64  # integration points per rank interval
    t = (np.arange(per_rank * n) + 0.5) / (per_rank * n)
    log_pdf = (a - 1) * np.log(t) + (b - 1) * np.log1p(-t)
    cdf = np.concatenate(([0.0], np.cumsum(np.exp(log_pdf - log_pdf.max()))))
    weights = np.diff(cdf[::per_rank] / cdf[-1])
    return float(weights @ x)


def tail_percentile(samples: list[float], q: float, min_beyond: int = MIN_BEYOND) -> float:
    """The ``q`` quantile, refused when too few samples lie beyond it.

    With ``n`` samples, ``n - ceil(q * n)`` lie beyond the ``q`` quantile;
    fewer than ``min_beyond`` raises ``ValueError`` (a p90 needs 100).
    """
    if not 0 < q < 1:
        raise ValueError(f"percentile must be in (0, 1), got {q}")
    n = len(samples)
    beyond = n - math.ceil(q * n)
    if beyond < min_beyond:
        raise ValueError(
            f"p{q * 100:g} needs at least {min_beyond} samples beyond it; "
            f"{n} samples leave {max(0, beyond)}"
        )
    return quantile(samples, q)


@dataclass
class OpTiming:
    """One timed op: raw and normalised seconds plus its two probes."""

    raw_s: float
    norm_s: float
    before_s: float
    after_s: float

    @property
    def scale(self) -> float:
        """The factor that turns raw into normalised time for this op."""
        return C_REF_S / ((self.before_s + self.after_s) / 2)


def time_op(fn: Callable[[Any], Any], arg: Any) -> tuple[Any, OpTiming]:
    """Call ``fn(arg)`` between two probes; returns its result and timing."""
    before = probe()
    start = time.perf_counter()
    result = fn(arg)
    raw = time.perf_counter() - start
    after = probe()
    return result, OpTiming(raw, normalise(raw, before, after), before, after)


@dataclass
class OpLog:
    """Timings and check verdicts of one pass over an op list."""

    timings: list[OpTiming] = field(default_factory=list)
    ok: list[bool] = field(default_factory=list)

    def add(self, timing: OpTiming, ok: bool) -> None:
        self.timings.append(timing)
        self.ok.append(ok)

    @property
    def n(self) -> int:
        return len(self.timings)

    def ops_per_s(self) -> float:
        """Ops divided by total normalised op time."""
        return self.n / sum(t.norm_s for t in self.timings)

    def raw_ops_per_s(self) -> float:
        """Ops divided by total raw (un-normalised) op time."""
        return self.n / sum(t.raw_s for t in self.timings)

    def p50_ms(self) -> float:
        """Normalised median op time (Harrell-Davis)."""
        return quantile([t.norm_s for t in self.timings], 0.5) * 1e3

    def p90_ms(self) -> float | None:
        """Normalised p90, or ``None`` when the run holds too few ops for it."""
        try:
            return tail_percentile([t.norm_s for t in self.timings], 0.9) * 1e3
        except ValueError:
            return None

    def calib_ms(self) -> float:
        """Median probe time across every probe of the pass."""
        probes = [p for t in self.timings for p in (t.before_s, t.after_s)]
        return statistics.median(probes) * 1e3

    def ok_frac(self) -> float:
        return sum(self.ok) / len(self.ok)
