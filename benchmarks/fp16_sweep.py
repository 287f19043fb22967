"""Compare ``round_fp16`` with NumPy's fp16 cast on all 2**32 float32 patterns.

Usage, from the root of a checkout (about four minutes on one core)::

    PYTHONPATH=src python benchmarks/fp16_sweep.py

Every float32 bit pattern is visited once, in chunks of 2**22.  The
patterns below 65520 in magnitude must round bit for bit as
``astype(float16).astype(float32)`` does, and they must be exactly the
patterns that cast keeps finite: the rest (NaN, and |x| >= 65520) are
the ones ``round_fp16`` refuses.  Prints the counts and exits non-zero
on any mismatch.
"""

from __future__ import annotations

import sys
import time

import numpy as np

from repro.runtime import round_fp16

CHUNK = 1 << 22


def main() -> int:
    started = time.perf_counter()
    mismatched = refused = threshold_errors = 0
    for base in range(0, 1 << 32, CHUNK):
        x = np.arange(base, base + CHUNK, dtype=np.uint64).astype(np.uint32).view(np.float32)
        with np.errstate(over="ignore"):
            cast = x.astype(np.float16).astype(np.float32)
        fits = np.abs(x) < 65520
        threshold_errors += int(np.count_nonzero(fits != np.isfinite(cast)))
        rounded = round_fp16(x[fits], "sweep")
        mismatched += int(np.count_nonzero(rounded.view(np.uint32) != cast[fits].view(np.uint32)))
        refused += CHUNK - int(np.count_nonzero(fits))
    print(
        f"{1 << 32} patterns: {(1 << 32) - refused} below 65520, {mismatched} of them "
        f"rounded differently from the cast; {refused} NaN or >= 65520; "
        f"{threshold_errors} where the cast's overflow and the refusal disagree; "
        f"{time.perf_counter() - started:.1f} s"
    )
    return 1 if mismatched or threshold_errors else 0


if __name__ == "__main__":
    sys.exit(main())
