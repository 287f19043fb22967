"""Deterministic fault hooks for real I/O.

:class:`FaultInjector` is the runtime-side fault source: the storage
layer calls :meth:`FaultInjector.on_read` / :meth:`FaultInjector.on_write`
around every spill-file operation and :meth:`FaultInjector.maybe_corrupt`
after successful writes.  Faults are either scheduled exactly
(``fail_next_reads(2)`` — the next two reads raise) or drawn from a
seeded RNG at a configured rate, so every scenario replays identically.
The storage layer retries the transient errors through
:func:`repro.util.backoff.retry_call`.
"""

from __future__ import annotations

import logging
import random
from dataclasses import dataclass

logger = logging.getLogger("repro.faults")


class FaultInjected(RuntimeError):
    """Raised by chaos policies and other non-I/O injected faults."""


class InjectedIOError(OSError):
    """The transient I/O error the injector raises (an ``OSError``)."""


@dataclass
class FaultInjector:
    """Configurable source of storage-layer faults.

    ``read_error_rate`` / ``write_error_rate`` make the corresponding
    hook raise :class:`InjectedIOError` with that probability (seeded
    RNG); ``corrupt_rate`` flips one bit in the just-written payload.  The
    ``fail_next_*`` / ``corrupt_next_write`` methods schedule exact
    one-shot faults on top, which tests prefer for determinism.

    Counters (``injected_read_errors`` ...) record what actually fired,
    so tests and benchmarks can assert the scenario happened.
    """

    read_error_rate: float = 0.0
    write_error_rate: float = 0.0
    corrupt_rate: float = 0.0
    seed: int = 0

    def __post_init__(self) -> None:
        for name in ("read_error_rate", "write_error_rate", "corrupt_rate"):
            rate = getattr(self, name)
            if not 0.0 <= rate <= 1.0:
                raise ValueError(f"{name} must be in [0, 1], got {rate}")
        self._rng = random.Random(self.seed)
        self._fail_reads = 0
        self._fail_writes = 0
        self._corrupt_writes = 0
        self.injected_read_errors = 0
        self.injected_write_errors = 0
        self.injected_corruptions = 0

    # -- exact one-shot scheduling ---------------------------------------------

    def fail_next_reads(self, count: int = 1) -> None:
        """Make the next ``count`` read hooks raise."""
        self._fail_reads += count

    def fail_next_writes(self, count: int = 1) -> None:
        """Make the next ``count`` write hooks raise."""
        self._fail_writes += count

    def corrupt_next_write(self, count: int = 1) -> None:
        """Flip a bit in the next ``count`` successfully written payloads."""
        self._corrupt_writes += count

    # -- hooks the storage layer calls -----------------------------------------

    def on_read(self, path: str) -> None:
        """Called before a spill-file read; may raise :class:`InjectedIOError`."""
        if self._fail_reads > 0:
            self._fail_reads -= 1
        elif not (self.read_error_rate and self._rng.random() < self.read_error_rate):
            return
        self.injected_read_errors += 1
        raise InjectedIOError(f"injected transient read error on {path!r}")

    def on_write(self, path: str) -> None:
        """Called before a spill-file write; may raise :class:`InjectedIOError`."""
        if self._fail_writes > 0:
            self._fail_writes -= 1
        elif not (self.write_error_rate and self._rng.random() < self.write_error_rate):
            return
        self.injected_write_errors += 1
        raise InjectedIOError(f"injected transient write error on {path!r}")

    def maybe_corrupt(self, path: str, end: int) -> None:
        """Called after a successful write; may flip a bit in the payload ending at ``end``."""
        if self._corrupt_writes > 0:
            self._corrupt_writes -= 1
        elif not (self.corrupt_rate and self._rng.random() < self.corrupt_rate):
            return
        self.corrupt(path, end)

    def corrupt(self, path: str, end: int) -> None:
        """Flip one bit of the payload that ends at offset ``end`` of ``path``.

        The storage layer keeps every spilled tensor in one arena file,
        so ``end`` (the slot's offset plus its payload bytes) aims the
        flip at that tensor's second-to-last byte — a torn write or media
        flip inside its data, exactly what the tensor's CRC32 must catch,
        while its neighbours stay intact.
        """
        offset = max(0, end - 2)
        with open(path, "r+b") as handle:
            handle.seek(offset)
            byte = handle.read(1)
            if not byte:
                return
            handle.seek(offset)
            handle.write(bytes([byte[0] ^ 0x01]))
        self.injected_corruptions += 1
        logger.debug("injected bit flip in %s at offset %d", path, offset)
