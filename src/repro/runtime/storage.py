"""Three-tier tensor storage: GPU / main memory / NVMe.

The functional runtime's stand-in for device memory, pinned host buffers
and the SSD array.  Every tensor the offload engine manages lives in a
:class:`StoredTensor` registered with a :class:`StorageManager`, which

* enforces per-tier capacities (moving a tensor into a full tier raises
  :class:`TierCapacityError`, the runtime's "CUDA OOM");
* counts every byte moved over each inter-tier link — the counters the
  tests compare against the analytic traffic model;
* really spills: tensors moved to the ``nvme`` tier are written to disk
  and their in-memory payload dropped, so out-of-core behaviour is
  genuine, not simulated.

Byte accounting uses the tensor's *storage* dtype (fp16 for activations
and compute parameters, fp32 for master states) independent of the
float32 the math runs in.  Spilled fp16 tensors are also *restored* at
fp16 width, so resident memory matches the accounted bytes.

Every spill of one manager goes to one arena file.  A spill takes a slot
of the payload's size class (four per power of two) from that class's
free list (or from the end of the file), ``os.pwrite``s the raw payload at its
storage dtype, and keeps the slot's offset, the tensor's shape and a
CRC32 of the payload in memory; a load ``os.preadv``s the slot into a
fresh array and returns the slot to its free list.  No per-spill file
is created, renamed or parsed.  The arena is opened by the first spill,
deleted whenever no tensor is spilled, and removed by
:meth:`StorageManager.close`.

Spill data need not outlive the process: the slot table lives only in
memory, and the durable training state is
:func:`~repro.runtime.serialization.save_checkpoint`'s atomic ``.npz``.
The arena is hardened against what a live multi-day run sees instead: a
slot is recorded on its tensor only after the whole write succeeded, so
a torn write is rewritten by the retry or its slot freed, never read;
every load verifies the CRC32 (bit flips and short reads surface as
:class:`SpillCorruptionError` instead of silently corrupted parameters);
and transient ``OSError`` on either side is retried with exponential
backoff (``MAX_RETRIES`` times) before :class:`SpillError` is raised.  A
:class:`repro.faults.FaultInjector` can be attached to exercise all of
these paths deterministically.
"""

from __future__ import annotations

import errno
import os
import tempfile
import time
import zlib
from dataclasses import dataclass
from typing import Callable, NamedTuple

import numpy as np

from repro.obs import spans as _spans
from repro.util.backoff import BackoffPolicy, retry_call

GPU = "gpu"
HOST = "host"
NVME = "nvme"
TIERS = (GPU, HOST, NVME)

#: Retries of a spill read or write that failed with ``OSError``; the
#: first waits ``BACKOFF_S`` seconds and each further one twice as long.
MAX_RETRIES = 3
BACKOFF_S = 0.005

#: Links the manager tracks, as (source, destination) tier pairs.
LINKS = (
    (GPU, HOST),
    (HOST, GPU),
    (HOST, NVME),
    (NVME, HOST),
)


class TierCapacityError(MemoryError):
    """Raised when a tier cannot hold a tensor (the runtime's OOM)."""


class StorageError(RuntimeError):
    """Raised for invalid storage operations (unknown tier, double free)."""


class SpillError(StorageError):
    """Spill I/O failed even after ``MAX_RETRIES`` retries."""


class SpillCorruptionError(SpillError):
    """A spilled payload failed its checksum or came back short on load."""


@dataclass
class Tier:
    """One memory tier with capacity enforcement and peak tracking."""

    name: str
    capacity_bytes: float
    used_bytes: float = 0.0
    peak_bytes: float = 0.0

    def allocate(self, nbytes: float) -> None:
        """Reserve ``nbytes``; raises :class:`TierCapacityError` if full."""
        if self.used_bytes + nbytes > self.capacity_bytes:
            raise TierCapacityError(
                f"tier {self.name!r}: allocating {nbytes / 1e6:.1f} MB would exceed "
                f"capacity ({self.used_bytes / 1e6:.1f}/{self.capacity_bytes / 1e6:.1f} MB used)"
            )
        self.used_bytes += nbytes
        self.peak_bytes = max(self.peak_bytes, self.used_bytes)

    def free(self, nbytes: float) -> None:
        """Release ``nbytes``."""
        if nbytes > self.used_bytes + 1e-6:
            raise StorageError(f"tier {self.name!r}: freeing more than allocated")
        self.used_bytes -= nbytes


class _Slot(NamedTuple):
    """Where one spilled payload sits in the arena, and how to check it."""

    offset: int
    size: int
    shape: tuple[int, ...]
    crc: int


@dataclass
class StoredTensor:
    """A managed array with a tier location and a storage dtype.

    ``itemsize`` is the storage width in bytes (2 for fp16 tensors, 4
    for fp32 master states); the in-memory math stays float32.
    ``nbytes``, the accounted bytes at that width, is fixed at
    :meth:`StorageManager.put`.
    """

    name: str
    array: np.ndarray | None
    tier: str
    itemsize: int
    manager: "StorageManager"
    nbytes: int
    _slot: _Slot | None = None

    def data(self) -> np.ndarray:
        """The payload; the tensor must currently be resident (not on NVMe)."""
        if self.array is None:
            if self._slot is None:
                raise StorageError(f"tensor {self.name!r} was dropped")
            raise StorageError(
                f"tensor {self.name!r} is spilled to NVMe; move it to host/gpu first"
            )
        return self.array


class _Arena:
    """One spill file carved into size-class slots with free lists.

    The file is created by the first :meth:`write` and deleted as soon
    as no slot is reserved, so it exists only while a tensor is spilled.
    """

    def __init__(self, path: str) -> None:
        self.path = path
        self._fd: int | None = None
        self._end = 0
        self._free: dict[int, list[int]] = {}
        self._reserved = 0

    def reserve(self, nbytes: int) -> tuple[int, int]:
        """``(offset, size)`` of a free slot that holds ``nbytes``.

        For ``2**(b - 1) < nbytes <= 2**b`` the slot is ``nbytes`` rounded
        up to a multiple of ``2**(b - 3)``: four size classes per power of
        two, so a slot of 8 bytes or more wastes under a quarter of it.
        """
        nbytes = max(nbytes, 1)
        step = 1 << max((nbytes - 1).bit_length() - 3, 0)
        size = -(-nbytes // step) * step
        free = self._free.get(size)
        if free:
            offset = free.pop()
        else:
            offset = self._end
            self._end += size
        self._reserved += 1
        return offset, size

    def release(self, offset: int, size: int) -> None:
        """Return a slot; the last one out deletes the file."""
        self._reserved -= 1
        if self._reserved == 0:
            self.close()
        else:
            self._free.setdefault(size, []).append(offset)

    def write(self, offset: int, payload: np.ndarray) -> None:
        """Write all of ``payload`` at ``offset``, creating the file on first use."""
        if self._fd is None:
            self._fd = os.open(self.path, os.O_RDWR | os.O_CREAT | os.O_TRUNC, 0o600)
        written = os.pwrite(self._fd, payload, offset)
        if written != payload.nbytes:
            raise OSError(
                errno.EIO, f"short write: {written} of {payload.nbytes} bytes", self.path
            )

    def read_into(self, offset: int, out: np.ndarray) -> int:
        """Fill ``out`` from ``offset``; returns the bytes actually read."""
        return os.preadv(self._fd, [out], offset)

    def close(self) -> None:
        """Close and delete the file and forget every slot."""
        if self._fd is not None:
            os.close(self._fd)
            self._fd = None
            os.unlink(self.path)
        self._end = 0
        self._free.clear()
        self._reserved = 0


class StorageManager:
    """Capacity-enforcing, byte-counting mover between the three tiers."""

    def __init__(
        self,
        gpu_capacity: float,
        host_capacity: float,
        nvme_capacity: float,
        spill_dir: str | None = None,
        *,
        faults=None,
        sleep: Callable[[float], None] = time.sleep,
    ) -> None:
        # Jitter-free so injected fault scenarios replay bit-identically.
        self._backoff = BackoffPolicy(
            base_s=BACKOFF_S, factor=2.0, max_attempts=MAX_RETRIES + 1, jitter="none"
        )
        #: Optional :class:`repro.faults.FaultInjector` (duck-typed) whose
        #: ``on_read`` / ``on_write`` / ``maybe_corrupt`` hooks wrap spill I/O.
        self.faults = faults
        self._sleep = sleep
        self.tiers = {
            GPU: Tier(GPU, gpu_capacity),
            HOST: Tier(HOST, host_capacity),
            NVME: Tier(NVME, nvme_capacity),
        }
        self.moved_bytes: dict[tuple[str, str], float] = {link: 0.0 for link in LINKS}
        self._own_spill_dir = spill_dir is None
        self.spill_dir = spill_dir or tempfile.mkdtemp(prefix="ratel-nvme-")
        # Unique per manager, so managers sharing a spill_dir never collide.
        self._arena = _Arena(
            os.path.join(self.spill_dir, f"arena-{os.getpid()}-{id(self):x}.bin")
        )
        self._tensors: dict[str, StoredTensor] = {}

    # -- lifecycle ---------------------------------------------------------------

    def put(
        self, name: str, array: np.ndarray, tier: str, itemsize: int = 2
    ) -> StoredTensor:
        """Register a new tensor in ``tier`` (it is 'produced' there)."""
        self._check_tier(tier)
        if name in self._tensors:
            raise StorageError(f"tensor {name!r} already registered")
        array = np.ascontiguousarray(array, dtype=np.float32)
        tensor = StoredTensor(
            name=name,
            array=array,
            tier=tier,
            itemsize=itemsize,
            manager=self,
            nbytes=array.size * itemsize,
        )
        self.tiers[tier].allocate(tensor.nbytes)
        if tier == NVME:
            try:
                self._spill(tensor)
            except Exception:
                self.tiers[tier].free(tensor.nbytes)
                raise
        self._tensors[name] = tensor
        return tensor

    def drop(self, tensor: StoredTensor) -> None:
        """Discard a tensor entirely (e.g. a recomputable activation)."""
        self._check_live(tensor, "drop")
        self.tiers[tensor.tier].free(tensor.nbytes)
        self._release(tensor)
        del self._tensors[tensor.name]
        tensor.array = None

    def move(self, tensor: StoredTensor, dest: str) -> None:
        """Move a tensor between tiers, counting the traffic.

        A GPU<->NVMe move without GPUDirect bounces through the host, so
        both hops are counted (that is the consumer-GPU data path the
        paper targets).

        The actual I/O (load from / spill to disk) runs before the move
        is committed: a transfer that fails even after retries leaves the
        tensor, its accounting and the traffic counters in the source
        state, so the caller can handle the error and carry on.
        """
        self._check_live(tensor, "move")
        self._check_tier(dest)
        source = tensor.tier
        if source == dest:
            return
        path = _route(source, dest)
        with _spans.maybe_span(
            _spans.link_lane(source, dest), f"move:{tensor.name}", tensor.nbytes
        ):
            self.tiers[dest].allocate(tensor.nbytes)
            try:
                if source == NVME:
                    self._load(tensor)
                if dest == NVME:
                    self._spill(tensor)
            except Exception:
                self.tiers[dest].free(tensor.nbytes)
                raise
            self.tiers[source].free(tensor.nbytes)
        for hop in path:
            self.moved_bytes[hop] += tensor.nbytes
        tensor.tier = dest

    # -- introspection ---------------------------------------------------------------

    def traffic(self, source: str, dest: str) -> float:
        """Total bytes moved over one directed link so far."""
        return self.moved_bytes[(source, dest)]

    def names(self) -> list[str]:
        """Every registered tensor's name, in registration order."""
        return list(self._tensors)

    def get(self, name: str) -> StoredTensor:
        """Look up a registered tensor by name."""
        try:
            return self._tensors[name]
        except KeyError:
            raise StorageError(f"unknown tensor {name!r}") from None

    def close(self) -> None:
        """Delete the spill arena (and the temp directory the manager owns)."""
        self._arena.close()
        for tensor in self._tensors.values():
            tensor._slot = None
        if self._own_spill_dir and os.path.isdir(self.spill_dir):
            for entry in os.listdir(self.spill_dir):
                os.unlink(os.path.join(self.spill_dir, entry))
            os.rmdir(self.spill_dir)

    # -- internals ---------------------------------------------------------------------

    def _spill(self, tensor: StoredTensor) -> None:
        """Write the payload into an arena slot and drop it from memory.

        fp16 tensors are written at fp16 width: the round-trip precision
        loss is part of faithful mixed-precision behaviour.  The slot's
        offset, shape and CRC32 are recorded on the tensor only once the
        whole payload is written.  A torn write (a short or failed
        ``pwrite``) leaves nothing that a load could read: the retry
        rewrites the same slot in full, and if the retries run out the
        slot goes back to its free list and :class:`SpillError` is
        raised.
        """
        disk_dtype = np.float16 if tensor.itemsize == 2 else np.float32
        payload = np.ascontiguousarray(tensor.array, dtype=disk_dtype)
        arena = self._arena
        offset, size = arena.reserve(payload.nbytes)

        def attempt() -> None:
            if self.faults is not None:
                self.faults.on_write(arena.path)
            arena.write(offset, payload)

        try:
            with _spans.maybe_span(_spans.RT_SSD, f"spill:{tensor.name}", tensor.nbytes):
                retry_call(
                    attempt,
                    policy=self._backoff,
                    what=f"spill of {tensor.name!r}",
                    sleep=self._sleep,
                )
        except OSError as exc:
            arena.release(offset, size)
            raise SpillError(
                f"spilling tensor {tensor.name!r} to {arena.path!r} failed after "
                f"{MAX_RETRIES + 1} attempt(s): {exc}"
            ) from exc
        if self.faults is not None:
            self.faults.maybe_corrupt(arena.path, offset + payload.nbytes)
        tensor._slot = _Slot(offset, size, payload.shape, zlib.crc32(payload))
        tensor.array = None

    def _load(self, tensor: StoredTensor) -> None:
        """Read a spilled payload back into memory, verifying its checksum.

        The tensor is restored at its *storage* width (fp16 stays fp16),
        so resident bytes match the accounted ``nbytes``.  Transient
        ``OSError`` is retried; a short read or a CRC32 mismatch is
        corruption — deterministic, so it fails immediately with
        :class:`SpillCorruptionError`.  A verified load frees the slot.
        """
        slot = tensor._slot
        if slot is None:
            raise StorageError(f"tensor {tensor.name!r} has no spilled payload")
        arena = self._arena
        out = np.empty(slot.shape, np.float16 if tensor.itemsize == 2 else np.float32)

        def attempt() -> int:
            if self.faults is not None:
                self.faults.on_read(arena.path)
            return arena.read_into(slot.offset, out)

        try:
            with _spans.maybe_span(_spans.RT_SSD, f"load:{tensor.name}", tensor.nbytes):
                read = retry_call(
                    attempt,
                    policy=self._backoff,
                    what=f"load of {tensor.name!r}",
                    sleep=self._sleep,
                )
        except OSError as exc:
            raise SpillError(
                f"loading tensor {tensor.name!r} from {arena.path!r} failed after "
                f"{MAX_RETRIES + 1} attempt(s): {exc}"
            ) from exc
        if read != out.nbytes:
            raise SpillCorruptionError(
                f"spill slot of tensor {tensor.name!r} at offset {slot.offset} in "
                f"{arena.path!r} is short: read {read} of {out.nbytes} bytes"
            )
        if zlib.crc32(out) != slot.crc:
            raise SpillCorruptionError(
                f"spill slot of tensor {tensor.name!r} at offset {slot.offset} in "
                f"{arena.path!r} failed its CRC32 check: the payload changed on "
                "disk since it was written"
            )
        tensor.array = out
        self._release(tensor)

    def _release(self, tensor: StoredTensor) -> None:
        if tensor._slot is not None:
            self._arena.release(tensor._slot.offset, tensor._slot.size)
            tensor._slot = None

    def _check_live(self, tensor: StoredTensor, verb: str) -> None:
        if self._tensors.get(tensor.name) is not tensor:
            raise StorageError(
                f"cannot {verb} tensor {tensor.name!r}: it was dropped "
                "(or belongs to another manager)"
            )

    def _check_tier(self, tier: str) -> None:
        if tier not in self.tiers:
            raise StorageError(f"unknown tier {tier!r}; choose from {TIERS}")


def _route(source: str, dest: str) -> tuple[tuple[str, str], ...]:
    """Hops a transfer takes (GPU<->NVMe bounces through the host)."""
    if (source, dest) in LINKS:
        return ((source, dest),)
    if source == GPU and dest == NVME:
        return ((GPU, HOST), (HOST, NVME))
    if source == NVME and dest == GPU:
        return ((NVME, HOST), (HOST, GPU))
    raise StorageError(f"no route from {source!r} to {dest!r}")
