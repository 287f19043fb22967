"""Save and resume offloaded training state.

A fine-tune that takes days must survive restarts.  A checkpoint needs
the *optimizer-side* truth — the fp32 master parameters and Adam moments
(which live in the storage hierarchy, possibly spilled to NVMe) plus the
step counts — because the model's fp16 copies are derived state.
``save_checkpoint``/``load_checkpoint`` round-trip all of it through a
single ``.npz`` file, and loading reinstalls the fp16 copies into the
model, so training resumes bit-exactly (asserted in the tests).  The
file keeps one set of keys per parameter (``{name}::p32``, ``::m32``,
``::v32`` and ``::count``, its group's count) whatever the optimizer's
grouping, while a save or load moves each group's record once each way.

Robustness: saves are atomic (temp file + ``os.replace``, so a crash
mid-save leaves the previous checkpoint intact, never a truncated one);
loads validate the *entire* checkpoint — readability, version, parameter
set, every shape — before touching any optimizer state, so a bad file
raises :class:`CheckpointError` and leaves training state unmodified.
:class:`PeriodicCheckpointer` packages the save policy as a step hook
for :meth:`repro.runtime.offload.RatelRuntime.add_step_hook`.
"""

from __future__ import annotations

import contextlib
import glob
import os
import re
import zipfile

import numpy as np

from .modules import Module
from .optim import CPUAdam


class CheckpointError(RuntimeError):
    """Raised for incompatible or corrupt checkpoints."""

FORMAT_VERSION = 1


def checkpoint_path(path: str) -> str:
    """The on-disk name for ``path`` (numpy always appends ``.npz``)."""
    return path if path.endswith(".npz") else path + ".npz"


_STEP_SUFFIX_RE = re.compile(r"\.step(\d{8})\.npz$")


def checkpoint_step_path(path: str, step: int) -> str:
    """The step-stamped on-disk name retention mode writes:
    ``<base>.step<NNNNNNNN>.npz`` (zero-padded so names sort by step)."""
    base = path[: -len(".npz")] if path.endswith(".npz") else path
    return f"{base}.step{step:08d}.npz"


def list_checkpoints(path: str) -> list[tuple[int, str]]:
    """Every step-stamped checkpoint for ``path``, oldest first."""
    base = path[: -len(".npz")] if path.endswith(".npz") else path
    found: list[tuple[int, str]] = []
    for candidate in glob.glob(glob.escape(base) + ".step*.npz"):
        match = _STEP_SUFFIX_RE.search(candidate)
        if match:
            found.append((int(match.group(1)), candidate))
    return sorted(found)


def latest_checkpoint(path: str) -> str | None:
    """The newest checkpoint written under ``path``, in either layout.

    Prefers the highest step-stamped file (retention mode); falls back
    to the single overwritten file (legacy mode); ``None`` when nothing
    has been saved yet.
    """
    stamped = list_checkpoints(path)
    if stamped:
        return stamped[-1][1]
    single = checkpoint_path(path)
    return single if os.path.exists(single) else None


def save_checkpoint(path: str, optimizer: CPUAdam, step: int = 0) -> str:
    """Write the optimizer's full state (P32, moments, counts) to ``path``.

    The write is atomic: the payload goes to a temp file in the same
    directory and is renamed over the final name only once complete, so
    an interrupted save can never leave a torn checkpoint behind.
    Returns the final on-disk path (``.npz`` appended if absent).
    """
    payload: dict[str, np.ndarray] = {
        "__version__": np.array([FORMAT_VERSION]),
        "__step__": np.array([step]),
    }
    records: dict[str, np.ndarray] = {}
    for name in optimizer.params:
        group = optimizer.group_of(name)
        if group not in records:
            records[group] = optimizer.read_group(group)
        p32, m32, v32 = optimizer.view(name, records[group])
        payload[f"{name}::p32"] = p32
        payload[f"{name}::m32"] = m32
        payload[f"{name}::v32"] = v32
        payload[f"{name}::count"] = np.array([optimizer.step_counts[group]])
    final = checkpoint_path(path)
    tmp = final + ".tmp"
    try:
        with open(tmp, "wb") as handle:
            np.savez(handle, **payload)
        os.replace(tmp, final)
    finally:
        if os.path.exists(tmp):
            os.unlink(tmp)
    return final


def load_checkpoint(path: str, model: Module, optimizer: CPUAdam) -> int:
    """Restore optimizer state and the model's fp16 copies; returns the step.

    The whole checkpoint is validated *before* any state is written:
    unreadable/truncated files, unsupported versions, parameter-set
    mismatches and shape mismatches all raise :class:`CheckpointError`
    while the model and optimizer are still untouched, so a failed
    restore never leaves half-installed state.
    """
    # The handle is ours, not np.load's: np.load leaks the file it opened
    # when the zip directory of a truncated checkpoint fails to parse.
    with contextlib.ExitStack() as stack:
        try:
            handle = stack.enter_context(open(path, "rb"))
            archive = stack.enter_context(np.load(handle))
        except FileNotFoundError:
            raise CheckpointError(f"checkpoint {path!r} does not exist") from None
        except (OSError, ValueError, zipfile.BadZipFile) as exc:
            raise CheckpointError(
                f"checkpoint {path!r} is unreadable (truncated or corrupt "
                f"download/copy?): {exc}"
            ) from exc
        try:
            staged = {key: archive[key] for key in archive.files}
        except (OSError, ValueError, zipfile.BadZipFile, KeyError) as exc:
            raise CheckpointError(
                f"checkpoint {path!r} is damaged: member could not be read "
                f"({exc}); re-save or fall back to an older checkpoint"
            ) from exc

    if "__version__" not in staged:
        raise CheckpointError(
            f"checkpoint {path!r} has no version marker; it was not written "
            "by save_checkpoint"
        )
    version = int(staged["__version__"][0])
    if version != FORMAT_VERSION:
        raise CheckpointError(
            f"unsupported checkpoint version {version} in {path!r} "
            f"(this build reads version {FORMAT_VERSION}); re-save the "
            "checkpoint with a matching build"
        )

    params = dict(model.named_parameters())
    expected = set(params)
    found = {key.split("::")[0] for key in staged if "::" in key}
    if found != expected:
        raise CheckpointError(
            f"checkpoint parameters do not match the model: "
            f"missing {sorted(expected - found)}, extra {sorted(found - expected)}"
        )
    for name, param in params.items():
        for suffix in ("p32", "m32", "v32", "count"):
            if f"{name}::{suffix}" not in staged:
                raise CheckpointError(
                    f"checkpoint {path!r} is missing {name}::{suffix}"
                )
        for suffix in ("p32", "m32", "v32"):
            shape = staged[f"{name}::{suffix}"].shape
            if shape != param.data.shape:
                raise CheckpointError(
                    f"shape mismatch for parameter {name!r}: checkpoint has "
                    f"{shape}, model expects {param.data.shape} — the "
                    "checkpoint belongs to a different model configuration"
                )

    if set(optimizer.params) != expected:
        raise CheckpointError(
            "the optimizer does not hold exactly the model's parameters; "
            "build it over model.named_parameters()"
        )
    counts: dict[str, int] = {}
    for group, members in optimizer.groups.items():
        found_counts = {int(staged[f"{name}::count"][0]) for name in members}
        if len(found_counts) > 1:
            raise CheckpointError(
                f"checkpoint {path!r} holds different step counts "
                f"{sorted(found_counts)} for the parameters of group {group!r}, "
                "which update together"
            )
        (counts[group],) = found_counts

    # Everything validated; install state (no failure paths past here).
    for group, members in optimizer.groups.items():
        states = np.empty((3, optimizer.group_size(group)), dtype=np.float32)
        for name in members:
            optimizer.view(name, states)[...] = np.stack(
                [staged[f"{name}::{suffix}"] for suffix in ("p32", "m32", "v32")]
            )
        fresh_p16 = optimizer.install_group(group, states)
        for name in members:
            params[name].data = optimizer.view(name, fresh_p16).copy()
        optimizer.step_counts[group] = counts[group]
    return int(staged["__step__"][0])


class PeriodicCheckpointer:
    """A step hook that checkpoints every ``every_n_steps`` steps.

    Register it on the training loop::

        ckpt = PeriodicCheckpointer("run/ckpt", optimizer, every_n_steps=50)
        runtime.add_step_hook(ckpt)

    Each save is atomic, so after a crash the newest complete checkpoint
    is always loadable and training replays at most
    ``every_n_steps - 1`` steps.

    ``keep_last=None`` (the default) overwrites a single file in place.
    ``keep_last=N`` switches to step-stamped files
    (:func:`checkpoint_step_path`) and garbage-collects down to the
    newest ``N``.  The order is crash-safe: the new checkpoint is fully
    written (atomic rename) *before* any old one is deleted, and GC
    removes oldest-first — an interruption at any point leaves the
    newest valid checkpoint on disk, discoverable via
    :func:`latest_checkpoint`.
    """

    def __init__(
        self,
        path: str,
        optimizer: CPUAdam,
        every_n_steps: int = 1,
        *,
        keep_last: int | None = None,
    ) -> None:
        if every_n_steps < 1:
            raise ValueError(f"every_n_steps must be >= 1, got {every_n_steps}")
        if keep_last is not None and keep_last < 1:
            raise ValueError(f"keep_last must be >= 1 when set, got {keep_last}")
        self.path = path
        self.optimizer = optimizer
        self.every_n_steps = every_n_steps
        self.keep_last = keep_last
        #: Steps completed since the checkpointer was installed.
        self.step = 0
        #: Step numbers at which a checkpoint was actually written.
        self.saved_steps: list[int] = []

    def __call__(self, runtime=None) -> None:
        """Count one finished step; save when the cadence comes due."""
        self.step += 1
        if self.step % self.every_n_steps == 0:
            if self.keep_last is None:
                save_checkpoint(self.path, self.optimizer, step=self.step)
            else:
                save_checkpoint(
                    checkpoint_step_path(self.path, self.step),
                    self.optimizer,
                    step=self.step,
                )
                self._gc()
            self.saved_steps.append(self.step)

    def _gc(self) -> None:
        # The new checkpoint is already durable; now trim, oldest first.
        stamped = list_checkpoints(self.path)
        excess = len(stamped) - (self.keep_last or 0)
        for _, stale in stamped[:excess]:
            try:
                os.unlink(stale)
            except OSError:
                pass  # a racing cleanup is fine; never fail the step hook
