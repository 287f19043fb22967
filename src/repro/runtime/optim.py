"""Optimizers: reference Adam and the out-of-core CPU Adam.

:class:`Adam` is the textbook in-memory implementation (what a GPU
optimizer does).  :class:`CPUAdam` is the mixed-precision out-of-core
version the paper's systems run on the host: fp32 master parameters and
moments (P32 + OS32) live in the storage hierarchy (host or NVMe tier),
fp16 gradients arrive from the "GPU", and each step produces a fresh
fp16 parameter copy (P16) for the next iteration's compute.

``CPUAdam.step_param`` updates a *single* parameter tensor — the unit
Ratel's active gradient offloading calls the moment that parameter's
gradient lands in main memory (§IV-C).  Updates are synchronous: the
parameter's fp16 copy is refreshed before any later iteration reads it,
so there is no staleness (verified by the equivalence tests).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from repro.obs import spans as _spans

from . import storage as st
from .tensor import Tensor


class OptimizerError(RuntimeError):
    """Raised for invalid optimizer usage (missing grad, unknown param)."""


class StalenessError(OptimizerError):
    """Raised when a gradient would be applied beyond its staleness bound."""


@dataclass
class PendingGradient:
    """One stashed gradient awaiting its (possibly deferred) update.

    ``payload`` is whatever the runtime stashed — a raw ndarray or a
    :class:`~repro.runtime.storage.StoredTensor` handle parked host-side
    (so the byte counters see the pending-gradient residency the sim's
    memory model charges for).
    """

    name: str
    payload: object
    produced_step: int
    importance: float = field(default=0.0)


def gradient_importance(grad: np.ndarray) -> float:
    """ZenFlow's importance proxy: mean absolute gradient magnitude."""
    if grad.size == 0:
        return 0.0
    return float(np.mean(np.abs(grad)))


class BoundedStalenessQueue:
    """ZenFlow-style pending-gradient queue with a hard staleness bound.

    Gradients are :meth:`push`-ed as backward produces them; at each
    step's epilogue :meth:`collect` returns the ones that must apply now:

    * every gradient whose deferral would exceed ``stale_k`` steps (with
      ``stale_k=0`` that is *all* of this step's gradients — the
      bit-identical-to-synchronous configuration);
    * the importance-prioritized top ``critical_frac`` of this step's
      fresh gradients (ZenFlow's critical set), applied eagerly so the
      loss-relevant directions never go stale.

    Returned batches are importance-descending across names but FIFO
    within a name, so each parameter's Adam state sees its gradients in
    production order.  Nothing is ever dropped: the union of every
    ``collect`` plus a final ``flush`` is a permutation of the pushes.
    """

    def __init__(self, stale_k: int = 0, critical_frac: float = 0.0) -> None:
        if stale_k < 0:
            raise OptimizerError(f"stale_k must be >= 0, got {stale_k}")
        if not 0 <= critical_frac < 1:
            raise OptimizerError(
                f"critical_frac must be in [0, 1), got {critical_frac}"
            )
        self.stale_k = stale_k
        self.critical_frac = critical_frac
        self._pending: list[PendingGradient] = []

    def __len__(self) -> int:
        return len(self._pending)

    @property
    def pending(self) -> tuple[PendingGradient, ...]:
        """The queued gradients, oldest first (read-only view)."""
        return tuple(self._pending)

    def push(
        self, name: str, payload: object, step: int, importance: float
    ) -> PendingGradient:
        """Queue one gradient produced at ``step``."""
        item = PendingGradient(name, payload, step, importance)
        self._pending.append(item)
        return item

    def collect(self, step: int) -> list[PendingGradient]:
        """Gradients that must apply at the end of ``step`` (see class doc)."""
        forced = [
            item
            for item in self._pending
            if step - item.produced_step >= self.stale_k
        ]
        if self.critical_frac > 0:
            chosen = set(map(id, forced))
            fresh = [
                item
                for item in self._pending
                if item.produced_step == step and id(item) not in chosen
            ]
            n_critical = math.ceil(len(fresh) * self.critical_frac)
            fresh.sort(key=lambda item: -item.importance)
            forced += fresh[:n_critical]
        # FIFO closure: applying a parameter's newer gradient while an
        # older one still waits would feed its Adam state out of order —
        # a selected name drags every older pending gradient with it.
        latest = {}
        for item in forced:
            latest[item.name] = max(latest.get(item.name, 0), item.produced_step)
        chosen = set(map(id, forced))
        forced += [
            item
            for item in self._pending
            if id(item) not in chosen
            and item.produced_step < latest.get(item.name, 0)
        ]
        selected = set(map(id, forced))
        self._pending = [
            item for item in self._pending if id(item) not in selected
        ]
        return self._order(forced)

    def flush(self) -> list[PendingGradient]:
        """Drain everything still pending (end of training)."""
        items, self._pending = self._pending, []
        return self._order(items)

    @staticmethod
    def _order(items: list[PendingGradient]) -> list[PendingGradient]:
        """Importance-descending across names, production order within one."""
        ranked = sorted(items, key=lambda item: -item.importance)
        by_name: dict[str, list[PendingGradient]] = {}
        for item in sorted(ranked, key=lambda item: item.produced_step):
            by_name.setdefault(item.name, []).append(item)
        return [by_name[item.name].pop(0) for item in ranked]


class Adam:
    """Standard Adam/AdamW over a list of (name, tensor) parameters.

    ``weight_decay`` applies decoupled (AdamW-style) decay — the standard
    choice for transformer fine-tuning.
    """

    def __init__(
        self,
        params: list[tuple[str, Tensor]],
        lr: float = 1e-3,
        betas: tuple[float, float] = (0.9, 0.999),
        eps: float = 1e-8,
        weight_decay: float = 0.0,
    ) -> None:
        if weight_decay < 0:
            raise OptimizerError("weight decay cannot be negative")
        self.params = list(params)
        self.lr = lr
        self.beta1, self.beta2 = betas
        self.eps = eps
        self.weight_decay = weight_decay
        self.step_count = 0
        self._m = {name: np.zeros_like(p.data) for name, p in self.params}
        self._v = {name: np.zeros_like(p.data) for name, p in self.params}

    def step(self) -> None:
        """One update over every parameter (requires populated grads)."""
        self.step_count += 1
        for name, param in self.params:
            if param.grad is None:
                raise OptimizerError(f"parameter {name!r} has no gradient")
            self._update(name, param.data, param.grad)

    def _update(self, name: str, data: np.ndarray, grad: np.ndarray) -> None:
        # Compute in the parameter's dtype regardless of the gradient's:
        # a float16 grad would otherwise evaluate (1-beta1)*grad at half
        # precision, drifting from CPUAdam (which upcasts first) and from
        # the NumPy reference the unit tests pin.
        grad = grad.astype(data.dtype, copy=False)
        m = self._m[name]
        v = self._v[name]
        m *= self.beta1
        m += (1 - self.beta1) * grad
        v *= self.beta2
        v += (1 - self.beta2) * grad**2
        m_hat = m / (1 - self.beta1**self.step_count)
        v_hat = v / (1 - self.beta2**self.step_count)
        if self.weight_decay:
            data -= self.lr * self.weight_decay * data
        data -= self.lr * m_hat / (np.sqrt(v_hat) + self.eps)

    def zero_grad(self) -> None:
        """Clear every parameter gradient."""
        for _name, param in self.params:
            param.zero_grad()


class LRSchedule:
    """Linear warmup followed by cosine decay — the GPT fine-tuning default.

    Call :meth:`at` for the learning rate of a given step, or
    :meth:`apply` to install it on an optimizer before its step.
    """

    def __init__(
        self,
        base_lr: float,
        warmup_steps: int,
        total_steps: int,
        min_lr: float = 0.0,
    ) -> None:
        if base_lr <= 0:
            raise OptimizerError("base learning rate must be positive")
        if warmup_steps < 0 or total_steps <= 0 or warmup_steps > total_steps:
            raise OptimizerError("need 0 <= warmup_steps <= total_steps, total > 0")
        if not 0 <= min_lr <= base_lr:
            raise OptimizerError("need 0 <= min_lr <= base_lr")
        self.base_lr = base_lr
        self.warmup_steps = warmup_steps
        self.total_steps = total_steps
        self.min_lr = min_lr

    def at(self, step: int) -> float:
        """Learning rate for 1-indexed ``step``."""
        if step < 1:
            raise OptimizerError("steps are 1-indexed")
        if self.warmup_steps and step <= self.warmup_steps:
            return self.base_lr * step / self.warmup_steps
        if step >= self.total_steps:
            return self.min_lr
        span = self.total_steps - self.warmup_steps
        progress = (step - self.warmup_steps) / span
        cosine = 0.5 * (1 + np.cos(np.pi * progress))
        return self.min_lr + (self.base_lr - self.min_lr) * cosine

    def apply(self, optimizer, step: int) -> float:
        """Set ``optimizer.lr`` for this step; returns the rate used."""
        rate = self.at(step)
        optimizer.lr = rate
        return rate


def clip_gradients(params: list[tuple[str, Tensor]], max_norm: float) -> float:
    """Global-norm gradient clipping; returns the pre-clip norm.

    Note the systems tension the paper does not discuss: global-norm
    clipping needs *every* gradient before *any* parameter updates, so it
    is incompatible with active gradient offloading (which consumes each
    gradient the moment it lands).  The runtime therefore supports it
    only in deferred-optimizer mode — see
    :meth:`repro.runtime.offload.RatelRuntime.train_step_clipped`.
    """
    if max_norm <= 0:
        raise OptimizerError("max_norm must be positive")
    total = 0.0
    for name, param in params:
        if param.grad is None:
            raise OptimizerError(f"parameter {name!r} has no gradient to clip")
        total += float((param.grad.astype(np.float64) ** 2).sum())
    norm = float(np.sqrt(total))
    if norm > max_norm:
        scale = max_norm / (norm + 1e-12)
        for _name, param in params:
            param.grad *= scale
    return norm


class CPUAdam:
    """Out-of-core mixed-precision Adam over a storage hierarchy.

    For each parameter ``name`` the optimizer owns two stored records:

    * ``{name}.states`` — the fp32 master weights and both Adam moments
      (P32 + OS32, 12 bytes/param) as one ``(3, *shape)`` array, so they
      move, spill and checksum as one unit, as Ratel's out-of-core Adam
      moves them (§IV-C);
    * ``{name}.p16`` — the fp16 compute copy the model reads.

    ``states_tier`` is where both rest between steps (``nvme`` for
    Ratel/ZeRO-Infinity, ``host`` for ZeRO-Offload); each ``step_param``
    moves them to the host, updates, and moves them back — every byte of
    which the :class:`~repro.runtime.storage.StorageManager` counts.
    This class alone names the records: checkpoints go through
    :meth:`read_states` and :meth:`install_states`.
    """

    def __init__(
        self,
        params: list[tuple[str, Tensor]],
        manager: st.StorageManager,
        lr: float = 1e-3,
        betas: tuple[float, float] = (0.9, 0.999),
        eps: float = 1e-8,
        states_tier: str = st.NVME,
        weight_decay: float = 0.0,
    ) -> None:
        if states_tier not in (st.NVME, st.HOST):
            raise OptimizerError("states_tier must be 'nvme' or 'host'")
        if weight_decay < 0:
            raise OptimizerError("weight decay cannot be negative")
        self.manager = manager
        self.lr = lr
        self.beta1, self.beta2 = betas
        self.eps = eps
        self.weight_decay = weight_decay
        self.states_tier = states_tier
        self.step_counts: dict[str, int] = {}
        self.params = dict(params)
        for name, param in params:
            moments = np.zeros_like(param.data)
            states = np.stack([param.data, moments, moments])
            p16 = param.data.astype(np.float16).astype(np.float32)
            for stored in (
                manager.put(f"{name}.states", states, st.HOST, itemsize=4),
                manager.put(f"{name}.p16", p16, st.HOST, itemsize=2),
            ):
                manager.move(stored, states_tier)
            self.step_counts[name] = 0
            # The model computes on the fp16 copy from step zero,
            # exactly like mixed-precision PyTorch training.
            param.data = p16.copy()

    def step_param(self, name: str, grad_fp16: np.ndarray) -> np.ndarray:
        """Consume one parameter's gradient: fetch states, update, write back.

        Returns the refreshed fp16 copy (already stored); the caller
        installs it into the model parameter for the next iteration.
        This is the §IV-C user-level handler.
        """
        if name not in self.params:
            raise OptimizerError(f"unknown parameter {name!r}")
        self.step_counts[name] += 1
        step = self.step_counts[name]
        with _spans.maybe_span(
            _spans.RT_CPU_ADAM, f"adam:{name}", float(grad_fp16.size)
        ):
            return self._step_param(name, step, grad_fp16)

    def _step_param(self, name: str, step: int, grad_fp16: np.ndarray) -> np.ndarray:
        states = self.manager.get(f"{name}.states")
        p16 = self.manager.get(f"{name}.p16")
        # SSD -> main: bring the states to the CPU.
        self.manager.move(states, st.HOST)

        grad = grad_fp16.astype(np.float32)
        # Views of the record's rows: the in-place updates below write it.
        weights, m, v = states.data()
        m *= self.beta1
        m += (1 - self.beta1) * grad
        v *= self.beta2
        v += (1 - self.beta2) * grad**2
        m_hat = m / (1 - self.beta1**step)
        v_hat = v / (1 - self.beta2**step)
        if self.weight_decay:
            weights -= self.lr * self.weight_decay * weights
        weights -= self.lr * m_hat / (np.sqrt(v_hat) + self.eps)

        fresh_p16 = weights.astype(np.float16).astype(np.float32)
        self.manager.move(p16, st.HOST)
        p16.array = fresh_p16.copy()
        # Main -> SSD: updated states and the new fp16 copy go back.
        for stored in (states, p16):
            self.manager.move(stored, self.states_tier)
        return fresh_p16

    def read_states(self, name: str) -> np.ndarray:
        """Copies of a parameter's P32, M32 and V32, stacked on axis 0."""
        stored = self.manager.get(f"{name}.states")
        self.manager.move(stored, st.HOST)
        value = stored.data().copy()
        self.manager.move(stored, self.states_tier)
        return value

    def master_weights(self, name: str) -> np.ndarray:
        """Read a parameter's fp32 master copy (for verification)."""
        return self.read_states(name)[0]

    def install_states(
        self, name: str, p32: np.ndarray, m32: np.ndarray, v32: np.ndarray
    ) -> np.ndarray:
        """Overwrite a parameter's states (a checkpoint restore).

        The fp16 copy is rederived from ``p32`` and stored too; it is
        returned for the caller to install into the model.
        """
        fresh_p16 = p32.astype(np.float16).astype(np.float32)
        for suffix, value in (("states", np.stack([p32, m32, v32])), ("p16", fresh_p16)):
            stored = self.manager.get(f"{name}.{suffix}")
            self.manager.move(stored, st.HOST)
            stored.array = np.ascontiguousarray(value, dtype=np.float32)
            self.manager.move(stored, self.states_tier)
        return fresh_p16
