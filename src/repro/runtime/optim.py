"""Optimizers: reference Adam and the out-of-core CPU Adam.

:class:`Adam` is the textbook in-memory implementation (what a GPU
optimizer does).  :class:`CPUAdam` is the mixed-precision out-of-core
version the paper's systems run on the host: fp32 master parameters and
moments (P32 + OS32) live in the storage hierarchy (host or NVMe tier),
fp16 gradients arrive from the "GPU", and each step produces a fresh
fp16 parameter copy (P16) for the next iteration's compute.

``CPUAdam.step_param`` updates one *group* of parameters — a
transformer block's, in the runtime — the unit Ratel's active gradient
offloading calls the moment the group's last gradient lands in main
memory (§IV-C).  Updates are synchronous: the group's fp16 copies are
refreshed before any later iteration reads them, so there is no
staleness (verified by the equivalence tests).
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


class Fp16RangeError(OptimizerError):
    """Raised when a value bound for fp16 is NaN or would overflow to infinity."""


#: fp16's smallest normal and the smallest magnitude it rounds to infinity.
_FP16_MIN_NORMAL = 2.0**-14
_FP16_OVERFLOW = 65520.0
#: Veltkamp's splitting constant 2**13 + 1: a float32 (24 significant
#: bits) split by it keeps 24 - 13 = 11 bits, fp16's significand.
_SPLIT = np.float32(2**13 + 1)


def round_fp16(x: np.ndarray, what: str, out: np.ndarray | None = None) -> np.ndarray:
    """``x.astype(float16).astype(float32)``, bit for bit, in float32 arithmetic.

    The runtime's one fp16 rounding: gradients on their way to the CPU
    Adam (G16) and every fp16 compute copy of the weights (P16) go
    through it, and the result stays float32 on the fp16 grid.  On a
    2-vCPU x86-64 host, NumPy 2.4's float32 -> float16 cast takes ~1.6
    ns per element, but ~54 ns for each result that is an inexact fp16
    subnormal, and the cast back another ~1.1 ns; over 23 steps of
    perfbench's ``train_step``, 8.1% of the gradient elements are such.

    Here a value with |x| >= 2**-14 is split as Veltkamp does, ``hi =
    x*c + (x - x*c)`` with ``c = 2**13 + 1``, which rounds it to its
    leading 11 bits, to nearest with ties to even; a value below 2**-14
    snaps to fp16's subnormal grid as ``rint(x * 2**24) * 2**-24``,
    exact in float32.  The result equals NumPy's cast for every float32
    below 65520 (``benchmarks/fp16_sweep.py`` checks all 2**32 bit
    patterns; the tests check the edge cases and a million random
    ones).  NaN, or |x| >= 65520, raises :class:`Fp16RangeError` naming
    ``what`` and the largest magnitude, before anything is written.
    The result goes to ``out`` (a float32 array of ``x``'s shape; ``x``
    itself rounds in place) or, by default, to a new array.
    """
    x = np.ascontiguousarray(x, dtype=np.float32)
    magnitude = np.abs(x)
    top = magnitude.max(initial=0.0)
    if not top < _FP16_OVERFLOW:
        raise Fp16RangeError(
            f"{what} does not fit fp16: largest magnitude {top:g} "
            "(fp16 holds no NaN and overflows at 65520)"
        )
    small = np.flatnonzero(magnitude < _FP16_MIN_NORMAL)
    subnormal = np.rint(x.take(small) * 2.0**24) * 2.0**-24
    split = np.multiply(x, _SPLIT, out=magnitude)
    out = np.subtract(x, split, out=out)
    out += split
    np.put(out, small, subnormal)
    return out


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

    Parameters update in *groups*.  ``groups`` lists ``(group name,
    member names)`` pairs; left out, every parameter is a group of one.
    The runtime makes each transformer block's parameters one group and
    the parameters outside every block one more, so a step moves a
    block's states once, as Ratel's out-of-core Adam does (§IV-C).  For
    each group the optimizer owns two stored records, its members
    flattened and concatenated in member order:

    * ``{group}.states`` — the fp32 master weights and both Adam moments
      (P32 + OS32, 12 bytes/param) as one ``(3, n)`` array, so they
      move, spill and checksum as one unit;
    * ``{group}.p16`` — the fp16 compute copy the model reads, ``(n,)``.

    ``states_tier`` is where both rest between steps (``nvme`` for
    Ratel/ZeRO-Infinity, ``host`` for ZeRO-Offload); each ``step_param``
    moves them to the host, updates, and moves them back — every byte of
    which the :class:`~repro.runtime.storage.StorageManager` counts.
    Adam is elementwise, so a group's update leaves every weight and
    moment bit-identical to updating its members one by one.  This class
    alone names the records: checkpoints go through :meth:`read_group`
    and :meth:`install_group`, and :meth:`read_states` and
    :meth:`install_states` give one parameter's share.
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
        groups: list[tuple[str, tuple[str, ...]]] | None = None,
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
        self.params = dict(params)
        if groups is None:
            groups = [(name, (name,)) for name in self.params]
        #: group name -> member parameter names, in flat order.
        self.groups: dict[str, tuple[str, ...]] = {}
        #: group name -> updates applied (a member's count is its group's).
        self.step_counts: dict[str, int] = {}
        self._group_of: dict[str, str] = {}
        #: parameter name -> (start, stop, shape) in its group's flat arrays.
        self._layout: dict[str, tuple[int, int, tuple[int, ...]]] = {}
        for group, members in groups:
            self._add_group(group, tuple(members))
        ungrouped = [name for name in self.params if name not in self._group_of]
        if ungrouped:
            raise OptimizerError(f"parameters in no group: {ungrouped}")

    def _add_group(self, group: str, members: tuple[str, ...]) -> None:
        if group in self.groups:
            raise OptimizerError(f"duplicate parameter group {group!r}")
        if not members:
            raise OptimizerError(f"parameter group {group!r} is empty")
        start = 0
        for name in members:
            if name not in self.params:
                raise OptimizerError(f"group {group!r} names unknown parameter {name!r}")
            if name in self._group_of:
                raise OptimizerError(
                    f"parameter {name!r} is in groups {self._group_of[name]!r} and {group!r}"
                )
            data = self.params[name].data
            stop = start + data.size
            self._layout[name] = (start, stop, data.shape)
            self._group_of[name] = group
            start = stop
        self.groups[group] = members
        weights = np.concatenate([self.params[name].data.reshape(-1) for name in members])
        moments = np.zeros_like(weights)
        p16 = round_fp16(weights, f"weights of group {group!r}")
        for stored in (
            self.manager.put(
                f"{group}.states", np.stack([weights, moments, moments]), st.HOST, itemsize=4
            ),
            self.manager.put(f"{group}.p16", p16, st.HOST, itemsize=2),
        ):
            self.manager.move(stored, self.states_tier)
        self.step_counts[group] = 0
        # The model computes on the fp16 copy from step zero,
        # exactly like mixed-precision PyTorch training.
        for name in members:
            self.params[name].data = self.view(name, p16).copy()

    def group_of(self, name: str) -> str:
        """The group parameter ``name`` updates with."""
        try:
            return self._group_of[name]
        except KeyError:
            raise OptimizerError(f"unknown parameter {name!r}") from None

    def group_size(self, group: str) -> int:
        """Elements in ``group``'s flat arrays."""
        return self._layout[self.groups[group][-1]][1]

    def view(self, name: str, flat: np.ndarray) -> np.ndarray:
        """Parameter ``name``'s part of an array laid out like its group.

        ``flat`` ends in the group's flat axis (a gradient or P16 of
        shape ``(n,)``, a state record of shape ``(3, n)``); the view has
        the parameter's shape on that axis.
        """
        start, stop, shape = self._layout[name]
        return flat[..., start:stop].reshape(flat.shape[:-1] + shape)

    def step_param(self, name: str, grad_fp16: np.ndarray) -> np.ndarray:
        """Consume one group's gradient: fetch states, update, write back.

        ``name`` is a group (for a parameter that is its own group, the
        parameter) and ``grad_fp16`` holds the group's gradient in its
        flat order, in any shape with that many elements.  Returns the
        refreshed fp16 copy (already stored) in the gradient's shape;
        the caller installs each member's :meth:`view` of it into the
        model for the next iteration.  This is the §IV-C user-level
        handler.
        """
        if name not in self.groups:
            raise OptimizerError(f"unknown parameter group {name!r}")
        if grad_fp16.size != self.group_size(name):
            raise OptimizerError(
                f"group {name!r} has {self.group_size(name)} elements, "
                f"its gradient {grad_fp16.size}"
            )
        self.step_counts[name] += 1
        step = self.step_counts[name]
        with _spans.maybe_span(
            _spans.RT_CPU_ADAM, f"adam:{name}", float(grad_fp16.size)
        ):
            fresh_p16 = self._step_group(name, step, grad_fp16.reshape(-1))
        return fresh_p16.reshape(grad_fp16.shape)

    def _step_group(self, group: str, step: int, grad_fp16: np.ndarray) -> np.ndarray:
        states = self.manager.get(f"{group}.states")
        p16 = self.manager.get(f"{group}.p16")
        # SSD -> main: bring the states to the CPU.
        self.manager.move(states, st.HOST)

        # The runtime's G16 is float32 on the fp16 grid already.
        grad = grad_fp16.astype(np.float32, copy=False)
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

        fresh_p16 = round_fp16(weights, f"weights of group {group!r}")
        self.manager.move(p16, st.HOST)
        p16.array = fresh_p16.copy()
        # Main -> SSD: updated states and the new fp16 copy go back.
        for stored in (states, p16):
            self.manager.move(stored, self.states_tier)
        return fresh_p16

    def read_group(self, group: str) -> np.ndarray:
        """A copy of a group's ``(3, n)`` record: its P32, M32 and V32 rows."""
        stored = self.manager.get(f"{group}.states")
        self.manager.move(stored, st.HOST)
        value = stored.data().copy()
        self.manager.move(stored, self.states_tier)
        return value

    def install_group(self, group: str, states: np.ndarray) -> np.ndarray:
        """Overwrite a group's ``(3, n)`` record (a checkpoint restore).

        The fp16 copy is rederived from the P32 row and stored too; it
        is returned, flat, for the caller to install each member's
        :meth:`view` of into the model.
        """
        fresh_p16 = round_fp16(states[0], f"weights of group {group!r}")
        for suffix, value in (("states", states), ("p16", fresh_p16)):
            stored = self.manager.get(f"{group}.{suffix}")
            self.manager.move(stored, st.HOST)
            stored.array = np.array(value, dtype=np.float32)
            self.manager.move(stored, self.states_tier)
        return fresh_p16

    def read_states(self, name: str) -> np.ndarray:
        """Copies of a parameter's P32, M32 and V32, stacked on axis 0."""
        return self.view(name, self.read_group(self.group_of(name))).copy()

    def master_weights(self, name: str) -> np.ndarray:
        """Read a parameter's fp32 master copy (for verification)."""
        return self.read_states(name)[0]

    def install_states(
        self, name: str, p32: np.ndarray, m32: np.ndarray, v32: np.ndarray
    ) -> np.ndarray:
        """Overwrite one parameter's states; returns its fresh fp16 copy.

        The rest of its group keeps its states (see :meth:`install_group`).
        """
        group = self.group_of(name)
        states = self.read_group(group)
        self.view(name, states)[...] = np.stack([p32, m32, v32])
        return self.view(name, self.install_group(group, states))
