"""The functional offload engine: Ratel's data movement, executed.

:class:`RatelRuntime` drives real training (on the NumPy autograd
substrate) with the paper's two mechanisms:

* **activation checkpointing with offloaded boundaries** — each
  transformer block is wrapped so its intra-block activations are
  discarded and recomputed in backward, while the block-boundary input
  is physically moved to the host or NVMe tier of the
  :class:`~repro.runtime.storage.StorageManager` and fetched back just
  before that block's backward (the minimum-safe swap set of §IV-D);
* **active gradient offloading** — every parameter carries an autograd
  hook that fires the moment its gradient is complete *during* backward
  and stashes it.  When the last gradient of a
  :class:`~repro.runtime.optim.CPUAdam` group lands (a transformer
  block's parameters, or the ones outside every block), the group's
  gradient is rounded to fp16 once and moves to the host as one record
  (G16), the out-of-core Adam consumes it in one update (fetching and
  writing back the group's fp32 states on their resting tier), and the
  fresh fp16 copies are installed for the next iteration (§IV-C).

No staleness in ``sync`` mode: a block's parameters update only after
that block's own backward (and recompute) has finished, and no earlier
block reads them again within the iteration — so active updates produce
*bit-identical* parameters to a deferred optimizer stage.  The
integration tests assert exactly that.

The ``optimizer_mode`` axis relaxes the synchronous barrier (the
``repro.overlap`` subsystem; sim twins in :mod:`repro.baselines.overlap`):

* ``sync``    — the paper's design, as above.
* ``async``   — ZenFlow-style bounded staleness, one group per
  parameter (the critical set picks parameters): gradients park in a
  :class:`~repro.runtime.optim.BoundedStalenessQueue` and apply up to
  ``stale_k`` steps late, except the importance-prioritized
  ``critical_frac`` top slice which applies in its own step.  ``stale_k=0``
  is bit-identical to ``sync`` (every gradient applies in its producing
  step, and no later read happens before the epilogue).  ``stale_k=1``
  is ZeRO-Offload's one-step delayed update, the staleness the paper
  rules out (§IV-C footnote).
* ``overlap`` — GreedySnake-style step-overlap: each gradient waits
  host-side and applies *just before the next read* of its parameter —
  per-block at that block's next forward entry, the rest at the next
  step's start.  Values are bit-identical to ``sync``; only the schedule
  position of the update moves (visible in the Perfetto timeline).
"""

from __future__ import annotations

import time
from collections.abc import Iterator
from contextlib import contextmanager
from typing import Callable

import numpy as np

from repro.obs import spans as _spans

from . import storage as st
from .modules import Module
from .optim import (
    BoundedStalenessQueue,
    CPUAdam,
    OptimizerError,
    PendingGradient,
    StalenessError,
    gradient_importance,
    round_fp16,
)
from .tensor import Tensor, is_grad_enabled, no_grad

#: Valid ``optimizer_mode`` values, in the CLI's spelling.
OPTIMIZER_MODES = ("sync", "async", "overlap")


class RatelRuntime:
    """Training driver with checkpointed blocks and an active optimizer."""

    def __init__(
        self,
        model: Module,
        manager: st.StorageManager,
        optimizer: CPUAdam | None,
        *,
        checkpoint_tier: str = st.NVME,
        active_offload: bool = True,
        optimizer_mode: str = "sync",
        stale_k: int = 0,
        critical_frac: float = 0.0,
    ) -> None:
        if checkpoint_tier not in (st.HOST, st.NVME):
            raise ValueError("checkpoint_tier must be 'host' or 'nvme'")
        if optimizer_mode not in OPTIMIZER_MODES:
            raise ValueError(
                f"optimizer_mode must be one of {OPTIMIZER_MODES}, got {optimizer_mode!r}"
            )
        if optimizer_mode != "async" and critical_frac:
            raise ValueError("critical_frac only applies to optimizer_mode='async'")
        if optimizer_mode != "async" and stale_k:
            raise ValueError("stale_k only applies to optimizer_mode='async'")
        self.model = model
        self.manager = manager
        self.optimizer = optimizer
        self.checkpoint_tier = checkpoint_tier
        self.active_offload = active_offload
        self.optimizer_mode = optimizer_mode
        self.stale_k = stale_k
        self.critical_frac = critical_frac
        #: ``(name, produced_step, applied_step)`` per non-synchronous
        #: update — the measured staleness record ``ext_overlap`` reports.
        self.staleness_log: list[tuple[str, int, int]] = []
        self._stale_queue = (
            BoundedStalenessQueue(stale_k, critical_frac)
            if optimizer_mode == "async"
            else None
        )
        #: overlap mode: group -> queued PendingGradient, insertion-ordered.
        self._overlap_pending: dict[str, object] = {}
        #: This step's landed gradients: group -> member names in arrival
        #: order, and the float32 buffer an incomplete group fills.
        self._landed: dict[str, list[str]] = {}
        self._grad_buffers: dict[str, np.ndarray] = {}
        #: Boundaries a checkpointed forward stored and whose backward has
        #: not dropped them yet: name -> (step, record).
        self._open_boundaries: dict[str, tuple[int, st.StoredTensor]] = {}
        #: Optimizer groups read by each block / outside every block.
        self._block_groups: dict[int, tuple[str, ...]] = {}
        self._nonblock_groups: tuple[str, ...] = ()
        self._suppress_handlers = False
        self.step = 0
        #: ``time.perf_counter()`` when the current (or last) step began;
        #: a step hook times the step as ``perf_counter() - step_started``.
        self.step_started = 0.0
        #: parameter names updated this step, group by group in update
        #: order — lets tests assert the last-block-first order of §IV-C.
        self.update_order: list[str] = []
        self._handlers_installed = False
        #: Called as ``hook(self)`` after every completed training step
        #: (all variants) — the attachment point for periodic
        #: checkpointing and other end-of-step policies.
        self._step_hooks: list[Callable[["RatelRuntime"], None]] = []

        blocks = getattr(model, "blocks", [])
        for index, block in enumerate(blocks):
            self._wrap_block(block, index)
        # Each block's parameters form an optimizer group, and overlap
        # mode applies a block's pending update at its next forward
        # entry; map block index -> full parameter names once (by tensor
        # identity — block-local names differ).
        params = dict(model.named_parameters())
        by_id = {id(param): name for name, param in params.items()}
        self._block_param_names: dict[int, tuple[str, ...]] = {}
        in_blocks: set[str] = set()
        for index, block in enumerate(blocks):
            names = tuple(
                by_id[id(param)]
                for _local, param in block.named_parameters()
                if id(param) in by_id
            )
            self._block_param_names[index] = names
            in_blocks.update(names)
        #: Parameters outside every block (embeddings, final norm, head):
        #: their pending overlap updates apply at the next step's start.
        self._nonblock_param_names = tuple(
            name for name in params if name not in in_blocks
        )
        model._ratel_runtime = self
        # Without an optimizer (the Fig.-4 ``ratel_hook`` stage) the
        # gradient handlers stay un-armed; RatelOptimizer installs them
        # once the out-of-core Adam exists.
        if optimizer is not None:
            self._install_gradient_handlers()

    @classmethod
    def from_context(cls, model: Module, context) -> "RatelRuntime":
        """Build a runtime from a :class:`~repro.runtime.api.RatelContext`.

        This is the constructor behind the Fig.-4 ``ratel_hook`` call:
        the storage hierarchy and offload settings come from the active
        ``ratel_init`` context, and the optimizer slot is left empty for
        :class:`~repro.runtime.api.RatelOptimizer` to fill.  The returned
        object is fully initialised — every invariant the ordinary
        constructor enforces holds here too.
        """
        return cls(
            model,
            context.manager,
            None,
            checkpoint_tier=context.checkpoint_tier,
            active_offload=context.active_offload,
            optimizer_mode=context.optimizer_mode,
            stale_k=context.stale_k,
            critical_frac=context.critical_frac,
        )

    # -- public API -------------------------------------------------------------

    def optimizer_groups(self) -> list[tuple[str, tuple[str, ...]]] | None:
        """The :class:`CPUAdam` groups this runtime's mode updates at once.

        Each block's parameters form one group (``block{i}``) and the
        parameters outside every block one more (``nonblock``).  ``async``
        mode returns ``None``, one group per parameter, because ZenFlow's
        critical set picks parameters.
        """
        if self.optimizer_mode == "async":
            return None
        groups = [
            (f"block{index}", names)
            for index, names in self._block_param_names.items()
            if names
        ]
        if self._nonblock_param_names:
            groups.append(("nonblock", self._nonblock_param_names))
        return groups

    def add_step_hook(self, hook: Callable[["RatelRuntime"], None]) -> None:
        """Register ``hook(runtime)`` to run after every completed step.

        Hooks fire at the step's epilogue, after every update *due this
        step* is applied (async/overlap modes may still carry deferred
        gradients — call :meth:`flush_pending` first for a fully
        synchronised state), so a hook that checkpoints — e.g.
        :class:`~repro.runtime.serialization.PeriodicCheckpointer` —
        always captures a consistent state.  A hook that raises aborts
        the step's epilogue: by then the training state is already
        consistent, and a failing checkpoint must surface, not vanish.
        A hook that times the step (``perf_counter() - step_started``,
        e.g. :class:`repro.adapt.RuntimeHealth`) also times the hooks
        registered before it.
        """
        if not callable(hook):
            raise TypeError(f"step hook must be callable, got {type(hook)!r}")
        self._step_hooks.append(hook)

    def _fire_step_hooks(self) -> None:
        for hook in self._step_hooks:
            hook(self)

    @contextmanager
    def _stepping(self) -> Iterator[None]:
        """One step of any variant: the shared prologue, and the cleanup
        when the step fails.

        A step that raises (an fp16 overflow mid-backward, a failing
        ``loss_fn``) drops the boundaries it stored whose backward never
        ran, so the storage tiers hold what they held before the step.
        """
        self.step_started = time.perf_counter()
        self.step += 1
        self.update_order.clear()
        self._landed.clear()
        self._grad_buffers.clear()
        self.model.zero_grad()
        try:
            self._apply_overlap_updates(self._nonblock_groups, "head")
            yield
        except BaseException:
            for name, (step, stored) in list(self._open_boundaries.items()):
                if step == self.step:
                    del self._open_boundaries[name]
                    self.manager.drop(stored)
            raise

    def train_step(self, loss_fn: Callable[[], Tensor]) -> float:
        """Run one iteration: forward + backward (+ optimizer, per mode).

        ``loss_fn`` builds the loss tensor (it closes over the batch);
        returns the scalar loss value.  Under an active
        :func:`repro.obs.observe` block the step is recorded as spans
        (one ``rt_step`` slice, forward/backward stage windows).
        """
        with self._stepping():
            rec = _spans.recorder()
            if rec is None:
                loss = loss_fn()
                loss.backward()
                self._finish_step()
                return float(loss.data)
            with rec.span(_spans.RT_STEP, f"train_step_s{self.step}"):
                with rec.stage(f"forward_s{self.step}"):
                    loss = loss_fn()
                with rec.stage(f"backward_s{self.step}"):
                    loss.backward()
                    self._finish_step()
            return float(loss.data)

    def _finish_step(self) -> None:
        """The post-backward epilogue shared by every step variant."""
        if not self.active_offload:
            # Deferred mode (the Ratel+ZeRO ablation): one optimizer pass
            # after backward, in the same last-to-first order gradients
            # arrived.  In async/overlap mode _consume_gradient stashes
            # instead of applying, so the loop below still decides.
            for name, param in reversed(list(self.model.named_parameters())):
                if param.grad is not None:
                    self._consume_gradient(name, param)
        self._check_every_gradient_landed()
        if self._stale_queue is not None:
            due = self._stale_queue.collect(self.step)
            if due:
                with _spans.maybe_span(
                    _spans.RT_CPU_ADAM, f"async_apply_s{self.step}", float(len(due))
                ):
                    for item in due:
                        self._apply_pending(item)
        self._fire_step_hooks()

    def train_step_accumulate(self, loss_fns: list[Callable[[], Tensor]]) -> float:
        """One optimizer step over several micro-batches (gradient accumulation).

        Larger effective batches than GPU memory allows are standard in
        offloaded fine-tuning.  The interplay with active gradient
        offloading is subtle: the per-parameter handlers must *not*
        consume gradients until the final micro-batch's backward, or the
        optimizer would take one step per micro-batch.  The runtime
        suppresses the handlers during the early micro-batches (gradients
        simply accumulate on the parameters, as autograd does naturally)
        and re-arms them for the last one, which then consumes the summed
        gradient.  Returns the mean micro-batch loss.
        """
        if not loss_fns:
            raise ValueError("need at least one micro-batch")
        total = 0.0
        scale = 1.0 / len(loss_fns)
        with self._stepping(), _spans.maybe_span(
            _spans.RT_STEP, f"train_step_accumulate_s{self.step}"
        ):
            try:
                for index, loss_fn in enumerate(loss_fns):
                    final = index == len(loss_fns) - 1
                    self._suppress_handlers = not final
                    loss = loss_fn() * scale
                    loss.backward()
                    total += float(loss.data)
            finally:
                self._suppress_handlers = False
            self._finish_step()
        return total

    def train_step_clipped(
        self, loss_fn: Callable[[], Tensor], max_grad_norm: float
    ) -> tuple[float, float]:
        """One iteration with global-norm gradient clipping.

        Global-norm clipping needs every gradient *before any* update, so
        it fundamentally conflicts with active gradient offloading, which
        consumes each gradient mid-backward (a data-movement/algorithm
        tension the paper does not discuss).  This method therefore
        requires deferred mode and raises otherwise.  Returns
        ``(loss, pre-clip gradient norm)``.
        """
        from .optim import clip_gradients

        if self.active_offload:
            raise RuntimeError(
                "global-norm clipping requires all gradients before any "
                "update; construct the runtime with active_offload=False "
                "(or clip per-parameter upstream)"
            )
        with self._stepping(), _spans.maybe_span(
            _spans.RT_STEP, f"train_step_clipped_s{self.step}"
        ):
            loss = loss_fn()
            loss.backward()
            norm = clip_gradients(list(self.model.named_parameters()), max_grad_norm)
            self._finish_step()
        return float(loss.data), norm

    # -- block checkpointing --------------------------------------------------------

    def _wrap_block(self, block: Module, index: int) -> None:
        """Replace ``block.forward`` with a checkpoint-and-offload version."""
        original = block.forward

        def checkpointed(*args) -> Tensor:
            return self._checkpoint(original, index, *args)

        object.__setattr__(block, "forward", checkpointed)

    def _checkpoint(self, forward: Callable[..., Tensor], index: int, *args) -> Tensor:
        """Run ``forward`` without a graph; arrange recompute in backward.

        The first argument is the block-boundary activation: it is stored
        through the manager (GPU -> swap tier now, swap tier -> GPU at
        backward), so the byte counters see the real activation traffic.
        Additional tensor arguments (e.g. a DiT block's conditioning
        vector) are small and stay resident; their gradients flow through
        the recompute pass like the boundary's.
        """
        if not args or not isinstance(args[0], Tensor):
            raise TypeError("checkpointed blocks take the boundary Tensor first")
        # GreedySnake: last step's update for this block lands just
        # before this forward reads the block's parameters.
        self._apply_overlap_updates(self._block_groups.get(index, ()), f"b{index}")
        if not is_grad_enabled():
            # Inference (e.g. generation): no backward will come, so no
            # boundary needs storing and no recompute needs arranging.
            return forward(*args)
        with no_grad(), _spans.maybe_span(_spans.RT_COMPUTE, f"fwd_b{index}_s{self.step}"):
            shadow = [
                Tensor(arg.data) if isinstance(arg, Tensor) else arg for arg in args
            ]
            out_data = forward(*shadow).data

        name = f"act_b{index}_s{self.step}"
        stored = self.manager.put(name, args[0].data, st.GPU, itemsize=2)
        self._open_boundaries[name] = (self.step, stored)
        self.manager.move(stored, self.checkpoint_tier)
        extras = [
            (i, arg.data.copy()) for i, arg in enumerate(args)
            if i > 0 and isinstance(arg, Tensor)
        ]

        out = Tensor(out_data)
        tensor_parents = tuple(arg for arg in args if isinstance(arg, Tensor))

        def backward() -> None:
            self.manager.move(stored, st.GPU)
            locals_: list = list(args)
            local_tensors: dict[int, Tensor] = {}
            local_tensors[0] = Tensor(stored.data(), requires_grad=True)
            locals_[0] = local_tensors[0]
            self.manager.drop(stored)
            del self._open_boundaries[name]
            for i, data in extras:
                local_tensors[i] = Tensor(data, requires_grad=True)
                locals_[i] = local_tensors[i]
            with _spans.maybe_span(_spans.RT_COMPUTE, f"bwd_b{index}_s{self.step}"):
                recomputed = forward(*locals_)
                recomputed.backward(out.grad)
            for i, local in local_tensors.items():
                original_arg = args[i]
                if original_arg.requires_grad and local.grad is not None:
                    original_arg._accumulate(local.grad)

        out._make_node(tensor_parents, backward)
        # Force graph linkage even when no input requires grad (the
        # block's parameters always do, via the recompute pass).
        out.requires_grad = True
        out._parents = tensor_parents
        out._backward = backward
        return out

    # -- active gradient offloading ------------------------------------------------------

    def _install_gradient_handlers(self) -> None:
        if self._handlers_installed:
            raise RuntimeError("gradient handlers already installed")
        self._handlers_installed = True

        def groups_of(names: tuple[str, ...]) -> tuple[str, ...]:
            return tuple(dict.fromkeys(map(self.optimizer.group_of, names)))

        self._block_groups = {
            index: groups_of(names) for index, names in self._block_param_names.items()
        }
        self._nonblock_groups = groups_of(self._nonblock_param_names)
        if not self.active_offload:
            return
        for name, param in self.model.named_parameters():
            self._attach_handler(name, param)

    def _attach_handler(self, name: str, param: Tensor) -> None:
        def handler(tensor: Tensor) -> None:
            if tensor.grad is None or self._suppress_handlers or not self.active_offload:
                # Gradient-accumulation micro-batches leave the gradient
                # in place for the final micro-batch to consume; a live
                # flip to the synchronous-optimizer rung leaves it for
                # the deferred pass in ``_finish_step``.
                return
            self._consume_gradient(name, tensor)

        param.register_hook(handler)

    def _consume_gradient(self, name: str, param: Tensor) -> None:
        """§IV-C handler: stash the gradient until its group is complete."""
        optimizer = self.optimizer
        if optimizer is None:
            raise RuntimeError(
                "runtime has no optimizer yet; build a RatelOptimizer before training"
            )
        group = optimizer.group_of(name)
        landed = self._landed.setdefault(group, [])
        if not landed:
            self._grad_buffers[group] = np.empty(optimizer.group_size(group), np.float32)
        optimizer.view(name, self._grad_buffers[group])[...] = param.grad
        landed.append(name)
        param.zero_grad()
        if len(landed) == len(optimizer.groups[group]):
            # The group's G16, rounded once in place, as the GPU would hand
            # it over; an overflow raises here, before its states are read.
            grad16 = self._grad_buffers.pop(group)
            round_fp16(grad16, f"gradient of group {group!r}", out=grad16)
            self._consume_group(group, grad16)

    def _consume_group(self, group: str, grad16: np.ndarray) -> None:
        """A complete group: G16 to host as one record, then apply or stash."""
        stored = self.manager.put(f"{group}.grad.s{self.step}", grad16, st.GPU, itemsize=2)
        self.manager.move(stored, st.HOST)
        if self.optimizer_mode == "sync":
            # The new fp16 copies cross back for the *next* iteration's
            # compute; the current backward never reads them again.
            self._update_group(group, stored)
            return
        # async / overlap: the gradient parks host-side (counted bytes —
        # the sim charges the same 2 B/param residency) until its update
        # is due; the parameters keep their old fp16 copies meanwhile.
        importance = gradient_importance(stored.data())
        if self._stale_queue is not None:
            self._stale_queue.push(group, stored, self.step, importance)
            return
        # Overlap: at most one pending update per group can exist — the
        # next forward reads every parameter and applies it first.
        # Apply a leftover eagerly (inference-only interludes) so no
        # gradient is ever lost.
        leftover = self._overlap_pending.pop(group, None)
        if leftover is not None:
            self._apply_pending(leftover)
        self._overlap_pending[group] = PendingGradient(
            group, stored, self.step, importance
        )

    def _update_group(self, group: str, stored: st.StoredTensor) -> tuple[str, ...]:
        """Run Adam over a group's host-side G16 and install its fp16 copies."""
        optimizer = self.optimizer
        fresh_p16 = optimizer.step_param(group, stored.data())
        self.manager.drop(stored)
        members = optimizer.groups[group]
        for name in members:
            optimizer.params[name].data = optimizer.view(name, fresh_p16).copy()
        self.update_order.extend(members)
        return members

    def _check_every_gradient_landed(self) -> None:
        """A group short of a member's gradient at the step's end is an error."""
        if self.optimizer is None:
            return
        landed = {name for names in self._landed.values() for name in names}
        if len(landed) == len(self.optimizer.params):
            return
        missing = [name for name in self.optimizer.params if name not in landed]
        raise OptimizerError(
            f"step {self.step} ended before these parameters received a gradient, "
            f"so their groups were not updated: {missing}"
        )

    def _apply_pending(self, item) -> int:
        """Apply one stashed group gradient; record and bound its staleness."""
        members = self._update_group(item.name, item.payload)
        self.staleness_log.extend(
            (name, item.produced_step, self.step) for name in members
        )
        if self.step - item.produced_step > max(self.stale_k, 1):
            raise StalenessError(
                f"gradient for {item.name!r} produced at step "
                f"{item.produced_step} applied at {self.step} — beyond the "
                f"K={self.stale_k} bound"
            )
        return len(members)

    def _apply_overlap_updates(self, groups: tuple[str, ...], where: str) -> None:
        """Overlap mode: apply pending updates for ``groups`` (next read)."""
        if self.optimizer_mode != "overlap" or not self._overlap_pending:
            return
        due = [
            self._overlap_pending.pop(group)
            for group in groups
            if group in self._overlap_pending
        ]
        if not due:
            return
        with _spans.maybe_span(
            _spans.RT_CPU_ADAM, f"overlap_apply_{where}_s{self.step}", float(len(due))
        ):
            for item in due:
                self._apply_pending(item)

    def flush_pending(self) -> int:
        """Apply every still-deferred update (end of training).

        Returns how many parameters it updated.  After this the
        parameters match what a final synchronisation barrier would
        produce — the state ``ext_overlap`` compares against the
        synchronous oracle.
        """
        items: list = []
        if self._stale_queue is not None:
            items += self._stale_queue.flush()
        if self._overlap_pending:
            items += list(self._overlap_pending.values())
            self._overlap_pending.clear()
        return sum(self._apply_pending(item) for item in items)
