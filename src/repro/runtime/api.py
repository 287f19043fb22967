"""The user-facing Ratel API (paper Fig. 4).

Mirrors the paper's three-call integration into an existing training
script::

    with ratel_init(gpu_capacity=..., host_capacity=..., nvme_capacity=...):
        model = GPTModel(...)           # built under profiling context
        runtime = ratel_hook(model)     # inject offload + recompute hooks
        optimizer = RatelOptimizer(model, runtime, lr=1e-3)

        for batch in loader:
            loss = runtime.train_step(lambda: loss_fn(model(batch.x), batch.y))
            # no optimizer.step(): active gradient offloading already
            # updated the parameters during backward.

``ratel_init`` plays the role of the paper's profiling wrapper: it fixes
the storage hierarchy (capacities, tiers, spill directory) that the
subsequent hooks and optimizer build against.
"""

from __future__ import annotations

import contextlib
import contextvars
from dataclasses import dataclass

from . import storage as st
from .modules import Module
from .offload import RatelRuntime
from .optim import CPUAdam


class RatelAPIError(RuntimeError):
    """Raised for out-of-order API use (hook before init, etc.)."""


@dataclass
class RatelContext:
    """The environment ``ratel_init`` establishes for hooks and optimizer."""

    manager: st.StorageManager
    checkpoint_tier: str
    states_tier: str
    active_offload: bool
    optimizer_mode: str = "sync"
    stale_k: int = 0
    critical_frac: float = 0.0


# The ``ratel_init`` nesting stack.  A ContextVar (not a module-level
# list) so concurrent use is safe: each thread / asyncio task sees its
# own stack, and a context opened in one parallel-runner worker can
# never leak into another.
_current: contextvars.ContextVar[tuple[RatelContext, ...]] = contextvars.ContextVar(
    "ratel_context_stack", default=()
)


@contextlib.contextmanager
def ratel_init(
    *,
    gpu_capacity: float,
    host_capacity: float,
    nvme_capacity: float,
    checkpoint_tier: str = st.NVME,
    states_tier: str = st.NVME,
    active_offload: bool = True,
    spill_dir: str | None = None,
    optimizer_mode: str = "sync",
    stale_k: int = 0,
    critical_frac: float = 0.0,
):
    """Establish the Ratel storage hierarchy (the Fig. 4 ``Ratel_init``).

    Capacities are in bytes.  Yields the :class:`RatelContext`; the
    manager's spill arena is removed on exit.  ``optimizer_mode``
    (``sync``/``async``/``overlap``) selects the stall-free optimizer
    variant for runtimes built under this context.
    """
    manager = st.StorageManager(
        gpu_capacity=gpu_capacity,
        host_capacity=host_capacity,
        nvme_capacity=nvme_capacity,
        spill_dir=spill_dir,
    )
    context = RatelContext(
        manager=manager,
        checkpoint_tier=checkpoint_tier,
        states_tier=states_tier,
        active_offload=active_offload,
        optimizer_mode=optimizer_mode,
        stale_k=stale_k,
        critical_frac=critical_frac,
    )
    token = _current.set(_current.get() + (context,))
    try:
        yield context
    finally:
        _current.reset(token)
        manager.close()


def current_context() -> RatelContext:
    """The innermost active ``ratel_init`` context.

    Scoped to the current thread / task: a context opened elsewhere is
    never visible here.
    """
    stack = _current.get()
    if not stack:
        raise RatelAPIError("no active ratel_init() context")
    return stack[-1]


def ratel_hook(model: Module) -> RatelRuntime:
    """Inject Ratel's data-movement hooks into ``model`` (Fig. 4).

    Wraps the model's transformer blocks with checkpoint-and-offload
    forwards via :meth:`RatelRuntime.from_context`.  Gradient handlers
    are installed by :class:`RatelOptimizer` (they need the optimizer);
    call this first, then build the optimizer.
    """
    return RatelRuntime.from_context(model, current_context())


class RatelOptimizer:
    """The Fig. 4 ``Ratel_Optimizer`` wrapper.

    Builds the out-of-core CPU Adam over the model's parameters, grouped
    as the runtime consumes them (:meth:`RatelRuntime.optimizer_groups`),
    and arms the active-gradient-offloading handlers.  ``step()`` exists
    for drop-in compatibility but is a no-op: under active offloading
    the parameters are already updated when ``backward()`` returns (the
    paper's example comments the call out).
    """

    def __init__(
        self,
        model: Module,
        runtime: RatelRuntime,
        lr: float = 1e-3,
        betas: tuple[float, float] = (0.9, 0.999),
        eps: float = 1e-8,
    ) -> None:
        if getattr(model, "_ratel_runtime", None) is not runtime:
            raise RatelAPIError("runtime does not belong to this model; call ratel_hook first")
        context = current_context()
        self.cpu_adam = CPUAdam(
            list(model.named_parameters()),
            context.manager,
            lr=lr,
            betas=betas,
            eps=eps,
            states_tier=context.states_tier,
            groups=runtime.optimizer_groups(),
        )
        runtime.optimizer = self.cpu_adam
        runtime._install_gradient_handlers()
        self.runtime = runtime

    def step(self) -> None:
        """No-op: active gradient offloading already applied the updates."""

    def zero_grad(self) -> None:
        """Clear parameter gradients (normally unnecessary: handlers do)."""
        self.runtime.model.zero_grad()
