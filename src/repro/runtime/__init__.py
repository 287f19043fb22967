"""The functional Ratel runtime: real training with real data movement.

A NumPy reverse-mode autograd engine (:mod:`~repro.runtime.tensor`),
PyTorch-style modules (:mod:`~repro.runtime.modules`), a capacity-
enforcing three-tier storage hierarchy with genuine disk spill
(:mod:`~repro.runtime.storage`), the out-of-core mixed-precision Adam
(:mod:`~repro.runtime.optim`), the checkpoint/offload engine
(:mod:`~repro.runtime.offload`) and the paper's Fig.-4 user API
(:mod:`~repro.runtime.api`).

This package answers the *correctness* questions about Ratel's design —
no staleness, recompute fidelity, exact traffic accounting — while
:mod:`repro.sim` + :mod:`repro.core` answer the *performance* ones.
"""

from .api import RatelAPIError, RatelContext, RatelOptimizer, current_context, ratel_hook, ratel_init
from .dit import AdaLNBlock, DiTModel, denoising_loss, timestep_embedding
from .serialization import (
    CheckpointError,
    PeriodicCheckpointer,
    checkpoint_path,
    checkpoint_step_path,
    latest_checkpoint,
    list_checkpoints,
    load_checkpoint,
    save_checkpoint,
)
from .textgen import CharTokenizer, generate, sample_batches
from .modules import (
    CrossEntropyLoss,
    Embedding,
    GPTModel,
    LayerNorm,
    Linear,
    MLP,
    MSELoss,
    Module,
    MultiHeadAttention,
    TransformerBlock,
)
from .offload import OPTIMIZER_MODES, RatelRuntime
from .optim import (
    Adam,
    BoundedStalenessQueue,
    CPUAdam,
    Fp16RangeError,
    LRSchedule,
    OptimizerError,
    PendingGradient,
    StalenessError,
    clip_gradients,
    gradient_importance,
    round_fp16,
)
from .storage import (
    GPU,
    HOST,
    NVME,
    SpillCorruptionError,
    SpillError,
    StorageError,
    StorageManager,
    StoredTensor,
    Tier,
    TierCapacityError,
)
from .tensor import AutogradError, IndexRangeError, Tensor, is_grad_enabled, no_grad

__all__ = [
    "RatelAPIError",
    "AdaLNBlock",
    "DiTModel",
    "denoising_loss",
    "timestep_embedding",
    "CheckpointError",
    "PeriodicCheckpointer",
    "checkpoint_path",
    "checkpoint_step_path",
    "latest_checkpoint",
    "list_checkpoints",
    "load_checkpoint",
    "save_checkpoint",
    "CharTokenizer",
    "generate",
    "sample_batches",
    "RatelContext",
    "RatelOptimizer",
    "current_context",
    "ratel_hook",
    "ratel_init",
    "CrossEntropyLoss",
    "Embedding",
    "GPTModel",
    "LayerNorm",
    "Linear",
    "MLP",
    "MSELoss",
    "Module",
    "MultiHeadAttention",
    "TransformerBlock",
    "OPTIMIZER_MODES",
    "RatelRuntime",
    "Adam",
    "BoundedStalenessQueue",
    "CPUAdam",
    "Fp16RangeError",
    "LRSchedule",
    "OptimizerError",
    "PendingGradient",
    "StalenessError",
    "clip_gradients",
    "gradient_importance",
    "round_fp16",
    "GPU",
    "HOST",
    "NVME",
    "SpillCorruptionError",
    "SpillError",
    "StorageError",
    "StorageManager",
    "StoredTensor",
    "Tier",
    "TierCapacityError",
    "AutogradError",
    "IndexRangeError",
    "Tensor",
    "is_grad_enabled",
    "no_grad",
]
