"""Neural-network modules for the functional runtime.

A PyTorch-flavoured module system (parameters, named submodules) with
the layers a GPT/DiT training loop needs.  A model exposes its
transformer blocks as ``.blocks``: :func:`repro.runtime.api.ratel_hook`
wraps each block's ``forward`` and hooks each parameter tensor —
mirroring how the paper's implementation injects its data-movement
management into an unmodified PyTorch model (Fig. 4).
"""

from __future__ import annotations

from typing import Iterator

import numpy as np

from .tensor import IndexRangeError, Tensor


class Module:
    """Base class: parameter registry and submodules."""

    def __init__(self) -> None:
        self._parameters: dict[str, Tensor] = {}
        self._modules: dict[str, "Module"] = {}

    def __setattr__(self, name: str, value) -> None:
        if isinstance(value, Tensor) and value.requires_grad:
            self.__dict__.setdefault("_parameters", {})[name] = value
        elif isinstance(value, Module):
            self.__dict__.setdefault("_modules", {})[name] = value
        object.__setattr__(self, name, value)

    def register_parameter(self, name: str, tensor: Tensor) -> None:
        """Explicitly register a trainable tensor."""
        self._parameters[name] = tensor
        object.__setattr__(self, name, tensor)

    def add_module(self, name: str, module: "Module") -> None:
        """Explicitly register a submodule (used for module lists)."""
        self._modules[name] = module
        object.__setattr__(self, name, module)

    def parameters(self) -> Iterator[Tensor]:
        """All trainable tensors, depth-first."""
        for _name, param in self.named_parameters():
            yield param

    def named_parameters(self, prefix: str = "") -> Iterator[tuple[str, Tensor]]:
        """(qualified name, tensor) pairs, depth-first."""
        for name, param in self._parameters.items():
            yield f"{prefix}{name}", param
        for name, module in self._modules.items():
            yield from module.named_parameters(f"{prefix}{name}.")

    def __call__(self, *inputs):
        return self.forward(*inputs)

    def forward(self, *inputs):
        """Compute the module's output; subclasses override."""
        raise NotImplementedError

    def zero_grad(self) -> None:
        """Clear every parameter gradient."""
        for param in self.parameters():
            param.zero_grad()

    def n_params(self) -> int:
        """Total trainable element count."""
        return sum(param.size for param in self.parameters())


class Linear(Module):
    """Affine map ``x @ W + b`` with GPT-2-style initialization."""

    def __init__(self, in_dim: int, out_dim: int, rng: np.random.Generator) -> None:
        super().__init__()
        scale = 1.0 / np.sqrt(in_dim)
        self.weight = Tensor(
            rng.normal(0.0, scale, size=(in_dim, out_dim)).astype(np.float32),
            requires_grad=True,
        )
        self.bias = Tensor(np.zeros(out_dim, dtype=np.float32), requires_grad=True)

    def forward(self, x: Tensor) -> Tensor:
        return x.linear(self.weight, self.bias)


class LayerNorm(Module):
    """Layer normalization over the last axis."""

    def __init__(self, dim: int, eps: float = 1e-5) -> None:
        super().__init__()
        self.gain = Tensor(np.ones(dim, dtype=np.float32), requires_grad=True)
        self.shift = Tensor(np.zeros(dim, dtype=np.float32), requires_grad=True)
        self.eps = eps

    def forward(self, x: Tensor) -> Tensor:
        return x.layer_norm(self.gain, self.shift, self.eps)


class Embedding(Module):
    """Token-id to vector lookup."""

    def __init__(self, vocab_size: int, dim: int, rng: np.random.Generator) -> None:
        super().__init__()
        self.weight = Tensor(
            rng.normal(0.0, 0.02, size=(vocab_size, dim)).astype(np.float32),
            requires_grad=True,
        )

    def forward(self, ids: np.ndarray) -> Tensor:
        return self.weight.embedding(ids)


class MultiHeadAttention(Module):
    """Causal multi-head self-attention."""

    def __init__(self, dim: int, n_heads: int, rng: np.random.Generator, causal: bool = True) -> None:
        super().__init__()
        if dim % n_heads != 0:
            raise ValueError(f"dim {dim} not divisible by heads {n_heads}")
        self.n_heads = n_heads
        self.head_dim = dim // n_heads
        self.causal = causal
        self.qkv = Linear(dim, 3 * dim, rng)
        self.proj = Linear(dim, dim, rng)

    def forward(self, x: Tensor) -> Tensor:
        return self.proj(self.qkv(x).attention(self.n_heads, self.causal))


class MLP(Module):
    """The transformer feed-forward block: Linear -> GELU -> Linear."""

    def __init__(self, dim: int, hidden_mult: int, rng: np.random.Generator) -> None:
        super().__init__()
        self.fc1 = Linear(dim, hidden_mult * dim, rng)
        self.fc2 = Linear(hidden_mult * dim, dim, rng)

    def forward(self, x: Tensor) -> Tensor:
        return self.fc2(self.fc1(x).gelu())


class TransformerBlock(Module):
    """Pre-norm GPT block: LN -> attention -> LN -> MLP, residuals."""

    def __init__(self, dim: int, n_heads: int, rng: np.random.Generator, ffn_mult: int = 4) -> None:
        super().__init__()
        self.ln1 = LayerNorm(dim)
        self.attn = MultiHeadAttention(dim, n_heads, rng)
        self.ln2 = LayerNorm(dim)
        self.mlp = MLP(dim, ffn_mult, rng)

    def forward(self, x: Tensor) -> Tensor:
        x = x + self.attn(self.ln1(x))
        return x + self.mlp(self.ln2(x))


class GPTModel(Module):
    """A decoder-only LM: embeddings, block stack, final norm, LM head."""

    def __init__(
        self,
        vocab_size: int,
        dim: int,
        n_layers: int,
        n_heads: int,
        max_seq: int,
        rng: np.random.Generator,
        ffn_mult: int = 4,
    ) -> None:
        super().__init__()
        self.token_emb = Embedding(vocab_size, dim, rng)
        self.pos_emb = Tensor(
            rng.normal(0.0, 0.02, size=(max_seq, dim)).astype(np.float32),
            requires_grad=True,
        )
        self.blocks: list[TransformerBlock] = []
        for i in range(n_layers):
            block = TransformerBlock(dim, n_heads, rng, ffn_mult)
            self.add_module(f"block{i}", block)
            self.blocks.append(block)
        self.ln_f = LayerNorm(dim)
        self.head = Linear(dim, vocab_size, rng)

    def forward(self, ids: np.ndarray) -> Tensor:
        seq, positions = ids.shape[1], self.pos_emb.shape[0]
        if seq > positions:
            raise IndexRangeError(f"sequence length {seq} is outside [0, {positions}]")
        x = self.token_emb(ids) + self.pos_emb[:seq]
        for block in self.blocks:
            x = block(x)
        return self.head(self.ln_f(x))


class MSELoss(Module):
    """Mean squared error (the loss in the paper's Fig. 4 sketch)."""

    def forward(self, prediction: Tensor, target: Tensor) -> Tensor:
        diff = prediction - target
        return (diff * diff).mean()


class CrossEntropyLoss(Module):
    """Token-level cross entropy over logits (b, s, V) and int targets (b, s)."""

    def forward(self, logits: Tensor, targets: np.ndarray) -> Tensor:
        return logits.cross_entropy(targets)
