"""Model architecture configurations.

Presets follow the paper's Table IV (decoder-only GPT-style LLMs, whose
hyper-parameters track GPT-3/OPT) and Table VI (DiT diffusion backbones
scaled from DiT-XL/2).  Parameter-count formulas reproduce the tables'
"Size" column to within ~2%:

* GPT block:  12 h^2  (+ lower-order terms) per layer, plus token and
  position embeddings.  E.g. 96 layers x 12 x 12288^2 = 174B ~ "175B".
* DiT block:  18 h^2 per layer (attention 4 h^2, MLP 8 h^2, adaLN
  modulation 6 h^2).  E.g. 28 x 18 x 1152^2 = 0.67B, matching DiT-XL/2.
"""

from __future__ import annotations

import bisect
import functools
from dataclasses import dataclass


class ModelConfigError(ValueError):
    """Raised for inconsistent model hyper-parameters."""


@dataclass(frozen=True)
class TransformerConfig:
    """A decoder-only transformer LLM (Table IV row).

    ``seq_len`` and ``vocab_size`` default to the paper's evaluation
    settings (sequence length 1024, vocabulary 50257).
    """

    name: str
    n_layers: int
    n_heads: int
    hidden_dim: int
    seq_len: int = 1024
    vocab_size: int = 50257
    ffn_mult: int = 4
    #: GPT-3/OPT tie the LM head to the token embedding (the Table IV
    #: presets assume this); the functional runtime's GPTModel does not,
    #: so introspection sets this False for exact parameter counts.
    tie_embeddings: bool = True

    def __post_init__(self) -> None:
        if min(self.n_layers, self.n_heads, self.hidden_dim, self.seq_len) <= 0:
            raise ModelConfigError(f"{self.name}: all dimensions must be positive")
        if self.hidden_dim % self.n_heads != 0:
            raise ModelConfigError(
                f"{self.name}: hidden_dim {self.hidden_dim} not divisible by "
                f"n_heads {self.n_heads}"
            )

    @property
    def head_dim(self) -> int:
        """Per-head projection width."""
        return self.hidden_dim // self.n_heads

    @property
    def block_params(self) -> int:
        """Parameters in one transformer block.

        Attention qkv (3 h^2 + 3 h) + output projection (h^2 + h), MLP
        (8 h^2 + 5 h), two LayerNorms (4 h).
        """
        h = self.hidden_dim
        return 12 * h * h + 13 * h * self.ffn_mult // 4 + 12 * h

    @property
    def embedding_params(self) -> int:
        """Token + position embeddings (plus a separate head if untied)."""
        params = self.vocab_size * self.hidden_dim + self.seq_len * self.hidden_dim
        if not self.tie_embeddings:
            params += self.hidden_dim * self.vocab_size + self.vocab_size
        return params

    @property
    def n_params(self) -> int:
        """Total trainable parameters (the paper's model "size")."""
        return self.n_layers * self.block_params + self.embedding_params

    @property
    def size_billions(self) -> float:
        """Parameter count in billions, convenient for labels."""
        return self.n_params / 1e9


@dataclass(frozen=True)
class DiTConfig:
    """A Diffusion-Transformer backbone (Table VI row).

    ``image_size`` is the pixel resolution; the VAE downsamples by 8 and
    patchify uses ``patch_size`` (DiT-XL/2 => patch 2), so the token count
    is ``(image_size / 8 / patch_size)^2`` — 1024 tokens at 512x512.
    """

    name: str
    n_layers: int
    n_heads: int
    hidden_dim: int
    image_size: int = 512
    patch_size: int = 2
    vae_downsample: int = 8

    def __post_init__(self) -> None:
        if min(self.n_layers, self.n_heads, self.hidden_dim) <= 0:
            raise ModelConfigError(f"{self.name}: all dimensions must be positive")
        if self.hidden_dim % self.n_heads != 0:
            raise ModelConfigError(
                f"{self.name}: hidden_dim {self.hidden_dim} not divisible by "
                f"n_heads {self.n_heads}"
            )
        latent = self.image_size // self.vae_downsample
        if latent % self.patch_size != 0:
            raise ModelConfigError(
                f"{self.name}: latent size {latent} not divisible by patch "
                f"{self.patch_size}"
            )

    @property
    def seq_len(self) -> int:
        """Number of image tokens the backbone processes."""
        side = self.image_size // self.vae_downsample // self.patch_size
        return side * side

    @property
    def head_dim(self) -> int:
        """Per-head projection width."""
        return self.hidden_dim // self.n_heads

    @property
    def block_params(self) -> int:
        """Parameters in one DiT block (attention + MLP + adaLN modulation)."""
        h = self.hidden_dim
        return 18 * h * h + 15 * h

    @property
    def embedding_params(self) -> int:
        """Patchify projection, timestep/label embedders, final layer."""
        h = self.hidden_dim
        patch_elems = self.patch_size * self.patch_size * 4  # 4 latent channels
        return 2 * patch_elems * h + 2 * h * h + self.seq_len * h

    @property
    def n_params(self) -> int:
        """Total trainable parameters."""
        return self.n_layers * self.block_params + self.embedding_params

    @property
    def size_billions(self) -> float:
        """Parameter count in billions."""
        return self.n_params / 1e9


def _llm(name: str, n_layers: int, n_heads: int, hidden_dim: int) -> TransformerConfig:
    return TransformerConfig(name, n_layers, n_heads, hidden_dim)


#: Table IV — LLMs for evaluation.
LLM_PRESETS: dict[str, TransformerConfig] = {
    cfg.name: cfg
    for cfg in (
        _llm("6B", 28, 32, 4096),
        _llm("13B", 40, 40, 5120),
        _llm("30B", 48, 56, 7168),
        _llm("70B", 80, 64, 8192),
        _llm("135B", 88, 88, 11264),
        _llm("175B", 96, 96, 12288),
        _llm("276B", 112, 112, 14336),
        _llm("412B", 128, 128, 16384),
    )
}


def _dit(name: str, n_layers: int, n_heads: int, hidden_dim: int) -> DiTConfig:
    return DiTConfig(name, n_layers, n_heads, hidden_dim)


#: Table VI — diffusion models for evaluation.
DIT_PRESETS: dict[str, DiTConfig] = {
    cfg.name: cfg
    for cfg in (
        _dit("0.67B", 28, 16, 1152),
        _dit("0.90B", 30, 16, 1280),
        _dit("1.4B", 32, 16, 1536),
        _dit("10B", 28, 32, 4096),
        _dit("20B", 40, 40, 5120),
        _dit("40B", 48, 56, 7168),
    )
}


def llm(name: str) -> TransformerConfig:
    """Look up a Table IV preset by its size label (e.g. ``"13B"``)."""
    try:
        return LLM_PRESETS[name]
    except KeyError:
        raise ModelConfigError(
            f"unknown LLM preset {name!r}; available: {sorted(LLM_PRESETS)}"
        ) from None


def _synthetic_config(k: int) -> TransformerConfig:
    return TransformerConfig(f"synthetic-{128 * k}", k, k, 128 * k)


#: The family member of width ``128 * k``, built on first use.
_synthetic_member = functools.cache(_synthetic_config)


@functools.cache
def _synthetic_sizes() -> tuple[int, ...]:
    """``n_params`` of the family's 512 members, ``hidden_dim`` 128 .. 65536."""
    return tuple(_synthetic_config(k).n_params for k in range(1, 513))


def synthetic_llm(n_params: float) -> TransformerConfig:
    """Smallest Table-IV-style config with at least ``n_params`` parameters.

    The presets follow ``hidden_dim = 128 * n_layers = 128 * n_heads``
    (e.g. 175B: h=12288, L=96, a=96), so a single width knob generates
    the whole family.  Used by the capacity planner to binary-search the
    maximum trainable size as a continuous quantity (the curves in
    Figs. 2a/6/8), rather than snapping to the eight presets.  The
    members' sizes are computed once and each member is built once; a
    target above the largest member gets that member.
    """
    if not n_params > 0:
        raise ModelConfigError("target parameter count must be positive")
    sizes = _synthetic_sizes()
    return _synthetic_member(min(bisect.bisect_left(sizes, n_params), len(sizes) - 1) + 1)


def dit(name: str) -> DiTConfig:
    """Look up a Table VI preset by its size label (e.g. ``"1.4B"``)."""
    try:
        return DIT_PRESETS[name]
    except KeyError:
        raise ModelConfigError(
            f"unknown DiT preset {name!r}; available: {sorted(DIT_PRESETS)}"
        ) from None
