"""A functional Diffusion-Transformer (DiT) model (paper §V-H).

The paper evaluates Ratel on scaled DiT-XL/2 backbones (Table VI); this
module provides the executable counterpart on the NumPy runtime: adaLN
blocks (attention + MLP modulated by a conditioning vector), a patchify
embedder, sinusoidal timestep embedding, and the denoising training
objective (predict the noise added to a latent).

The blocks take ``(x, conditioning)``, exercising the offload engine's
multi-input checkpoint path: the boundary activation spills to the
storage hierarchy per block while the small conditioning tensor stays
resident, exactly as a real DiT fine-tune behaves under Ratel.
"""

from __future__ import annotations

import numpy as np

from .modules import LayerNorm, Linear, MLP, Module, MultiHeadAttention
from .tensor import Tensor


def timestep_embedding(timesteps: np.ndarray, dim: int) -> np.ndarray:
    """Sinusoidal embedding of diffusion timesteps, shape (batch, dim)."""
    half = dim // 2
    freqs = np.exp(-np.log(10000.0) * np.arange(half) / half)
    angles = timesteps[:, None].astype(np.float64) * freqs[None, :]
    emb = np.concatenate([np.cos(angles), np.sin(angles)], axis=1)
    if emb.shape[1] < dim:
        emb = np.concatenate([emb, np.zeros((emb.shape[0], dim - emb.shape[1]))], axis=1)
    return emb.astype(np.float32)


class AdaLNBlock(Module):
    """A DiT block: attention + MLP, each gated by adaLN modulation.

    The conditioning vector produces six per-channel signals
    (shift/scale/gate for the attention branch and for the MLP branch);
    at zero-initialization the gates are zero, so the block starts as the
    identity — DiT's "adaLN-zero".
    """

    def __init__(self, dim: int, n_heads: int, rng: np.random.Generator) -> None:
        super().__init__()
        self.ln1 = LayerNorm(dim)
        self.attn = MultiHeadAttention(dim, n_heads, rng, causal=False)
        self.ln2 = LayerNorm(dim)
        self.mlp = MLP(dim, 4, rng)
        self.modulation = Linear(dim, 6 * dim, rng)
        # adaLN-zero: start with no modulation and closed gates.
        self.modulation.weight.data[:] = 0.0
        self.modulation.bias.data[:] = 0.0
        self.dim = dim

    def forward(self, x: Tensor, conditioning: Tensor) -> Tensor:
        batch = x.shape[0]
        signals = self.modulation(conditioning).reshape(batch, 6, self.dim)
        # (b, 1, d) slices, broadcastable over tokens.
        shift_a, scale_a, gate_a, shift_m, scale_m, gate_m = (
            signals[:, i : i + 1, :] for i in range(6)
        )
        attn_in = _modulate(self.ln1(x), shift_a, scale_a)
        x = x + gate_a * self.attn(attn_in)
        mlp_in = _modulate(self.ln2(x), shift_m, scale_m)
        return x + gate_m * self.mlp(mlp_in)


class DiTModel(Module):
    """Patchified latent in, predicted noise out.

    ``latent_side`` is the latent grid edge (image/8 for the usual VAE);
    tokens are ``(latent_side / patch_size)^2``.
    """

    def __init__(
        self,
        dim: int,
        n_layers: int,
        n_heads: int,
        rng: np.random.Generator,
        latent_side: int = 8,
        patch_size: int = 2,
        channels: int = 4,
        n_classes: int = 10,
    ) -> None:
        super().__init__()
        if latent_side % patch_size != 0:
            raise ValueError("latent side must be divisible by the patch size")
        self.patch_size = patch_size
        self.channels = channels
        self.latent_side = latent_side
        self.tokens_side = latent_side // patch_size
        self.patch_elems = patch_size * patch_size * channels
        self.dim = dim

        self.patchify = Linear(self.patch_elems, dim, rng)
        self.pos_emb = Tensor(
            rng.normal(0.0, 0.02, size=(self.tokens_side**2, dim)).astype(np.float32),
            requires_grad=True,
        )
        self.time_mlp = Linear(dim, dim, rng)
        self.label_table = Tensor(
            rng.normal(0.0, 0.02, size=(n_classes, dim)).astype(np.float32),
            requires_grad=True,
        )
        self.blocks: list[AdaLNBlock] = []
        for i in range(n_layers):
            block = AdaLNBlock(dim, n_heads, rng)
            self.add_module(f"block{i}", block)
            self.blocks.append(block)
        self.ln_f = LayerNorm(dim)
        self.head = Linear(dim, self.patch_elems, rng)

    def conditioning(self, timesteps: np.ndarray, labels: np.ndarray) -> Tensor:
        """The per-sample conditioning vector c = MLP(t_emb) + label_emb."""
        t_emb = Tensor(timestep_embedding(timesteps, self.dim))
        return self.time_mlp(t_emb).gelu() + self.label_table.embedding(labels)

    def patchify_latent(self, latent: np.ndarray) -> np.ndarray:
        """(b, c, H, W) latent -> (b, tokens, patch_elems) patches."""
        b, c, h, w = latent.shape
        p = self.patch_size
        patches = latent.reshape(b, c, h // p, p, w // p, p)
        patches = patches.transpose(0, 2, 4, 1, 3, 5)
        return patches.reshape(b, (h // p) * (w // p), c * p * p)

    def forward(self, latent: np.ndarray, timesteps: np.ndarray, labels: np.ndarray) -> Tensor:
        patches = self.patchify_latent(np.asarray(latent, dtype=np.float32))
        x = self.patchify(Tensor(patches)) + self.pos_emb[: patches.shape[1]]
        c = self.conditioning(np.asarray(timesteps), np.asarray(labels))
        for block in self.blocks:
            x = block(x, c)
        return self.head(self.ln_f(x))


def denoising_loss(model: DiTModel, latent: np.ndarray, noise: np.ndarray,
                   timesteps: np.ndarray, labels: np.ndarray) -> Tensor:
    """The DiT training objective: MSE between predicted and true noise.

    ``latent`` is the noised latent the model sees; ``noise`` the target.
    """
    predicted = model(latent, timesteps, labels)
    target = Tensor(model.patchify_latent(np.asarray(noise, dtype=np.float32)))
    diff = predicted - target
    return (diff * diff).mean()


def _modulate(x: Tensor, shift: Tensor, scale: Tensor) -> Tensor:
    """adaLN modulation: x * (1 + scale) + shift."""
    return x * (scale + 1.0) + shift
