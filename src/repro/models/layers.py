"""Per-layer compute and activation accounting.

The activation-swapping manager (paper §IV-D) reasons about "layers" at
the granularity of individual intra-block activation tensors: each has a
byte size and the FLOPs required to recompute it, and their ratio is the
*offloading benefit* (Eq. 6).  This module enumerates those tensors for
GPT-style and DiT-style blocks.

Accounting follows flash-attention-style training (the paper fine-tunes
with fused attention, so the s^2 score matrices are never materialised;
this reproduces the paper's "~213 GB of activations for a 13B model at
batch 32" and "inter-block activations are 6% of the total").

All sizes assume fp16 activations (2 bytes/element).
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.util.cached import cached_value

from .config import DiTConfig, TransformerConfig

FP16 = 2  # bytes per activation element
FP32 = 4


@dataclass(frozen=True)
class ActivationSegment:
    """One swappable activation tensor inside a block.

    ``recompute_flops`` is the GPU work to regenerate this tensor from the
    previous stored activation, i.e. the forward FLOPs of the op that
    produced it (the paper's ``FLOP_layer`` in Eq. 6/7).
    """

    name: str
    nbytes: float
    recompute_flops: float

    @property
    def offloading_benefit(self) -> float:
        """Eq. 6: recompute FLOPs per byte — higher means "swap me first"."""
        return self.recompute_flops / self.nbytes

    def __post_init__(self) -> None:
        if self.nbytes <= 0:
            raise ValueError(f"segment {self.name!r} has non-positive size")
        if self.recompute_flops < 0:
            raise ValueError(f"segment {self.name!r} has negative recompute flops")


@dataclass(frozen=True)
class BlockProfile:
    """Compute/activation profile of one repeated block."""

    segments: tuple[ActivationSegment, ...]
    forward_flops: float
    param_count: float

    @cached_value
    def activation_bytes(self) -> float:
        """Total stored activation bytes for one block."""
        return sum(seg.nbytes for seg in self.segments)

    @cached_value
    def boundary_bytes(self) -> float:
        """Bytes of the block-output (inter-block checkpoint) tensor."""
        return self.segments[-1].nbytes


def gpt_block_profile(config: TransformerConfig | DiTConfig, batch_size: int) -> BlockProfile:
    """Segments of one GPT block for a given batch size.

    Tensor inventory (t = batch x seq tokens, h = hidden):

    ======== ============== ==========================
    name     bytes          recompute FLOPs
    ======== ============== ==========================
    ln1_out  2 t h          5 t h
    qkv_out  6 t h          6 t h^2
    attn_ctx 2 t h          4 b s^2 h   (QK^T + AV)
    proj_out 2 t h          2 t h^2
    ln2_out  2 t h          5 t h
    fc1_out  8 t h          8 t h^2
    gelu_out 8 t h          32 t h
    blk_out  2 t h          8 t h^2 + t h  (fc2 + add)
    ======== ============== ==========================

    Total 32 t h bytes and ~24 t h^2 + 4 b s^2 h FLOPs, the standard
    per-block figures.  ``blk_out`` is the inter-block activation that
    ZeRO-Infinity-style checkpointing always keeps.
    """
    if batch_size <= 0:
        raise ValueError(f"batch size must be positive, got {batch_size}")
    s = config.seq_len
    h = config.hidden_dim
    b = batch_size
    t = b * s
    segments = (
        ActivationSegment("ln1_out", FP16 * t * h, 5.0 * t * h),
        ActivationSegment("qkv_out", FP16 * 3 * t * h, 6.0 * t * h * h),
        ActivationSegment("attn_ctx", FP16 * t * h, 4.0 * b * s * s * h),
        ActivationSegment("proj_out", FP16 * t * h, 2.0 * t * h * h),
        ActivationSegment("ln2_out", FP16 * t * h, 5.0 * t * h),
        ActivationSegment("fc1_out", FP16 * 4 * t * h, 8.0 * t * h * h),
        ActivationSegment("gelu_out", FP16 * 4 * t * h, 32.0 * t * h),
        ActivationSegment("blk_out", FP16 * t * h, 8.0 * t * h * h + t * h),
    )
    forward_flops = sum(seg.recompute_flops for seg in segments)
    return BlockProfile(segments, forward_flops, config.block_params)


def dit_block_profile(config: DiTConfig, batch_size: int) -> BlockProfile:
    """Segments of one DiT block: the adaLN modulation tensor, then the
    GPT block's eight segments in their order.

    The adaLN modulation is per-sample, not per-token, so its activation
    is tiny (12 b h bytes) while its projection costs 12 b h^2 FLOPs —
    the highest offloading benefit in the block, as expected: conditioning
    tensors should always be swapped, never recomputed.
    """
    gpt = gpt_block_profile(config, batch_size)
    b = batch_size
    h = config.hidden_dim
    segments = (
        ActivationSegment("adaln_out", FP16 * 6 * b * h, 12.0 * b * h * h),
        *gpt.segments,
    )
    forward_flops = sum(seg.recompute_flops for seg in segments)
    return BlockProfile(segments, forward_flops, config.block_params)
