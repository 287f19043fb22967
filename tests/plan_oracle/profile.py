"""Whole-model training profile at a given batch size.

:class:`ModelProfile` is the model-side output of the paper's
hardware-aware profiling stage (§IV-B): total parameters ``P``, total
activation bytes ``A_all``, the inter-block subset ``A_interBlock``,
forward FLOPs, and the ordered list of swappable activation segments the
holistic swapping manager (§IV-D) chooses among.
"""

from __future__ import annotations

import bisect
import functools
import math
from array import array
from dataclasses import dataclass
from itertools import accumulate
from typing import Iterator, Union

from repro.models.config import DiTConfig, TransformerConfig
from repro.models.footprint import ModelStateFootprint
from repro.models.layers import (
    FP16,
    ActivationSegment,
    BlockProfile,
    dit_block_profile,
    gpt_block_profile,
)

ModelConfig = Union[TransformerConfig, DiTConfig]


@dataclass(frozen=True)
class ModelProfile:
    """Compute/memory profile of one training iteration.

    Build with :func:`profile_model`; all quantities are for a single
    iteration at ``batch_size`` (sequence length / token count come from
    the config).
    """

    config: ModelConfig
    batch_size: int
    block: BlockProfile

    @property
    def n_blocks(self) -> int:
        """Number of repeated transformer/DiT blocks."""
        return self.config.n_layers

    @functools.cached_property
    def n_params(self) -> float:
        """Total trainable parameters (blocks + embeddings)."""
        return float(self.config.n_params)

    @functools.cached_property
    def states(self) -> ModelStateFootprint:
        """Persistent model-state footprint (Table II)."""
        return ModelStateFootprint(self.n_params)

    @functools.cached_property
    def tokens_per_iteration(self) -> int:
        """Tokens processed per iteration (batch x sequence)."""
        return self.batch_size * self.config.seq_len

    @property
    def samples_per_iteration(self) -> int:
        """Sequences (LLM) or images (DiT) per iteration."""
        return self.batch_size

    @functools.cached_property
    def head_flops(self) -> float:
        """Forward FLOPs of the embedding + output head.

        For the LLM this is the LM-head matmul 2 t h V; the DiT final
        projection is proportionally small but accounted the same way.
        """
        h = self.config.hidden_dim
        t = self.tokens_per_iteration
        if isinstance(self.config, TransformerConfig):
            return 2.0 * t * h * self.config.vocab_size
        patch_elems = self.config.patch_size**2 * 4
        return 2.0 * t * h * patch_elems + 4.0 * self.batch_size * h * h

    @functools.cached_property
    def forward_flops(self) -> float:
        """FLOP_f of Eq. 2: all blocks plus the head."""
        return self.n_blocks * self.block.forward_flops + self.head_flops

    @functools.cached_property
    def backward_flops(self) -> float:
        """GPU FLOPs of backward propagation (2x forward, per the paper)."""
        return 2.0 * self.forward_flops

    @functools.cached_property
    def embedding_activation_bytes(self) -> float:
        """The block-0 input produced by the embedding (one boundary tensor)."""
        return FP16 * self.tokens_per_iteration * self.config.hidden_dim

    @functools.cached_property
    def activation_bytes_total(self) -> float:
        """A_all of Eq. 2: every stored activation, all blocks + embedding out."""
        return (
            self.n_blocks * self.block.activation_bytes
            + self.embedding_activation_bytes
        )

    @functools.cached_property
    def inter_block_bytes(self) -> float:
        """A_interBlock: the block-boundary tensors only (~6% of A_all).

        This is the minimum safe swap set: with these offloaded, every
        other activation can be recomputed block-locally without the
        recomputation working set exceeding one block.
        """
        return (
            self.n_blocks * self.block.boundary_bytes
            + self.embedding_activation_bytes
        )

    @property
    def largest_layer_params(self) -> float:
        """Parameters of the largest single layer (block vs embedding).

        GPU memory must hold at least one layer's fp16 parameters plus its
        working activations, which bounds the trainable size on tiny GPUs.
        """
        return float(max(self.block.param_count, self.config.embedding_params))

    def segments(self) -> Iterator[tuple[int, ActivationSegment]]:
        """Yield ``(block_index, segment)`` for every swappable activation."""
        for block_idx in range(self.n_blocks):
            for segment in self.block.segments:
                yield block_idx, segment

    def recompute_flops_for(self, swapped_bytes: float) -> float:
        """FLOP_r when the best ``swapped_bytes`` of activations are swapped.

        Implements Eq. 7: segments are taken in decreasing offloading
        benefit; a partially covered segment contributes pro-rata (the
        paper's interpolation assumption).  The embedding output (no
        recompute path) is covered first and saves no FLOPs.

        A bisect over the benefit order's byte prefixes finds the fully
        covered segments, so one call is O(log n).  Byte sizes are
        integers below 2**53, so ``swapped_bytes - cum_bytes[k]`` is
        exact and the result equals a segment-by-segment walk bit for bit.
        """
        if not math.isfinite(swapped_bytes):
            raise ValueError(f"swapped bytes must be finite, got {swapped_bytes}")
        if swapped_bytes < 0:
            raise ValueError("swapped bytes cannot be negative")
        order, cum_bytes, cum_saved = self._benefit_order
        full = bisect.bisect_right(cum_bytes, swapped_bytes) - 1
        saved = cum_saved[full]
        if full < len(order):
            remaining = swapped_bytes - cum_bytes[full]
            if remaining > 0:
                segment = order[full]
                saved += segment.recompute_flops * (remaining / segment.nbytes)
        recomputable = self.n_blocks * self.block.forward_flops
        return max(0.0, recomputable - saved)

    def segments_by_benefit(self) -> tuple[ActivationSegment, ...]:
        """All swappable segments sorted by decreasing offloading benefit.

        The embedding output comes first: it has no recompute path (the
        block-0 input cannot be regenerated from anything cheaper), so it
        is always swapped, mirroring the paper's ``A_G2M >= A_interBlock``
        floor.  Block segments follow in decreasing Eq.-6 benefit.  The
        order is built once per profile.
        """
        return self._benefit_order[0]

    @functools.cached_property
    def _benefit_order(self) -> tuple[tuple[ActivationSegment, ...], array, array]:
        """The benefit order plus prefix sums of its bytes and saved FLOPs.

        A stable sort keeps equal-benefit segments in block-major order.
        ``cum_bytes[k]`` and ``cum_saved[k]`` cover the first ``k``
        segments, accumulated in order.
        """
        embed = ActivationSegment("embed_out", self.embedding_activation_bytes, 0.0)
        flat = [seg for _idx, seg in self.segments()]
        flat.sort(key=lambda seg: seg.offloading_benefit, reverse=True)
        order = (embed, *flat)
        cum_bytes = array("d", accumulate((seg.nbytes for seg in order), initial=0))
        cum_saved = array(
            "d", accumulate((seg.recompute_flops for seg in order), initial=0.0)
        )
        return order, cum_bytes, cum_saved


@functools.lru_cache(maxsize=512)
def profile_model(config: ModelConfig, batch_size: int) -> ModelProfile:
    """Build the :class:`ModelProfile` for ``config`` at ``batch_size``.

    Profiles are memoized: configs are frozen dataclasses and the profile
    is immutable, so every (config, batch) pair maps to one shared
    instance — sweeps that split feasibility and simulation no longer
    profile the same model twice.
    """
    if isinstance(config, TransformerConfig):
        block = gpt_block_profile(config, batch_size)
    elif isinstance(config, DiTConfig):
        block = dit_block_profile(config, batch_size)
    else:
        raise TypeError(f"unsupported model config type {type(config)!r}")
    return ModelProfile(config=config, batch_size=batch_size, block=block)
