"""Whole-model training profile at a given batch size.

:class:`ModelProfile` is the model-side output of the paper's
hardware-aware profiling stage (§IV-B): total parameters ``P``, total
activation bytes ``A_all``, the inter-block subset ``A_interBlock``,
forward FLOPs, and the ordered list of swappable activation segments the
holistic swapping manager (§IV-D) chooses among.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from itertools import chain, groupby
from typing import Iterator, Union

import numpy as np

from repro.util.cached import cached_value

from .config import DiTConfig, TransformerConfig
from .footprint import ModelStateFootprint
from .layers import (
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

    @cached_value
    def n_params(self) -> float:
        """Total trainable parameters (blocks + embeddings)."""
        return float(self.config.n_params)

    @cached_value
    def states(self) -> ModelStateFootprint:
        """Persistent model-state footprint (Table II)."""
        return ModelStateFootprint(self.n_params)

    @cached_value
    def tokens_per_iteration(self) -> int:
        """Tokens processed per iteration (batch x sequence)."""
        return self.batch_size * self.config.seq_len

    @property
    def samples_per_iteration(self) -> int:
        """Sequences (LLM) or images (DiT) per iteration."""
        return self.batch_size

    @cached_value
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

    @cached_value
    def forward_flops(self) -> float:
        """FLOP_f of Eq. 2: all blocks plus the head."""
        return self.n_blocks * self.block.forward_flops + self.head_flops

    @cached_value
    def backward_flops(self) -> float:
        """GPU FLOPs of backward propagation (2x forward, per the paper)."""
        return 2.0 * self.forward_flops

    @cached_value
    def embedding_activation_bytes(self) -> float:
        """The block-0 input produced by the embedding (one boundary tensor)."""
        return FP16 * self.tokens_per_iteration * self.config.hidden_dim

    @cached_value
    def activation_bytes_total(self) -> float:
        """A_all of Eq. 2: every stored activation, all blocks + embedding out."""
        return (
            self.n_blocks * self.block.activation_bytes
            + self.embedding_activation_bytes
        )

    @cached_value
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

        A binary search over the benefit order's byte prefixes finds the
        fully covered segments, so one call is O(log n).  Byte sizes are
        integers below 2**53, so ``swapped_bytes - cum_bytes[k]`` is
        exact and the result equals a segment-by-segment walk bit for bit.
        """
        if not math.isfinite(swapped_bytes):
            raise ValueError(f"swapped bytes must be finite, got {swapped_bytes}")
        if swapped_bytes < 0:
            raise ValueError("swapped bytes cannot be negative")
        order, cum_bytes, cum_saved = self._benefit_order
        full = int(np.searchsorted(cum_bytes, swapped_bytes, side="right")) - 1
        saved = float(cum_saved[full])
        if full < len(order):
            remaining = swapped_bytes - float(cum_bytes[full])
            if remaining > 0:
                segment = order[full]
                saved += segment.recompute_flops * (remaining / segment.nbytes)
        return max(0.0, self._recomputable_flops - saved)

    def benefit_prefixes(self) -> tuple[np.ndarray, np.ndarray]:
        """``(A_G2M, FLOP_r)`` after every prefix of the benefit order.

        Element ``k`` swaps the first ``k`` segments of
        :meth:`segments_by_benefit` (``k = 0`` swaps nothing), so both
        arrays have one more element than the order.  Byte prefixes
        strictly increase (every segment has a positive size), so
        ``recompute_flops_for(a_g2m[k])`` covers exactly those ``k``
        segments with no pro-rata term and equals ``flop_r[k]``.  The
        arrays are shared and read-only.
        """
        _order, cum_bytes, cum_saved = self._benefit_order
        return cum_bytes, self._prefix_recompute_flops

    def segments_by_benefit(self) -> tuple[ActivationSegment, ...]:
        """All swappable segments sorted by decreasing offloading benefit.

        The embedding output comes first: it has no recompute path (the
        block-0 input cannot be regenerated from anything cheaper), so it
        is always swapped, mirroring the paper's ``A_G2M >= A_interBlock``
        floor.  Block segments follow in decreasing Eq.-6 benefit.  The
        order is built once per profile.
        """
        return self._benefit_order[0]

    @cached_value
    def _recomputable_flops(self) -> float:
        """FLOP_r with nothing swapped: every block's forward pass."""
        return self.n_blocks * self.block.forward_flops

    @cached_value
    def _benefit_order(
        self,
    ) -> tuple[tuple[ActivationSegment, ...], np.ndarray, np.ndarray]:
        """The benefit order plus prefix sums of its bytes and saved FLOPs.

        Every block holds the same segments, so the order is built from one
        block: its ``k`` segments are stably sorted by benefit, and each run
        of equal benefit is repeated once per block.  This is the stable
        sort of the ``n * k`` block-major list, ties included (``ln1_out``
        and ``ln2_out`` interleave block by block), at O(k log k + n).
        ``cum_bytes[k]`` and ``cum_saved[k]`` cover the first ``k``
        segments, accumulated in order.
        """
        segments = self.block.segments
        benefit = [segment.offloading_benefit for segment in segments]
        by_benefit = sorted(range(len(segments)), key=benefit.__getitem__, reverse=True)
        groups = [
            tuple(segments[i] for i in run)
            for _benefit, run in groupby(by_benefit, key=benefit.__getitem__)
        ]
        embed = ActivationSegment("embed_out", self.embedding_activation_bytes, 0.0)
        n = self.n_blocks
        order = (embed, *chain.from_iterable(group * n for group in groups))
        # Row 0 holds each segment's bytes, row 1 its recompute FLOPs; column
        # k + 1 is order[k].  A group's columns, viewed as n blocks of its
        # m segments, take the group's values by broadcasting.
        ranked = np.array(
            [[seg.nbytes, seg.recompute_flops] for group in groups for seg in group]
        ).T
        prefixes = np.zeros((2, len(order) + 1))
        prefixes[:, 1] = embed.nbytes, embed.recompute_flops
        column, rank = 2, 0
        for group in groups:
            m = len(group)
            blocks = prefixes[:, column : column + n * m].reshape(2, n, m)
            blocks[:] = ranked[:, None, rank : rank + m]
            column, rank = column + n * m, rank + m
        np.cumsum(prefixes, axis=1, out=prefixes)
        prefixes.flags.writeable = False
        cum_bytes, cum_saved = prefixes
        return order, cum_bytes, cum_saved

    @cached_value
    def _prefix_recompute_flops(self) -> np.ndarray:
        """Eq. 7 at every byte prefix: no pro-rata term, only the clamp."""
        flop_r = np.maximum(0.0, self._recomputable_flops - self._benefit_order[2])
        flop_r.flags.writeable = False
        return flop_r


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
