"""Model-state memory footprint (paper Table II).

Mixed-precision Adam fine-tuning stores, per parameter:

========  =====  ========================  ==========================
tensor    bytes  produced during           consumed during
========  =====  ========================  ==========================
P32       4      optimizer (prev iter)     optimizer (current iter)
OS32      8      optimizer (prev iter)     optimizer (current iter)
G16       2      backward                  optimizer
P16       2      optimizer (prev iter)     forward + backward
========  =====  ========================  ==========================

16 bytes/parameter in total — a 175B model carries 2.8 TB of model
states, which is why they must live on NVMe.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.util.cached import cached_value


@dataclass(frozen=True)
class ModelStateFootprint:
    """Byte sizes of the persistent training state for ``n_params``."""

    n_params: float

    def __post_init__(self) -> None:
        if self.n_params <= 0:
            raise ValueError("parameter count must be positive")

    @cached_value
    def p32(self) -> float:
        """fp32 master parameters."""
        return 4.0 * self.n_params

    @cached_value
    def os32(self) -> float:
        """fp32 Adam moments (first + second)."""
        return 8.0 * self.n_params

    @cached_value
    def g16(self) -> float:
        """fp16 gradients."""
        return 2.0 * self.n_params

    @cached_value
    def p16(self) -> float:
        """fp16 parameter copy used by GPU compute."""
        return 2.0 * self.n_params

    @cached_value
    def total(self) -> float:
        """All model states: 16 bytes/param."""
        return self.p32 + self.os32 + self.g16 + self.p16

    @cached_value
    def optimizer_read(self) -> float:
        """Bytes the out-of-core optimizer reads per step (P32 + OS32)."""
        return self.p32 + self.os32

    @cached_value
    def optimizer_write(self) -> float:
        """Bytes it writes back per step (P32 + OS32 + fresh P16)."""
        return self.p32 + self.os32 + self.p16
