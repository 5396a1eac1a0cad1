"""Decoherence channel attached to the matter mode after the unknown process."""
from __future__ import annotations

import math
from dataclasses import dataclass


@dataclass(frozen=True)
class NoiseParams:
    """Loss transmittance t_c in (0, 1] and coupled thermal variance v_c >= 1."""

    t_c: float = 1.0
    v_c: float = 1.0

    def __post_init__(self):
        if not 0.0 < self.t_c <= 1.0:
            raise ValueError(f"t_c must be in (0, 1], got {self.t_c}")
        if not 1.0 <= self.v_c < math.inf:
            raise ValueError(f"v_c must be >= 1, got {self.v_c}")


IDEAL_NOISE = NoiseParams(1.0, 1.0)
