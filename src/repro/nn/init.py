"""Weight initialisers.

All initialisers take an explicit :class:`numpy.random.Generator`, keeping
model construction deterministic under the library-wide RNG discipline
(see :mod:`repro.utils.rng`).  Shapes follow the convention used by the
layers: ``Linear`` weights are ``(out_features, in_features)`` and
``Conv2d`` weights are ``(out_channels, in_channels, KH, KW)``.
"""

from __future__ import annotations

import math

import numpy as np

__all__ = ["compute_fans", "kaiming_uniform", "uniform_bias"]


def compute_fans(shape: tuple[int, ...]) -> tuple[int, int]:
    """Return ``(fan_in, fan_out)`` for a weight of ``shape``.

    For linear weights ``(out, in)`` the fans are ``(in, out)``; for conv
    weights ``(out_c, in_c, kh, kw)`` the receptive-field size multiplies
    the channel counts, matching the standard definition.
    """
    if len(shape) < 2:
        raise ValueError(f"fan computation needs >=2-D shape, got {shape}")
    receptive = int(np.prod(shape[2:])) if len(shape) > 2 else 1
    fan_in = shape[1] * receptive
    fan_out = shape[0] * receptive
    return fan_in, fan_out


def kaiming_uniform(
    rng: np.random.Generator,
    shape: tuple[int, ...],
    gain: float = math.sqrt(2.0),
    dtype: np.dtype | type = np.float32,
) -> np.ndarray:
    """He/Kaiming uniform init — the default for ReLU networks."""
    fan_in, _ = compute_fans(shape)
    bound = gain * math.sqrt(3.0 / fan_in)
    return rng.uniform(-bound, bound, size=shape).astype(dtype)


def uniform_bias(
    rng: np.random.Generator,
    fan_in: int,
    shape: tuple[int, ...],
    dtype: np.dtype | type = np.float32,
) -> np.ndarray:
    """Uniform bias init over ``±1/sqrt(fan_in)`` (torch's default)."""
    bound = 1.0 / math.sqrt(fan_in) if fan_in > 0 else 0.0
    return rng.uniform(-bound, bound, size=shape).astype(dtype)
