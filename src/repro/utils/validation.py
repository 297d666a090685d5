"""Argument-validation helpers shared across the library.

These raise early, with messages that name the offending parameter, so
configuration mistakes surface at construction time instead of as shape
errors deep inside a training loop.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

__all__ = [
    "check_positive",
    "check_non_negative",
    "check_fraction",
    "check_in",
    "check_array",
    "check_square_matrix",
]


def check_positive(name: str, value: float) -> float:
    """Require ``value > 0``."""
    if not value > 0:
        raise ValueError(f"{name} must be positive, got {value!r}")
    return value


def check_non_negative(name: str, value: float) -> float:
    """Require ``value >= 0``."""
    if value < 0:
        raise ValueError(f"{name} must be non-negative, got {value!r}")
    return value


def check_fraction(name: str, value: float, *, inclusive_low: bool = False) -> float:
    """Require ``value`` in ``(0, 1]`` (or ``[0, 1]`` with ``inclusive_low``)."""
    low_ok = value >= 0 if inclusive_low else value > 0
    if not (low_ok and value <= 1):
        bounds = "[0, 1]" if inclusive_low else "(0, 1]"
        raise ValueError(f"{name} must be in {bounds}, got {value!r}")
    return value


def check_in(name: str, value: str, allowed: Sequence[str]) -> str:
    """Require ``value`` to be one of ``allowed``."""
    if value not in allowed:
        raise ValueError(f"{name} must be one of {sorted(allowed)}, got {value!r}")
    return value


def check_array(
    name: str,
    value: np.ndarray,
    *,
    ndim: int | None = None,
    dtype_kind: str | None = None,
    allow_empty: bool = False,
) -> np.ndarray:
    """Require an ndarray with optional rank / dtype-kind / non-empty checks."""
    arr = np.asarray(value)
    if ndim is not None and arr.ndim != ndim:
        raise ValueError(f"{name} must be {ndim}-D, got shape {arr.shape}")
    if dtype_kind is not None and arr.dtype.kind not in dtype_kind:
        raise ValueError(
            f"{name} must have dtype kind in {dtype_kind!r}, got {arr.dtype}"
        )
    if not allow_empty and arr.size == 0:
        raise ValueError(f"{name} must not be empty")
    return arr


def check_square_matrix(name: str, value: np.ndarray) -> np.ndarray:
    """Require a square 2-D float matrix."""
    arr = check_array(name, value, ndim=2)
    if arr.shape[0] != arr.shape[1]:
        raise ValueError(f"{name} must be square, got shape {arr.shape}")
    return arr
