"""Elementwise activation layer."""

from __future__ import annotations

import numpy as np

from repro.nn.module import Module

__all__ = ["ReLU"]


class ReLU(Module):
    """Rectified linear unit: ``max(x, 0)``."""

    def __init__(self) -> None:
        super().__init__()
        self._mask: np.ndarray | None = None

    def forward(self, x: np.ndarray) -> np.ndarray:
        self._mask = x > 0
        return np.where(self._mask, x, 0)

    def backward(self, grad_output: np.ndarray) -> np.ndarray:
        if self._mask is None:
            raise RuntimeError("backward called before forward")
        grad = np.where(self._mask, grad_output, 0)
        self._mask = None
        return grad
