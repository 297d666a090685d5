"""Spatial max pooling.

Any kernel/stride is supported, including overlapping windows; the
backward pass scatter-adds through :func:`repro.nn.functional.col2im`,
so overlaps accumulate correctly.
"""

from __future__ import annotations

import numpy as np

from repro.nn.functional import col2im, im2col
from repro.nn.module import Module

__all__ = ["MaxPool2d"]


class MaxPool2d(Module):
    """Max pooling; gradient routes to the argmax element of each window."""

    def __init__(self, kernel_size: int, stride: int | None = None) -> None:
        super().__init__()
        if kernel_size <= 0:
            raise ValueError(f"kernel_size must be positive, got {kernel_size}")
        self.kernel_size = kernel_size
        self.stride = stride if stride is not None else kernel_size
        if self.stride <= 0:
            raise ValueError(f"stride must be positive, got {self.stride}")
        self._x_shape: tuple[int, int, int, int] | None = None
        self._argmax: np.ndarray | None = None
        self._n_windows: int = 0

    def forward(self, x: np.ndarray) -> np.ndarray:
        if x.ndim != 4:
            raise ValueError(f"pooling expects (N, C, H, W), got {x.shape}")
        n, c, h, w = x.shape
        # Fold channels into the batch so every column is a single-channel
        # window: im2col on (N*C, 1, H, W) gives (N*C*OH*OW, K*K).
        cols, (out_h, out_w) = im2col(
            x.reshape(n * c, 1, h, w), self.kernel_size, self.kernel_size, self.stride, 0
        )
        self._x_shape = x.shape
        self._argmax = cols.argmax(axis=1)
        self._n_windows = cols.shape[0]
        out = cols[np.arange(cols.shape[0]), self._argmax]
        return out.reshape(n, c, out_h, out_w)

    def backward(self, grad_output: np.ndarray) -> np.ndarray:
        if self._argmax is None or self._x_shape is None:
            raise RuntimeError("backward called before forward")
        k2 = self.kernel_size * self.kernel_size
        dcols = np.zeros((self._n_windows, k2), dtype=grad_output.dtype)
        dcols[np.arange(self._n_windows), self._argmax] = grad_output.ravel()
        n, c, h, w = self._x_shape
        self._argmax = None
        self._x_shape = None
        dx = col2im(
            dcols, (n * c, 1, h, w), self.kernel_size, self.kernel_size, self.stride, 0
        )
        return dx.reshape(n, c, h, w)
