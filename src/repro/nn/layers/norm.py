"""Batch normalisation.

``gamma``/``beta`` are trainable :class:`~repro.nn.parameter.Parameter`
objects and therefore participate in federated aggregation; the running
mean/variance are *local buffers* that never leave the client — the same
convention as FedBN, which avoids averaging incompatible batch statistics
across non-IID clients.
"""

from __future__ import annotations

import numpy as np

from repro.nn.module import Module
from repro.nn.parameter import Parameter

__all__ = ["BatchNorm1d", "BatchNorm2d", "GroupNorm"]


class _BatchNorm(Module):
    """Shared implementation; subclasses fix the reduction axes."""

    def __init__(
        self,
        num_features: int,
        eps: float = 1e-5,
        momentum: float = 0.1,
        dtype: np.dtype | type = np.float32,
    ) -> None:
        super().__init__()
        if num_features <= 0:
            raise ValueError(f"num_features must be positive, got {num_features}")
        if not 0.0 < momentum <= 1.0:
            raise ValueError(f"momentum must be in (0, 1], got {momentum}")
        self.num_features = num_features
        self.eps = eps
        self.momentum = momentum
        self.gamma = Parameter(np.ones(num_features, dtype=dtype))
        self.beta = Parameter(np.zeros(num_features, dtype=dtype))
        # Local buffers — deliberately not Parameters (see module docstring).
        self.running_mean = np.zeros(num_features, dtype=dtype)
        self.running_var = np.ones(num_features, dtype=dtype)
        self._cache: tuple[np.ndarray, np.ndarray, np.ndarray] | None = None

    # Subclasses supply the axes that are reduced over and the broadcast shape.
    _axes: tuple[int, ...] = ()

    def _bshape(self) -> tuple[int, ...]:
        raise NotImplementedError

    def _check(self, x: np.ndarray) -> None:
        raise NotImplementedError

    def forward(self, x: np.ndarray) -> np.ndarray:
        self._check(x)
        shape = self._bshape()
        if self.training:
            mean = x.mean(axis=self._axes)
            var = x.var(axis=self._axes)  # biased, as in standard BN training
            m = self.momentum
            n = x.size // self.num_features
            unbiased = var * n / max(n - 1, 1)
            self.running_mean = (1 - m) * self.running_mean + m * mean.astype(
                self.running_mean.dtype
            )
            self.running_var = (1 - m) * self.running_var + m * unbiased.astype(
                self.running_var.dtype
            )
        else:
            mean = self.running_mean
            var = self.running_var
        inv_std = 1.0 / np.sqrt(var + self.eps)
        x_hat = (x - mean.reshape(shape)) * inv_std.reshape(shape)
        if self.training:
            self._cache = (x_hat, inv_std, x_hat)  # inv_std reused in backward
        else:
            self._cache = None
        return self.gamma.data.reshape(shape) * x_hat + self.beta.data.reshape(shape)

    def backward(
        self, grad_output: np.ndarray, input_grad: bool = True
    ) -> np.ndarray | None:
        if self._cache is None:
            raise RuntimeError(
                "BatchNorm backward requires a preceding training-mode forward"
            )
        x_hat, inv_std, _ = self._cache
        self._cache = None
        shape = self._bshape()
        self.gamma.accumulate_grad((grad_output * x_hat).sum(axis=self._axes))
        self.beta.accumulate_grad(grad_output.sum(axis=self._axes))
        if not input_grad:
            return None
        # Standard batch-stat backward: project out the mean and the
        # component along x_hat before rescaling.
        g = grad_output
        mean_g = g.mean(axis=self._axes).reshape(shape)
        mean_gx = (g * x_hat).mean(axis=self._axes).reshape(shape)
        dx = (
            self.gamma.data.reshape(shape)
            * inv_std.reshape(shape)
            * (g - mean_g - x_hat * mean_gx)
        )
        return dx.astype(grad_output.dtype)


class BatchNorm1d(_BatchNorm):
    """Batch norm over ``(N, F)`` feature batches."""

    _axes = (0,)

    def _bshape(self) -> tuple[int, ...]:
        return (1, self.num_features)

    def _check(self, x: np.ndarray) -> None:
        if x.ndim != 2 or x.shape[1] != self.num_features:
            raise ValueError(
                f"BatchNorm1d expected (N, {self.num_features}), got {x.shape}"
            )


class BatchNorm2d(_BatchNorm):
    """Batch norm over ``(N, C, H, W)`` image batches (per-channel)."""

    _axes = (0, 2, 3)

    def _bshape(self) -> tuple[int, ...]:
        return (1, self.num_features, 1, 1)

    def _check(self, x: np.ndarray) -> None:
        if x.ndim != 4 or x.shape[1] != self.num_features:
            raise ValueError(
                f"BatchNorm2d expected (N, {self.num_features}, H, W), got {x.shape}"
            )


class GroupNorm(Module):
    """Group normalisation (Wu & He, 2018) over ``(N, C, H, W)``.

    Normalises each sample's channels within ``num_groups`` groups using
    the sample's own statistics — no running buffers, no batch coupling.
    This makes it the norm of choice for federated learning: unlike
    BatchNorm there is no local statistic that diverges across non-IID
    clients, so *all* of its parameters can safely be averaged.
    """

    def __init__(
        self,
        num_groups: int,
        num_channels: int,
        eps: float = 1e-5,
        dtype: np.dtype | type = np.float32,
    ) -> None:
        super().__init__()
        if num_groups <= 0 or num_channels <= 0:
            raise ValueError("num_groups and num_channels must be positive")
        if num_channels % num_groups:
            raise ValueError(
                f"num_groups {num_groups} must divide num_channels {num_channels}"
            )
        self.num_groups = num_groups
        self.num_channels = num_channels
        self.eps = eps
        self.gamma = Parameter(np.ones(num_channels, dtype=dtype))
        self.beta = Parameter(np.zeros(num_channels, dtype=dtype))
        self._cache: tuple[np.ndarray, np.ndarray, tuple[int, ...]] | None = None

    def forward(self, x: np.ndarray) -> np.ndarray:
        if x.ndim != 4 or x.shape[1] != self.num_channels:
            raise ValueError(
                f"GroupNorm expected (N, {self.num_channels}, H, W), got {x.shape}"
            )
        n, c, h, w = x.shape
        grouped = x.reshape(n, self.num_groups, c // self.num_groups, h, w)
        mean = grouped.mean(axis=(2, 3, 4), keepdims=True)
        var = grouped.var(axis=(2, 3, 4), keepdims=True)
        inv_std = 1.0 / np.sqrt(var + self.eps)
        x_hat = ((grouped - mean) * inv_std).reshape(n, c, h, w)
        self._cache = (x_hat, inv_std, x.shape)
        return self.gamma.data.reshape(1, c, 1, 1) * x_hat + self.beta.data.reshape(
            1, c, 1, 1
        )

    def backward(
        self, grad_output: np.ndarray, input_grad: bool = True
    ) -> np.ndarray | None:
        if self._cache is None:
            raise RuntimeError("backward called before forward")
        x_hat, inv_std, shape = self._cache
        self._cache = None
        n, c, h, w = shape
        self.gamma.accumulate_grad((grad_output * x_hat).sum(axis=(0, 2, 3)))
        self.beta.accumulate_grad(grad_output.sum(axis=(0, 2, 3)))
        if not input_grad:
            return None
        g = (grad_output * self.gamma.data.reshape(1, c, 1, 1)).reshape(
            n, self.num_groups, c // self.num_groups, h, w
        )
        x_hat_g = x_hat.reshape(n, self.num_groups, c // self.num_groups, h, w)
        mean_g = g.mean(axis=(2, 3, 4), keepdims=True)
        mean_gx = (g * x_hat_g).mean(axis=(2, 3, 4), keepdims=True)
        dx = inv_std * (g - mean_g - x_hat_g * mean_gx)
        return dx.reshape(n, c, h, w).astype(grad_output.dtype)
