"""Fully-connected layer."""

from __future__ import annotations

import numpy as np

from repro.nn import init as init_fns
from repro.nn.module import Module
from repro.nn.parameter import Parameter

__all__ = ["Linear"]


class Linear(Module):
    """Affine map ``y = x @ W.T + b``.

    Weights are ``(out_features, in_features)``.  The final ``Linear`` of a
    classification model is the "classifier layer" whose weights FedClust
    uploads for clustering (see :mod:`repro.core.weights`).

    Parameters
    ----------
    in_features, out_features:
        Input/output dimensionality.
    rng:
        Generator used for weight init.
    bias:
        Include an additive bias (default ``True``).
    dtype:
        Parameter dtype; ``float32`` matches the 4-byte-per-parameter
        communication model in :mod:`repro.fl.communication`.
    """

    def __init__(
        self,
        in_features: int,
        out_features: int,
        rng: np.random.Generator,
        bias: bool = True,
        dtype: np.dtype | type = np.float32,
    ) -> None:
        super().__init__()
        if in_features <= 0 or out_features <= 0:
            raise ValueError(
                f"features must be positive, got in={in_features}, out={out_features}"
            )
        self.in_features = in_features
        self.out_features = out_features
        self.weight = Parameter(
            init_fns.kaiming_uniform(rng, (out_features, in_features), dtype=dtype)
        )
        self.has_bias = bias
        if bias:
            self.bias = Parameter(
                init_fns.uniform_bias(rng, in_features, (out_features,), dtype=dtype)
            )
        self._input: np.ndarray | None = None

    def forward(self, x: np.ndarray) -> np.ndarray:
        if x.ndim != 2 or x.shape[1] != self.in_features:
            raise ValueError(
                f"Linear expected (N, {self.in_features}), got {x.shape}"
            )
        self._input = x
        out = x @ self.weight.data.T
        if self.has_bias:
            out += self.bias.data
        return out

    def backward(
        self, grad_output: np.ndarray, input_grad: bool = True
    ) -> np.ndarray | None:
        if self._input is None:
            raise RuntimeError("backward called before forward")
        x = self._input
        self.weight.accumulate_grad(grad_output.T @ x)
        if self.has_bias:
            self.bias.accumulate_grad(grad_output.sum(axis=0))
        self._input = None
        if not input_grad:
            return None
        return grad_output @ self.weight.data
