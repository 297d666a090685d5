"""Optimisers.

All updates are **in place** on ``Parameter.data`` (per the HPC guides:
avoid reallocating large arrays every step).  An optimiser steps one
:class:`Parameter` — a model's :attr:`~repro.nn.module.Module.flat_param`,
whose data and gradient are the whole parameter and gradient buffers —
so a step is a few whole-buffer array operations with one velocity row
and, for :class:`ProximalSGD`, one anchor row.  Every update is
elementwise, so stepping the buffer equals stepping each tensor.
:class:`ProximalSGD` adds the FedProx proximal term, which is the only
optimiser-level difference between FedProx and FedAvg.
"""

from __future__ import annotations

import numpy as np

from repro.nn.parameter import Parameter

__all__ = ["SGD", "ProximalSGD"]


class SGD:
    """Stochastic gradient descent with momentum."""

    def __init__(self, param: Parameter, lr: float, momentum: float = 0.0) -> None:
        if param.size == 0:
            raise ValueError("optimizer received an empty parameter")
        if lr <= 0:
            raise ValueError(f"lr must be positive, got {lr}")
        if momentum < 0:
            raise ValueError(f"momentum must be >= 0, got {momentum}")
        self.param = param
        self.lr = lr
        self.momentum = momentum
        self._velocity = np.zeros_like(param.data) if momentum > 0 else None

    def _gradient(self) -> np.ndarray:
        """The gradient this step descends along."""
        return self.param.grad

    def step(self) -> None:
        grad = self._gradient()
        v = self._velocity
        if v is None:
            self.param.data -= self.lr * grad
            return
        v *= self.momentum
        v += grad
        self.param.data -= self.lr * v


class ProximalSGD(SGD):
    """SGD with the FedProx proximal term.

    Local objective: ``F_i(w) + (mu/2) * ||w - w_anchor||^2`` where the
    anchor is the global model received at the start of the round.  Its
    gradient contribution ``mu * (w - w_anchor)`` is added on every step.
    """

    def __init__(
        self, param: Parameter, lr: float, mu: float, momentum: float = 0.0
    ) -> None:
        super().__init__(param, lr, momentum=momentum)
        if mu < 0:
            raise ValueError(f"mu must be >= 0, got {mu}")
        self.mu = mu
        self._anchor: np.ndarray | None = None

    def set_anchor_flat(self, vector: np.ndarray) -> None:
        """Anchor at a packed state row (the broadcast buffer).

        ``vector`` is laid out like the parameter (a model's packed row
        for its ``flat_param``).  The anchor is a copy cast to the
        parameter dtype: exactly the values a model holds after loading
        ``vector``.
        """
        vector = np.asarray(vector)
        if vector.shape != (self.param.size,):
            raise ValueError(
                f"anchor has shape {vector.shape}, expected ({self.param.size},)"
            )
        self._anchor = vector.astype(self.param.dtype).reshape(self.param.shape)

    def _gradient(self) -> np.ndarray:
        if not self.mu:
            return self.param.grad
        if self._anchor is None:
            raise RuntimeError(
                "ProximalSGD.step() before set_anchor_flat(); call it at round start"
            )
        return self.param.grad + self.mu * (self.param.data - self._anchor)
