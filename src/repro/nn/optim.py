"""Optimisers.

All updates are **in place** on ``Parameter.data`` (per the HPC guides:
avoid reallocating large arrays every step).  :class:`ProximalSGD` adds
the FedProx proximal term, which is the only optimiser-level difference
between FedProx and FedAvg.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from repro.nn.parameter import Parameter

__all__ = ["SGD", "ProximalSGD"]


class SGD:
    """Stochastic gradient descent with momentum and weight decay.

    Matches the reference semantics: weight decay is added to the gradient
    before the momentum update.
    """

    def __init__(
        self,
        params: Sequence[Parameter],
        lr: float,
        momentum: float = 0.0,
        weight_decay: float = 0.0,
    ) -> None:
        params = list(params)
        if not params:
            raise ValueError("optimizer received an empty parameter list")
        if lr <= 0:
            raise ValueError(f"lr must be positive, got {lr}")
        if momentum < 0:
            raise ValueError(f"momentum must be >= 0, got {momentum}")
        if weight_decay < 0:
            raise ValueError(f"weight_decay must be >= 0, got {weight_decay}")
        self.params = params
        self.lr = lr
        self.momentum = momentum
        self.weight_decay = weight_decay
        self._velocity: list[np.ndarray] | None = (
            [np.zeros_like(p.data) for p in self.params] if momentum > 0 else None
        )

    def _effective_grad(self, p: Parameter) -> np.ndarray:
        if self.weight_decay:
            return p.grad + self.weight_decay * p.data
        return p.grad

    def step(self) -> None:
        if self._velocity is None:
            for p in self.params:
                p.data -= self.lr * self._effective_grad(p)
            return
        for p, v in zip(self.params, self._velocity):
            g = self._effective_grad(p)
            v *= self.momentum
            v += g
            p.data -= self.lr * v


class ProximalSGD(SGD):
    """SGD with the FedProx proximal term.

    Local objective: ``F_i(w) + (mu/2) * ||w - w_anchor||^2`` where the
    anchor is the global model received at the start of the round.  Its
    gradient contribution ``mu * (w - w_anchor)`` is added on every step.
    """

    def __init__(
        self,
        params: Sequence[Parameter],
        lr: float,
        mu: float,
        momentum: float = 0.0,
        weight_decay: float = 0.0,
    ) -> None:
        super().__init__(params, lr, momentum=momentum, weight_decay=weight_decay)
        if mu < 0:
            raise ValueError(f"mu must be >= 0, got {mu}")
        self.mu = mu
        self._anchor: list[np.ndarray] | None = None

    def set_anchor_flat(self, vector: np.ndarray, layout) -> None:
        """Anchor at a packed state vector (the broadcast buffer).

        ``layout`` is the :class:`repro.nn.state_flat.StateLayout` of the
        model whose parameters this optimiser holds; parameter order must
        match the layout's key order (both are registration order).  Each
        anchor is a copy of the corresponding slice cast to the parameter
        dtype, so the values are exactly the parameters a model holds
        after loading ``vector``.
        """
        vector = np.asarray(vector)
        if len(layout.keys) != len(self.params):
            raise ValueError(
                f"layout has {len(layout.keys)} entries for "
                f"{len(self.params)} parameters"
            )
        anchor = []
        for p, lo, hi, shape in zip(
            self.params, layout.offsets[:-1], layout.offsets[1:], layout.shapes
        ):
            if shape != p.data.shape:
                raise ValueError(
                    f"layout shape {shape} mismatches parameter {p.data.shape}"
                )
            anchor.append(vector[lo:hi].reshape(shape).astype(p.data.dtype))
        self._anchor = anchor

    def step(self) -> None:
        if self.mu and self._anchor is None:
            raise RuntimeError(
                "ProximalSGD.step() before set_anchor_flat(); call it at round start"
            )
        if self._velocity is None:
            anchors = self._anchor or [None] * len(self.params)
            for p, a in zip(self.params, anchors):
                g = p.grad
                if self.weight_decay:
                    g = g + self.weight_decay * p.data
                if self.mu and a is not None:
                    g = g + self.mu * (p.data - a)
                p.data -= self.lr * g
            return
        anchors = self._anchor or [None] * len(self.params)
        for p, v, a in zip(self.params, self._velocity, anchors):
            g = p.grad
            if self.weight_decay:
                g = g + self.weight_decay * p.data
            if self.mu and a is not None:
                g = g + self.mu * (p.data - a)
            v *= self.momentum
            v += g
            p.data -= self.lr * v
