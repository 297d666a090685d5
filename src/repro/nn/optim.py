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
    """Stochastic gradient descent with momentum, weight decay, Nesterov.

    Matches the reference semantics: weight decay is added to the gradient
    before the momentum update; Nesterov applies the velocity look-ahead.
    """

    def __init__(
        self,
        params: Sequence[Parameter],
        lr: float,
        momentum: float = 0.0,
        weight_decay: float = 0.0,
        nesterov: bool = False,
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
        if nesterov and momentum == 0:
            raise ValueError("nesterov momentum requires momentum > 0")
        self.params = params
        self.lr = lr
        self.momentum = momentum
        self.weight_decay = weight_decay
        self.nesterov = nesterov
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
            if self.nesterov:
                p.data -= self.lr * (g + self.momentum * v)
            else:
                p.data -= self.lr * v

    def zero_grad(self) -> None:
        for p in self.params:
            p.zero_grad()

    def reset_state(self) -> None:
        """Zero the momentum buffers (e.g. when a client gets a new model)."""
        if self._velocity is not None:
            for v in self._velocity:
                v[...] = 0


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

    def set_anchor(self, anchor: Sequence[np.ndarray]) -> None:
        """Fix the proximal anchor (one array per parameter, shape-matched)."""
        anchor = [np.asarray(a) for a in anchor]
        if len(anchor) != len(self.params):
            raise ValueError(
                f"anchor has {len(anchor)} arrays for {len(self.params)} parameters"
            )
        for a, p in zip(anchor, self.params):
            if a.shape != p.data.shape:
                raise ValueError(
                    f"anchor shape {a.shape} mismatches parameter {p.data.shape}"
                )
        self._anchor = [a.copy() for a in anchor]

    def set_anchor_from_params(self) -> None:
        """Anchor at the parameters' current values (round start)."""
        self._anchor = [p.data.copy() for p in self.params]

    def set_anchor_flat(self, vector: np.ndarray, layout) -> None:
        """Anchor at a packed state vector (the broadcast buffer).

        ``layout`` is the :class:`repro.nn.state_flat.StateLayout` of the
        model whose parameters this optimiser holds; parameter order must
        match the layout's key order (both are registration order).  Each
        anchor is the corresponding slice cast to the parameter dtype, so
        the values are exactly those :meth:`set_anchor_from_params` would
        capture after loading ``vector`` into the model — without another
        pass over per-parameter copies of the incoming dict.
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
                "ProximalSGD.step() before set_anchor(); call it at round start"
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
