"""Softmax cross-entropy loss with an explicit backward pass.

The loss is used like a layer: ``value = loss.forward(outputs,
targets)`` followed by ``grad = loss.backward()`` which returns the
gradient with respect to ``outputs`` (already averaged over the batch, so
the training loop feeds it straight into ``model.backward``).
"""

from __future__ import annotations

import numpy as np

from repro.nn.functional import log_softmax, one_hot, softmax

__all__ = ["CrossEntropyLoss"]


class CrossEntropyLoss:
    """Softmax cross-entropy over logits with integer class targets.

    Fuses log-softmax and the negative log-likelihood for numerical
    stability; the backward pass is the classic ``(softmax - onehot) / N``.
    """

    def __init__(self) -> None:
        self._cache: tuple[np.ndarray, np.ndarray] | None = None

    def forward(self, outputs: np.ndarray, targets: np.ndarray) -> float:
        if outputs.ndim != 2:
            raise ValueError(f"logits must be (N, C), got {outputs.shape}")
        targets = np.asarray(targets)
        if targets.shape != (outputs.shape[0],):
            raise ValueError(
                f"targets must be ({outputs.shape[0]},), got {targets.shape}"
            )
        log_probs = log_softmax(outputs, axis=1)
        self._cache = (outputs, targets)
        picked = log_probs[np.arange(outputs.shape[0]), targets]
        return float(-picked.mean())

    def backward(self) -> np.ndarray:
        if self._cache is None:
            raise RuntimeError("backward called before forward")
        outputs, targets = self._cache
        n, c = outputs.shape
        grad = softmax(outputs, axis=1)
        grad -= one_hot(targets, c, dtype=grad.dtype)
        grad /= n
        self._cache = None
        return grad.astype(outputs.dtype)
