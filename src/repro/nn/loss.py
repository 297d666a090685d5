"""Softmax cross-entropy loss with an explicit backward pass.

The loss is used like a layer: ``value = loss.forward(outputs,
targets)`` followed by ``grad = loss.backward()`` which returns the
gradient with respect to ``outputs`` (already averaged over the batch, so
the training loop feeds it straight into ``model.backward``).

The forward keeps the exponentials of the shifted logits and their row
sums, so the backward's softmax is one division and the one-hot
subtraction is a ``- 1`` at the target entries: the same float
operations, on the same values, as recomputing ``softmax(logits) -
one_hot(targets)`` from scratch.  :func:`target_log_probs` and
:func:`softmax_minus_one_hot` are that formula for any leading shape;
:class:`repro.nn.batched.BatchedCrossEntropyLoss` uses them too.
"""

from __future__ import annotations

import numpy as np

__all__ = ["CrossEntropyLoss", "target_log_probs", "softmax_minus_one_hot"]


def target_log_probs(
    logits: np.ndarray, targets: np.ndarray
) -> tuple[np.ndarray, tuple]:
    """Log-softmax over the last axis of ``logits``, read at ``targets``.

    ``targets`` holds one class index per row, shape ``logits.shape[:-1]``.
    Returns ``(picked, state)``: ``picked[...] = log_softmax(logits)[...,
    targets[...]]``, bit for bit, and ``state`` is what
    :func:`softmax_minus_one_hot` needs.  A target outside ``[0, K)``
    raises ``ValueError``.
    """
    k = logits.shape[-1]
    targets = np.asarray(targets, dtype=np.intp)
    if targets.shape != logits.shape[:-1]:
        raise ValueError(
            f"targets must have shape {logits.shape[:-1]}, got {targets.shape}"
        )
    # Read unsigned, a negative target is huge: one max checks both ends.
    if targets.size and targets.view(np.uintp).max() >= k:
        raise ValueError(
            f"targets must lie in [0, {k}), got range "
            f"[{targets.min()}, {targets.max()}]"
        )
    shifted = logits - logits.max(axis=-1, keepdims=True)
    exp = np.exp(shifted)
    sums = exp.sum(axis=-1, keepdims=True)
    # Index arrays of the target entries, whatever the arrays' memory
    # order (a batched einsum's logits need not be C-contiguous).
    at = (*np.indices(targets.shape, sparse=True), targets)
    picked = shifted[at] - np.log(sums)[..., 0]
    return picked, (exp, sums, at)


def softmax_minus_one_hot(state: tuple) -> np.ndarray:
    """``softmax(logits) - one_hot(targets)`` from a
    :func:`target_log_probs` state, as a fresh array at the logits' dtype."""
    exp, sums, at = state
    grad = exp / sums
    grad[at] -= 1
    return grad


class CrossEntropyLoss:
    """Softmax cross-entropy over logits with integer class targets.

    Fuses log-softmax and the negative log-likelihood for numerical
    stability; the backward pass is the classic ``(softmax - onehot) / N``.
    """

    def __init__(self) -> None:
        self._cache: tuple | None = None

    def forward(self, outputs: np.ndarray, targets: np.ndarray) -> float:
        if outputs.ndim != 2:
            raise ValueError(f"logits must be (N, C), got {outputs.shape}")
        picked, self._cache = target_log_probs(outputs, targets)
        # ``np.mean`` without its Python wrapper: it rounds a float64
        # quotient to the logits' dtype, which is the correctly rounded
        # quotient ``sum / n`` computes at that dtype.
        return float(-(picked.sum() / outputs.shape[0]))

    def backward(self) -> np.ndarray:
        if self._cache is None:
            raise RuntimeError("backward called before forward")
        grad = softmax_minus_one_hot(self._cache)
        self._cache = None
        grad /= grad.shape[0]
        return grad
