"""Proximity-matrix construction (step ④ of Fig. 2).

The server computes the pairwise Euclidean distances between the
clients' uploaded partial weight vectors, as the paper does.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.cluster.distance import pairwise_euclidean, validate_distance_matrix

__all__ = ["ProximityResult", "proximity_matrix"]


@dataclass
class ProximityResult:
    """A validated proximity matrix plus its provenance."""

    matrix: np.ndarray
    n_clients: int


def proximity_matrix(weight_matrix: np.ndarray) -> ProximityResult:
    """Euclidean distances between client weight vectors.

    ``weight_matrix`` is the ``(m, d)`` stack from
    :func:`repro.core.weights.weight_matrix`; the result is symmetric,
    non-negative, zero-diagonal (validated).
    """
    w = np.asarray(weight_matrix, dtype=np.float64)
    if w.ndim != 2:
        raise ValueError(f"weight matrix must be (m, d), got {w.shape}")
    if w.shape[0] < 2:
        raise ValueError("need at least 2 clients for a proximity matrix")
    matrix = validate_distance_matrix(pairwise_euclidean(w))
    return ProximityResult(matrix=matrix, n_clients=w.shape[0])
