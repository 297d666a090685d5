"""Proximity-matrix construction (step ④ of Fig. 2).

The server computes pairwise distances between the clients' uploaded
partial weight vectors.  The paper uses Euclidean distance; cosine is
provided for the ablation study (A2/A1 experiments).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.cluster.distance import pairwise_distances, validate_distance_matrix

__all__ = ["ProximityResult", "proximity_matrix"]


@dataclass
class ProximityResult:
    """A validated proximity matrix plus its provenance."""

    matrix: np.ndarray
    metric: str
    n_clients: int


def proximity_matrix(
    weight_matrix: np.ndarray, metric: str = "euclidean"
) -> ProximityResult:
    """Pairwise distances between client weight vectors.

    ``weight_matrix`` is the ``(m, d)`` stack from
    :func:`repro.core.weights.weight_matrix`; the result is symmetric,
    non-negative, zero-diagonal (validated).
    """
    w = np.asarray(weight_matrix, dtype=np.float64)
    if w.ndim != 2:
        raise ValueError(f"weight matrix must be (m, d), got {w.shape}")
    if w.shape[0] < 2:
        raise ValueError("need at least 2 clients for a proximity matrix")
    matrix = validate_distance_matrix(pairwise_distances(w, metric))
    return ProximityResult(matrix=matrix, metric=metric, n_clients=w.shape[0])
