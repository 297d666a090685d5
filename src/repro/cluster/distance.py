"""Vectorised pairwise distances.

These are the server-side kernels behind every proximity matrix in the
library: FedClust's Euclidean matrix over final-layer weights, CFL's
cosine similarities over updates, and PACFL's principal-angle matrix
(in :mod:`repro.cluster.subspace`).
"""

from __future__ import annotations

import numpy as np

from repro.utils.validation import check_array, check_square_matrix

__all__ = [
    "pairwise_sqeuclidean",
    "pairwise_euclidean",
    "pairwise_cosine_similarity",
    "pairwise_cosine_distance",
    "condensed_from_square",
    "square_from_condensed",
    "validate_distance_matrix",
]


def pairwise_sqeuclidean(x: np.ndarray) -> np.ndarray:
    """Squared Euclidean distances between rows of ``x``.

    Uses the Gram-matrix expansion ``|a|² + |b|² − 2a·b`` (one BLAS call
    instead of an O(n²·d) broadcast), clamped at zero against rounding.
    The expansion cancels catastrophically for near-identical rows far
    from the origin (a true distance of 1e-7 between norm-4 rows drowns
    in the norm terms and can come out exactly 0, breaking the triangle
    inequality — found by the hypothesis suite), so pairs whose computed
    value is within rounding noise of the norm scale are recomputed with
    the exact difference formula; everything else keeps the single-GEMM
    fast path.
    """
    x = np.asarray(check_array("x", x, ndim=2), dtype=np.float64)
    gram = x @ x.T
    sq = np.diag(gram)
    d2 = sq[:, None] + sq[None, :] - 2.0 * gram
    np.maximum(d2, 0.0, out=d2)
    np.fill_diagonal(d2, 0.0)
    # Cancellation repair: |a−b|² ≲ eps·(|a|²+|b|²) is below what the
    # expansion can resolve — recompute those pairs directly.
    scale = sq[:, None] + sq[None, :]
    suspect = d2 <= scale * 1e-10
    np.fill_diagonal(suspect, False)
    if suspect.any():
        rows, cols = np.nonzero(suspect)
        upper = rows < cols  # symmetric: compute each pair once
        for i, j in zip(rows[upper], cols[upper]):
            diff = x[i] - x[j]
            d2[i, j] = d2[j, i] = float(diff @ diff)
    return d2


def pairwise_euclidean(x: np.ndarray) -> np.ndarray:
    """Euclidean distances between rows of ``x`` (FedClust's metric)."""
    return np.sqrt(pairwise_sqeuclidean(x))


def pairwise_cosine_similarity(x: np.ndarray, eps: float = 1e-12) -> np.ndarray:
    """Cosine similarity between rows of ``x`` (CFL's split criterion).

    Zero rows get zero similarity to everything (rather than NaN), which
    matches the "no update" semantics in CFL.
    """
    x = np.asarray(check_array("x", x, ndim=2), dtype=np.float64)
    norms = np.linalg.norm(x, axis=1)
    safe = np.where(norms > eps, norms, 1.0)
    unit = x / safe[:, None]
    unit[norms <= eps] = 0.0
    sim = unit @ unit.T
    np.clip(sim, -1.0, 1.0, out=sim)
    return sim


def pairwise_cosine_distance(x: np.ndarray) -> np.ndarray:
    """``1 − cosine similarity`` with an exact zero diagonal."""
    d = 1.0 - pairwise_cosine_similarity(x)
    np.fill_diagonal(d, 0.0)
    np.maximum(d, 0.0, out=d)
    return d


def condensed_from_square(d: np.ndarray) -> np.ndarray:
    """Upper-triangle (scipy ``pdist``-style) vector of a square matrix."""
    d = validate_distance_matrix(d)
    iu = np.triu_indices(d.shape[0], k=1)
    return d[iu]


def square_from_condensed(condensed: np.ndarray, n: int) -> np.ndarray:
    """Inverse of :func:`condensed_from_square`."""
    condensed = np.asarray(condensed, dtype=np.float64)
    expected = n * (n - 1) // 2
    if condensed.shape != (expected,):
        raise ValueError(
            f"condensed length {condensed.shape} mismatches n={n} "
            f"(expected {expected})"
        )
    out = np.zeros((n, n))
    iu = np.triu_indices(n, k=1)
    out[iu] = condensed
    out.T[iu] = condensed
    return out


def validate_distance_matrix(d: np.ndarray, atol: float = 1e-8) -> np.ndarray:
    """Require a finite symmetric non-negative square matrix, zero diagonal.

    Finiteness comes first and fails loudly naming the offending pair:
    a NaN/Inf distance means an upstream weight vector was already
    corrupt (e.g. a poisoned update that slipped past admission), and
    letting it reach the linkage merge loop would silently skew — or
    stall — the dendrogram instead of surfacing the real fault.
    """
    d = np.asarray(check_square_matrix("distance matrix", d), dtype=np.float64)
    finite = np.isfinite(d)
    if not finite.all():
        i, j = np.argwhere(~finite)[0]
        raise ValueError(
            f"distance matrix has a non-finite entry d[{i}, {j}] = {d[i, j]} "
            "(first offender); upstream weight vectors are corrupt — "
            "check the admission/quarantine pipeline before clustering"
        )
    if np.any(d < -atol):
        raise ValueError("distance matrix has negative entries")
    if not np.allclose(d, d.T, atol=atol):
        raise ValueError("distance matrix is not symmetric")
    if np.any(np.abs(np.diag(d)) > atol):
        raise ValueError("distance matrix diagonal is not zero")
    # Exact-ify the invariants so downstream code can rely on them.
    d = 0.5 * (d + d.T)
    np.fill_diagonal(d, 0.0)
    np.maximum(d, 0.0, out=d)
    return d
