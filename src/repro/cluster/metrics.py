"""Cluster-quality metrics, from scratch.

Used to score how well a CFL method's client grouping recovers planted
ground truth (ARI) and to characterise proximity matrices
(silhouette, separability ratio — the quantity the paper's Fig. 1 shows
qualitatively).
"""

from __future__ import annotations

import numpy as np

from repro.cluster.distance import validate_distance_matrix

__all__ = [
    "contingency_table",
    "adjusted_rand_index",
    "silhouette_score",
    "group_separability",
]


def _as_labels(name: str, labels: np.ndarray) -> np.ndarray:
    arr = np.asarray(labels)
    if arr.ndim != 1 or arr.size == 0:
        raise ValueError(f"{name} must be a non-empty 1-D array, got shape {arr.shape}")
    return arr


def contingency_table(labels_a: np.ndarray, labels_b: np.ndarray) -> np.ndarray:
    """Cross-tabulation ``n_ij`` = |cluster i of a ∩ cluster j of b|."""
    a = _as_labels("labels_a", labels_a)
    b = _as_labels("labels_b", labels_b)
    if a.shape != b.shape:
        raise ValueError(f"label arrays differ in length: {a.shape} vs {b.shape}")
    _, ai = np.unique(a, return_inverse=True)
    _, bi = np.unique(b, return_inverse=True)
    table = np.zeros((ai.max() + 1, bi.max() + 1), dtype=np.int64)
    np.add.at(table, (ai, bi), 1)
    return table


def _comb2(x: np.ndarray) -> np.ndarray:
    """n choose 2, elementwise."""
    x = np.asarray(x, dtype=np.float64)
    return x * (x - 1) / 2.0


def adjusted_rand_index(labels_true: np.ndarray, labels_pred: np.ndarray) -> float:
    """Hubert–Arabie adjusted Rand index in [-1, 1]; 1 = identical
    partitions (up to relabelling), ~0 = chance."""
    table = contingency_table(labels_true, labels_pred)
    n = table.sum()
    sum_comb = _comb2(table).sum()
    sum_a = _comb2(table.sum(axis=1)).sum()
    sum_b = _comb2(table.sum(axis=0)).sum()
    total = _comb2(np.array([n])).item()
    expected = sum_a * sum_b / total if total else 0.0
    max_index = 0.5 * (sum_a + sum_b)
    denom = max_index - expected
    if denom == 0:  # both partitions trivial (all-one-cluster or all-singletons)
        return 1.0 if sum_comb == sum_a == sum_b else 0.0
    return float((sum_comb - expected) / denom)


def silhouette_score(distance_matrix: np.ndarray, labels: np.ndarray) -> float:
    """Mean silhouette over points, computed from a distance matrix.

    Singleton clusters contribute 0 (scikit-learn's convention).  Requires
    at least 2 clusters.
    """
    d = validate_distance_matrix(distance_matrix)
    labels = _as_labels("labels", labels)
    n = d.shape[0]
    if labels.shape != (n,):
        raise ValueError(f"labels length {labels.shape} mismatches matrix ({n})")
    unique = np.unique(labels)
    if len(unique) < 2:
        raise ValueError("silhouette requires at least 2 clusters")
    if len(unique) >= n:
        raise ValueError("silhouette undefined when every point is a singleton")

    scores = np.zeros(n)
    masks = {c: labels == c for c in unique}
    for i in range(n):
        own = masks[labels[i]]
        n_own = own.sum()
        if n_own <= 1:
            scores[i] = 0.0
            continue
        a = d[i, own].sum() / (n_own - 1)  # exclude self (d[i,i]=0)
        b = min(d[i, masks[c]].mean() for c in unique if c != labels[i])
        scores[i] = (b - a) / max(a, b) if max(a, b) > 0 else 0.0
    return float(scores.mean())


def group_separability(distance_matrix: np.ndarray, groups: np.ndarray) -> float:
    """Mean between-group distance over mean within-group distance.

    The paper's Fig. 1 shows distance matrices where the planted two-group
    structure is visible for final-layer weights and invisible for early
    conv layers; this ratio quantifies that visibility (≫1 = clearly
    separated, ≈1 = structureless).  Returns ``inf`` when there are no
    within-group pairs and ``nan`` when there are no between-group pairs.
    """
    d = validate_distance_matrix(distance_matrix)
    groups = _as_labels("groups", groups)
    n = d.shape[0]
    if groups.shape != (n,):
        raise ValueError(f"groups length {groups.shape} mismatches matrix ({n})")
    same = groups[:, None] == groups[None, :]
    off_diag = ~np.eye(n, dtype=bool)
    within = d[same & off_diag]
    between = d[~same]
    if between.size == 0:
        return float("nan")
    if within.size == 0 or within.mean() == 0:
        return float("inf")
    return float(between.mean() / within.mean())
