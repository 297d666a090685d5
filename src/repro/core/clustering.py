"""One-shot client clustering (step ⑤ of Fig. 2).

Agglomerative hierarchical clustering over the proximity matrix, with
the adaptive largest-gap cut that frees FedClust from a predefined
cluster count — the flexibility the paper claims over IFCA/CFL.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.cluster.hierarchy import LINKAGE_METHODS, auto_cut_gap, cut_by_k, linkage
from repro.cluster.metrics import silhouette_score
from repro.utils.validation import check_in

__all__ = [
    "ClusteringConfig",
    "ClusteringResult",
    "cluster_clients",
    "silhouette_cut",
]


def silhouette_cut(
    proximity: np.ndarray,
    linkage_matrix: np.ndarray,
    max_clusters: int | None = None,
    tolerance: float = 0.05,
) -> np.ndarray:
    """Adaptive cut by silhouette: the finest k whose score is near-best.

    Like the largest-gap heuristic this needs **no predefined cluster
    count**; unlike it, it scores each candidate partition directly on
    the proximity matrix, which is markedly more robust when the
    between/within-group contrast is soft (Dirichlet label skew, where
    client similarity is continuous rather than block-structured).

    Among k ∈ [2, max], the cut picks the **largest k whose silhouette is
    within ``tolerance`` of the maximum**.  The asymmetry is deliberate
    and task-driven: in clustered FL, over-splitting a true group costs
    little (each sub-cluster still trains on clean same-distribution
    data) while under-splitting mixes distributions and poisons every
    member's model.  On crisp block structure the silhouette drops
    sharply past the true k, so the rule still recovers planted groups
    exactly; on soft structure it prefers the finer personalisation.
    """
    n = linkage_matrix.shape[0] + 1
    upper = min(max_clusters or n - 1, n - 1)
    if upper < 2:
        return cut_by_k(linkage_matrix, 1)
    if tolerance < 0:
        raise ValueError(f"tolerance must be >= 0, got {tolerance}")
    candidates: list[tuple[int, float, np.ndarray]] = []
    for k in range(2, upper + 1):
        labels = cut_by_k(linkage_matrix, k)
        if labels.max() == 0 or labels.max() + 1 >= n:
            continue
        candidates.append((k, silhouette_score(proximity, labels), labels))
    if not candidates:  # degenerate matrix; fall back to one cluster
        return cut_by_k(linkage_matrix, 1)
    best_score = max(score for _, score, _ in candidates)
    for k, score, labels in reversed(candidates):  # finest first
        if score >= best_score - tolerance:
            return labels
    return candidates[0][2]  # unreachable, but keeps the checker happy


@dataclass(frozen=True)
class ClusteringConfig:
    """How the dendrogram is built and cut.

    Attributes
    ----------
    linkage_method:
        Lance–Williams linkage over the proximity matrix (paper does not
        pin one down; ``average`` is the default and A1 ablates it).
    cut:
        ``"auto"`` — largest-gap heuristic (default; no predefined k);
        ``"silhouette"`` — adaptive silhouette-optimal k (no predefined
        k; preferred on soft, Dirichlet-style structure).
    max_clusters:
        Optional ceiling (>= 1) on the cut's cluster count (guards
        against degenerate all-singleton cuts on noisy proximity
        matrices).
    min_gap_ratio:
        Auto-cut guard: if the largest gap is below this fraction of the
        dendrogram height, the federation is declared homogeneous and a
        single cluster is returned.
    """

    linkage_method: str = "average"
    cut: str = "auto"
    max_clusters: int | None = None
    min_gap_ratio: float = 0.0

    def __post_init__(self) -> None:
        check_in("linkage_method", self.linkage_method, LINKAGE_METHODS)
        check_in("cut", self.cut, ("auto", "silhouette"))
        if self.max_clusters is not None and self.max_clusters < 1:
            raise ValueError(f"max_clusters must be >= 1, got {self.max_clusters}")
        if self.min_gap_ratio < 0:
            raise ValueError("min_gap_ratio must be >= 0")


@dataclass
class ClusteringResult:
    """Labels plus the dendrogram they came from."""

    labels: np.ndarray
    linkage_matrix: np.ndarray
    config: ClusteringConfig

    @property
    def n_clusters(self) -> int:
        return int(self.labels.max()) + 1

    def members_of(self, cluster: int) -> np.ndarray:
        """Client ids in ``cluster``."""
        if not 0 <= cluster < self.n_clusters:
            raise ValueError(f"cluster must be in [0, {self.n_clusters})")
        return np.flatnonzero(self.labels == cluster)

    def sizes(self) -> np.ndarray:
        """Cluster sizes, indexed by cluster id."""
        return np.bincount(self.labels, minlength=self.n_clusters)


def cluster_clients(
    proximity: np.ndarray, config: ClusteringConfig | None = None
) -> ClusteringResult:
    """Run HC on a proximity matrix and cut per ``config``."""
    config = config or ClusteringConfig()
    z = linkage(proximity, config.linkage_method)
    if config.cut == "silhouette":
        labels = silhouette_cut(proximity, z, max_clusters=config.max_clusters)
    else:
        labels = auto_cut_gap(
            z, max_clusters=config.max_clusters, min_gap_ratio=config.min_gap_ratio
        )
    return ClusteringResult(labels=labels, linkage_matrix=z, config=config)
