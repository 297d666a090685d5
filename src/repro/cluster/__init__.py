"""Clustering substrate: distances, hierarchical clustering, metrics."""

from repro.cluster.distance import (
    condensed_from_square,
    pairwise_cosine_distance,
    pairwise_cosine_similarity,
    pairwise_euclidean,
    pairwise_sqeuclidean,
    square_from_condensed,
    validate_distance_matrix,
)
from repro.cluster.hierarchy import (
    LINKAGE_METHODS,
    auto_cut_gap,
    canonical_labels,
    cophenetic_matrix,
    cut_by_k,
    linkage,
    merge_heights,
)
from repro.cluster.metrics import (
    adjusted_rand_index,
    contingency_table,
    group_separability,
    silhouette_score,
)
from repro.cluster.subspace import (
    data_subspace,
    pairwise_subspace_distances,
    principal_angles,
    subspace_distance,
)

__all__ = [
    "condensed_from_square",
    "pairwise_cosine_distance",
    "pairwise_cosine_similarity",
    "pairwise_euclidean",
    "pairwise_sqeuclidean",
    "square_from_condensed",
    "validate_distance_matrix",
    "LINKAGE_METHODS",
    "auto_cut_gap",
    "canonical_labels",
    "cophenetic_matrix",
    "cut_by_k",
    "linkage",
    "merge_heights",
    "adjusted_rand_index",
    "contingency_table",
    "group_separability",
    "silhouette_score",
    "data_subspace",
    "pairwise_subspace_distances",
    "principal_angles",
    "subspace_distance",
]
