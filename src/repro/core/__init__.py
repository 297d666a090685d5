"""The paper's primary contribution: FedClust.

Weight-driven one-shot client clustering — partial-weight extraction,
proximity matrices, adaptive hierarchical clustering, real-time newcomer
incorporation, and the full training algorithm.
"""

from repro.core.clustering import ClusteringConfig, ClusteringResult, cluster_clients
from repro.core.fedclust import (
    FedClust,
    FedClustConfig,
    FittedFedClust,
    resolve_selection_keys,
)
from repro.core.newcomer import NewcomerAssignment, assign_newcomer
from repro.core.proximity import ProximityResult, proximity_matrix
from repro.core.weights import (
    final_layer_keys,
    layer_index_keys,
    layer_keys,
    packed_weight_matrix,
    weight_matrix,
)

__all__ = [
    "ClusteringConfig",
    "ClusteringResult",
    "cluster_clients",
    "FedClust",
    "FedClustConfig",
    "FittedFedClust",
    "resolve_selection_keys",
    "NewcomerAssignment",
    "assign_newcomer",
    "ProximityResult",
    "proximity_matrix",
    "final_layer_keys",
    "layer_index_keys",
    "layer_keys",
    "packed_weight_matrix",
    "weight_matrix",
]
