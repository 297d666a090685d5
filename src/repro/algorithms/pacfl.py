"""PACFL (Vahidian et al., AAAI 2022) — one-shot clustering by principal
angles between client **data** subspaces.

Like FedClust, PACFL clusters in a single communication round and then
trains per-cluster FedAvg.  The difference is *what* is uploaded: each
client sends the top-``p`` left singular vectors of its local data
matrix (a ``d × p`` orthonormal basis), and the server clusters clients
by the sum of principal angles between those subspaces using
average-linkage hierarchical clustering.

FedClust's pitch against PACFL is not communication volume (both are
one-shot) but that weight-based signatures come *for free* from the
training the clients already do, whereas SVD bases are an extra
data-dependent computation whose dimension ``d × p`` scales with input
size (for 3×32×32 images and p = 3, the basis is 9 216 floats — larger
than LeNet-5's whole final layer).
"""

from __future__ import annotations

import numpy as np

from repro.algorithms.base import ClusteredRounds, FLAlgorithm, global_state
from repro.cluster.hierarchy import auto_cut_gap, linkage
from repro.cluster.subspace import data_subspace, pairwise_subspace_distances
from repro.fl.rounds import RoundEngine
from repro.fl.simulation import FederatedEnv
from repro.utils.validation import check_positive

__all__ = ["PACFL"]


class PACFL(FLAlgorithm):
    """One-shot subspace-angle clustering, then per-cluster FedAvg.

    Parameters
    ----------
    n_components:
        ``p``, the per-client subspace rank (paper uses 3–5).
    max_clusters:
        Optional ceiling on the cluster count of the largest-gap cut of
        the average-linkage dendrogram over principal angles.
    """

    name = "pacfl"
    one_shot = True

    def __init__(
        self,
        n_components: int = 3,
        max_clusters: int | None = None,
    ) -> None:
        check_positive("n_components", n_components)
        if max_clusters is not None and max_clusters < 1:
            raise ValueError(f"max_clusters must be >= 1, got {max_clusters}")
        self.n_components = n_components
        self.max_clusters = max_clusters

    # ------------------------------------------------------------------
    def cluster_clients(self, env: FederatedEnv) -> np.ndarray:
        """The one-shot clustering step: every client uploads its data
        basis, and the server cuts the dendrogram; returns the labels."""
        bases = []
        d = int(np.prod(env.federation.input_shape))
        for client in env.federation.clients:
            flat = client.train.images.reshape(len(client.train), d)
            bases.append(data_subspace(flat, self.n_components))
            env.tracker.record_upload(bases[-1].size, phase="clustering")
        z = linkage(pairwise_subspace_distances(bases), "average")
        return auto_cut_gap(z, max_clusters=self.max_clusters)

    def strategy(self, env: FederatedEnv) -> ClusteredRounds:
        return ClusteredRounds(*global_state(env))

    def cluster(self, engine: RoundEngine, strategy: ClusteredRounds) -> int:
        # PACFL's signatures are data subspaces the server computes from
        # the one-off basis upload, so clustering covers every client up
        # front; scenario policy shapes the training rounds that follow.
        strategy.labels = np.asarray(self.cluster_clients(engine.env), dtype=np.int64)
        # Every cluster starts from the initial model, one row each.
        strategy.matrix = np.tile(strategy.matrix, (strategy.labels.max() + 1, 1))
        return engine.env.federation.n_clients

    def extras(self, engine: RoundEngine, strategy: ClusteredRounds) -> dict:
        return {"n_clusters": len(strategy.matrix)}
