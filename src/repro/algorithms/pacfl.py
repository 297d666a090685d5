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

from repro.algorithms.base import ClusteredRounds, FLAlgorithm, RunResult
from repro.cluster.hierarchy import auto_cut_gap, cut_by_distance, cut_by_k, linkage
from repro.cluster.subspace import data_subspace, pairwise_subspace_distances
from repro.fl.history import RoundRecord, RunHistory
from repro.fl.rounds import RoundEngine, ScenarioConfig
from repro.fl.simulation import FederatedEnv
from repro.utils.validation import check_in, check_positive

__all__ = ["PACFL"]


class PACFL(FLAlgorithm):
    """One-shot subspace-angle clustering, then per-cluster FedAvg.

    Parameters
    ----------
    n_components:
        ``p``, the per-client subspace rank (paper uses 3–5).
    linkage_method:
        HC linkage over the principal-angle proximity matrix.
    cut:
        ``"auto"`` (largest dendrogram gap), ``"k"`` (fixed count via
        ``n_clusters``) or ``"distance"`` (threshold in summed radians
        via ``cut_threshold``).
    """

    name = "pacfl"

    def __init__(
        self,
        n_components: int = 3,
        linkage_method: str = "average",
        cut: str = "auto",
        n_clusters: int | None = None,
        cut_threshold: float | None = None,
        max_clusters: int | None = None,
    ) -> None:
        check_positive("n_components", n_components)
        check_in("cut", cut, ("auto", "k", "distance"))
        if cut == "k" and n_clusters is None:
            raise ValueError("cut='k' requires n_clusters")
        if cut == "distance" and cut_threshold is None:
            raise ValueError("cut='distance' requires cut_threshold")
        self.n_components = n_components
        self.linkage_method = linkage_method
        self.cut = cut
        self.n_clusters = n_clusters
        self.cut_threshold = cut_threshold
        self.max_clusters = max_clusters

    # ------------------------------------------------------------------
    def cluster_clients(self, env: FederatedEnv) -> tuple[np.ndarray, np.ndarray]:
        """The one-shot clustering step; returns (labels, proximity)."""
        bases = []
        d = int(np.prod(env.federation.input_shape))
        for client in env.federation.clients:
            flat = client.train.images.reshape(len(client.train), d)
            bases.append(data_subspace(flat, self.n_components))
            env.tracker.record_upload(bases[-1].size, phase="clustering")
        proximity = pairwise_subspace_distances(bases)
        z = linkage(proximity, self.linkage_method)
        if self.cut == "k":
            labels = cut_by_k(z, int(self.n_clusters))  # type: ignore[arg-type]
        elif self.cut == "distance":
            labels = cut_by_distance(z, float(self.cut_threshold))  # type: ignore[arg-type]
        else:
            labels = auto_cut_gap(z, max_clusters=self.max_clusters)
        return labels, proximity

    # ------------------------------------------------------------------
    def run(
        self,
        env: FederatedEnv,
        n_rounds: int,
        eval_every: int = 1,
        scenario: ScenarioConfig | None = None,
    ) -> RunResult:
        if n_rounds < 2:
            raise ValueError("PACFL needs >= 2 rounds (1 clustering + training)")
        m = env.federation.n_clients
        history = RunHistory(self.name, env.federation.dataset_name, env.seed)
        engine = RoundEngine(env, scenario)

        # Round 1: the one-shot clustering round (basis upload only).
        # PACFL's signatures are data subspaces the server computes from
        # the one-off basis upload, so clustering covers every client up
        # front; scenario policy shapes the training rounds that follow.
        labels, proximity = self.cluster_clients(env)
        n_clusters = int(labels.max()) + 1
        # Every cluster starts from the initial model, one packed row each.
        strategy = ClusteredRounds(
            np.tile(env.layout.pack(env.init_state()), (n_clusters, 1)), labels
        )
        mean_acc, _ = env.evaluate_packed(strategy.matrix, strategy.labels)
        history.append(
            RoundRecord(
                round_index=1,
                mean_train_loss=float("nan"),
                mean_local_accuracy=mean_acc,
                n_participants=m,
                n_clusters=n_clusters,
                uploaded_params=env.tracker.total_uploaded,
                downloaded_params=env.tracker.total_downloaded,
            )
        )

        accuracy = engine.run(
            strategy, n_rounds - 1, history, first_round=2, eval_every=eval_every
        )
        return RunResult.from_engine(
            engine,
            history,
            accuracy,
            labels,
            proximity=proximity,
            n_clusters=n_clusters,
        )
