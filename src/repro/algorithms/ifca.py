"""IFCA — the Iterative Federated Clustering Algorithm (Ghosh et al.,
NeurIPS 2020).

The server maintains ``k`` cluster models (``k`` **predefined** — the
paper's first criticism of existing CFL).  Every round it broadcasts all
``k`` models to every participant; each participant evaluates its local
training loss under each and adopts the argmin, trains that model
locally, and the server aggregates per cluster.  The ``k×`` download is
IFCA's characteristic communication overhead (the C1 experiment).

Under partial participation only the round's participants re-probe
their assignment; everyone else keeps the label from the last round
they participated in (evaluation always serves each client its current
label's model).

The server state is :class:`repro.algorithms.base.ClusteredRounds`'
``(k, n_params)`` matrix and label vector; IFCA adds only the
re-labelling of each round's participants before the broadcast.
Aggregation, evaluation, checkpoints and the round's train loss (the
mean over clusters of each cluster's trained survivors' mean loss) are
the shared ones.
"""

from __future__ import annotations

import numpy as np

from repro.algorithms.base import ClusteredRounds, FLAlgorithm, RunResult
from repro.fl.eval_flat import fused_evaluate
from repro.fl.history import RunHistory
from repro.fl.parallel import UpdateTask
from repro.fl.rounds import RoundEngine, ScenarioConfig
from repro.fl.simulation import FederatedEnv
from repro.nn.models import build_model
from repro.utils.rng import STREAM_TAGS, rng_for
from repro.utils.validation import check_positive

__all__ = ["IFCA"]

_IFCA_INIT_TAG = STREAM_TAGS["ifca_init"]


class _IFCARounds(ClusteredRounds):
    """k cluster rows; participants re-label by loss argmin each round."""

    name = "ifca"

    def __init__(self, algo: "IFCA", env: FederatedEnv) -> None:
        super().__init__(
            algo._initial_matrix(env),
            np.zeros(env.federation.n_clients, dtype=np.int64),
        )
        self.algo = algo

    def broadcast_for(
        self, engine: RoundEngine, round_index: int, participants: np.ndarray
    ) -> list[UpdateTask]:
        # A trace can schedule a fully-dark round: nothing to probe,
        # nothing to broadcast, every label and model stays put.
        if participants.size:
            # Broadcast all k models to every participant (the k×
            # download; the engine charges the 1× baseline in dispatch,
            # the k−1 extra probe copies are recorded here).
            env = engine.env
            extra = (len(self.matrix) - 1) * env.n_params * len(participants)
            if extra:
                env.tracker.record_download(extra, engine.phase)
            self.labels[participants] = self.algo._assign(
                env, self.matrix, participants
            )
        return super().broadcast_for(engine, round_index, participants)


class IFCA(FLAlgorithm):
    """Loss-based iterative clustered FL with a fixed cluster count.

    Parameters
    ----------
    n_clusters:
        The predefined ``k``.  IFCA's accuracy is sensitive to this
        matching the true group count — exactly the flexibility problem
        FedClust removes.
    assignment_batches:
        Batches of local train data used for the per-model loss probe
        (caps the cost of the k-way evaluation on large clients).
    """

    name = "ifca"

    def __init__(self, n_clusters: int = 2, assignment_batches: int = 4) -> None:
        check_positive("n_clusters", n_clusters)
        check_positive("assignment_batches", assignment_batches)
        self.n_clusters = n_clusters
        self.assignment_batches = assignment_batches

    # ------------------------------------------------------------------
    def _initial_matrix(self, env: FederatedEnv) -> np.ndarray:
        """k independently-initialised cluster models as packed rows.

        IFCA's cluster models live on the flat plane for the whole run:
        the k× broadcast ships the rows, assignment probing loads them via ``load_flat``, and
        aggregation writes rows back — the state-dict hop is gone.
        """
        rows = []
        for j in range(self.n_clusters):
            model = build_model(
                env.model_name,
                env.federation.input_shape,
                env.federation.n_classes,
                rng_for(env.seed, _IFCA_INIT_TAG, j),
                **env.model_kwargs,
            )
            rows.append(env.layout.pack(model.state_dict(copy=False)))
        return np.stack(rows)

    def _assign(
        self,
        env: FederatedEnv,
        matrix: np.ndarray,
        clients: np.ndarray,
    ) -> np.ndarray:
        """Each probed client picks the cluster model with lowest local loss.

        Fused on the flat plane's eval path: each of the ``k`` candidate
        rows is loaded once (no dict materialised) and probed against
        the probed clients' capped train splits in shared batches (k
        fused sweeps instead of ``k × m`` per-client loops), with
        per-client losses recovered by segment reduction.
        """
        losses = np.zeros((len(clients), self.n_clusters))
        cap = self.assignment_batches * env.train_cfg.batch_size
        probes = []
        for cid in clients:
            train = env.federation.clients[int(cid)].train
            probes.append(train if len(train) <= cap else train.subset(np.arange(cap)))
        for j, vector in enumerate(matrix):
            env.scratch_model.load_flat(vector, env.layout)
            losses[:, j] = fused_evaluate(
                env.scratch_model, probes, batch_size=env.train_cfg.eval_batch_size
            ).loss
        return losses.argmin(axis=1)

    # ------------------------------------------------------------------
    def run(
        self,
        env: FederatedEnv,
        n_rounds: int,
        eval_every: int = 1,
        scenario: ScenarioConfig | None = None,
    ) -> RunResult:
        history = RunHistory(self.name, env.federation.dataset_name, env.seed)
        strategy = _IFCARounds(self, env)
        engine = RoundEngine(env, scenario)
        accuracy = engine.run(strategy, n_rounds, history, eval_every=eval_every)
        return RunResult.from_engine(
            engine, history, accuracy, strategy.labels, k=self.n_clusters
        )
