"""FedClust — the paper's algorithm.

Workflow (paper Fig. 2):

① the server broadcasts the initial global model to all clients;
② clients train locally for a few epochs;
③ clients upload **only their final-layer weights** (partial weights);
④ the server computes the Euclidean proximity matrix between uploads;
⑤ the server runs agglomerative hierarchical clustering and cuts the
  dendrogram adaptively (no predefined cluster count);
⑥ newcomers are assigned to the nearest cluster in real time, with no
  re-clustering.

Steps ①–⑤ happen in **one communication round**; from the next round
FedClust trains FedAvg-style *within each cluster*.  The clustering
round's upload is just the classifier layer (for LeNet-5 on 10 classes:
850 of 61 706 parameters — 1.4 %), which is the source of the paper's
communication-cost advantage over iterative CFL/IFCA.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass, field
from typing import Mapping

import numpy as np

from repro.algorithms.base import (
    ClusteredRounds,
    FLAlgorithm,
    cohort_matrix,
    global_state,
)
from repro.core.clustering import ClusteringConfig, ClusteringResult, cluster_clients
from repro.core.newcomer import NewcomerAssignment, assign_newcomer
from repro.core.proximity import ProximityResult, proximity_matrix
from repro.core.weights import (
    final_layer_keys,
    layer_index_keys,
    layer_keys,
    packed_weight_matrix,
)
from repro.data.dataset import ArrayDataset
from repro.fl.aggregation import packed_weighted_average
from repro.fl.client import local_train
from repro.fl.parallel import UpdateTask
from repro.fl.rounds import RoundEngine
from repro.fl.simulation import FederatedEnv
from repro.nn.module import Module
from repro.nn.state import flatten_state
from repro.nn.state_flat import unpack_keys, unpack_state
from repro.utils.rng import STREAM_TAGS, rng_for
from repro.utils.serialization import to_jsonable
from repro.utils.validation import check_positive

__all__ = ["FedClustConfig", "FedClust", "FittedFedClust", "resolve_selection_keys"]

_NEWCOMER_TAG = STREAM_TAGS["newcomer"]


def resolve_selection_keys(model: Module, selection: str) -> list[str]:
    """Map a weight-selection spec to state-dict keys.

    * ``"final_layer"`` — the classifier (paper's choice);
    * ``"all"`` — every parameter (what CFL-style methods transfer; the
      A2 ablation baseline);
    * ``"layer:<name>"`` — one named layer (e.g. ``"layer:conv1"``);
    * ``"index:<i>"`` — the i-th weighted layer, 1-based, Fig. 1 style.
    """
    if selection == "final_layer":
        return final_layer_keys(model)
    if selection == "all":
        return [name for name, _ in model.named_parameters()]
    if selection.startswith("layer:"):
        return layer_keys(model, selection.split(":", 1)[1])
    if selection.startswith("index:"):
        return layer_index_keys(model, int(selection.split(":", 1)[1]))[1]
    raise ValueError(
        f"unknown weight selection {selection!r}; use 'final_layer', 'all', "
        "'layer:<name>' or 'index:<i>'"
    )


@dataclass(frozen=True)
class FedClustConfig:
    """FedClust hyper-parameters.

    Attributes
    ----------
    clustering:
        Dendrogram construction/cut settings (step ⑤).
    warmup_lr, warmup_momentum:
        Optimiser overrides for the clustering round only.  The paper does
        not specify the warm-up optimiser; empirically the weight
        signature is far sharper with a gentle, momentum-free pass
        (momentum amplifies last-batch noise in the classifier weights),
        so ``warmup_momentum`` defaults to 0.0 while ``warmup_lr = None``
        keeps the environment's learning rate.  Set either to ``None`` to
        inherit the environment's value.
    warmup_steps:
        If set, every client performs exactly this many SGD steps in the
        clustering round (epochs repeat as needed, capped at the step
        budget).  Equalising steps removes the dataset-size confound on
        Dirichlet splits: without it, clients with tiny shards barely
        move from the initial weights and cluster by update *magnitude*
        instead of data distribution.  ``None`` keeps the environment's
        ``local_epochs``.
    warm_start_final_layer:
        If True, each cluster's initial model replaces its classifier
        with the within-cluster average of the uploaded final layers.
        The paper does not specify this (default False); the A2 ablation
        measures its effect — it is free information the server already
        holds.
    max_clustering_attempts:
        Straggler tolerance for the one-shot round: clients that fail to
        report (e.g. under ``ScenarioConfig(failure_rate=...)``) are
        retried up to this many times; clients still dark afterwards are
        provisionally assigned to the largest cluster and recorded in
        ``FittedFedClust.stragglers`` (they can be re-routed later through
        the newcomer mechanism once they come back online).
    """

    clustering: ClusteringConfig = field(default_factory=ClusteringConfig)
    warmup_lr: float | None = None
    warmup_momentum: float | None = 0.0
    warmup_steps: int | None = None
    warm_start_final_layer: bool = False
    max_clustering_attempts: int = 3

    def __post_init__(self) -> None:
        if isinstance(self.clustering, Mapping):
            # The JSON form a harness matrix writes for this kwarg.
            object.__setattr__(self, "clustering", ClusteringConfig(**self.clustering))
        if self.warmup_lr is not None:
            check_positive("warmup_lr", self.warmup_lr)
        if self.warmup_momentum is not None and self.warmup_momentum < 0:
            raise ValueError(f"warmup_momentum must be >= 0, got {self.warmup_momentum}")
        if self.warmup_steps is not None:
            check_positive("warmup_steps", self.warmup_steps)
        check_positive("max_clustering_attempts", self.max_clustering_attempts)

    def warmup_train_cfg(self, base: "TrainConfig") -> "TrainConfig":  # noqa: F821
        """The clustering-round training config derived from ``base``."""
        overrides: dict[str, object] = {}
        if self.warmup_lr is not None:
            overrides["lr"] = self.warmup_lr
        if self.warmup_momentum is not None:
            overrides["momentum"] = self.warmup_momentum
        if self.warmup_steps is not None:
            # Enough epochs to hit the step budget even for one-batch
            # clients; max_steps enforces the exact count.
            overrides["local_epochs"] = self.warmup_steps
            overrides["max_steps"] = self.warmup_steps
        return dataclasses.replace(base, **overrides) if overrides else base


@dataclass
class FittedFedClust:
    """Server-side artefacts of the one-shot clustering round.

    Retained so newcomers can be assigned without re-clustering (step ⑥)
    and so the proximity matrix (the Fig. 1 heat map) and the linkage
    matrix (``clustering.linkage_matrix``) can be read after the run.
    A run's strategy declares it as checkpoint state.  After the run,
    ``labels`` and ``cluster_states`` are the served ones.
    """

    labels: np.ndarray
    weight_matrix: np.ndarray
    proximity: ProximityResult
    clustering: ClusteringResult
    selection_keys: list[str]
    config: FedClustConfig
    cluster_states: list[dict[str, np.ndarray]]
    #: Clients whose warm-up never arrived (assigned by fallback).
    stragglers: list[int]
    #: Clients not eligible at the clustering round (a later scenario
    #: arrival, or off the availability trace).  They hold the fallback
    #: label; scenario arrivals are onboarded as newcomers when they
    #: arrive.
    absent: list[int]
    #: Client ids whose rows make up ``weight_matrix`` (all clients when
    #: nothing straggled or was absent).
    responders: np.ndarray

    @property
    def n_clusters(self) -> int:
        return int(self.labels.max()) + 1

    def assign_newcomer_vector(self, vector: np.ndarray) -> NewcomerAssignment:
        """Step ⑥ for an already-extracted weight vector.

        Matches against the retained *responder* signatures — stragglers
        have no signature and never dilute the matching.
        """
        return assign_newcomer(
            vector,
            self.weight_matrix,
            self.labels[self.responders],
            linkage_method=self.config.clustering.linkage_method,
        )


class _FedClustRounds(ClusteredRounds):
    """Per-cluster training with arrival-driven newcomer onboarding.

    Built on FedAvg's one row; the clustering round
    (:meth:`FedClust.cluster`) replaces the matrix and the labels and
    keeps its ``fitted`` result.  The engine notifies the strategy when
    scenario arrivals occur; each arriving client runs the paper's step
    ⑥ — warm up from the initial model, upload the
    partial-weight signature, match against the responders' weight
    matrix — and is re-routed from its fallback cluster *before* it
    first participates.  A checkpoint holds the cluster matrix, the
    labels, ``fitted`` and the ``onboarded`` assignments, so a resumed
    run matches newcomers against the file's signatures and never
    repeats the clustering round.
    """

    name = "fedclust"
    resumable = (*ClusteredRounds.resumable, "fitted", "onboarded")
    #: The clustering round's result (``None`` until it ran).
    fitted: FittedFedClust | None
    #: client id → NewcomerAssignment for arrivals onboarded mid-run.
    onboarded: dict[int, NewcomerAssignment]

    def __init__(self, algo: "FedClust", env: FederatedEnv) -> None:
        super().__init__(*global_state(env))
        self.algo = algo
        self.fitted = None
        self.onboarded = {}

    def on_arrivals(
        self, engine: RoundEngine, round_index: int, arrived: np.ndarray
    ) -> None:
        env = engine.env
        for cid in arrived:
            cid = int(cid)
            assignment = self.algo._match_newcomer(
                env, self.fitted, env.federation.clients[cid].train, cid
            )
            self.set_label(cid, assignment.cluster)
            self.onboarded[cid] = assignment


class FedClust(FLAlgorithm):
    """One-shot weight-driven clustered federated learning."""

    name = "fedclust"
    one_shot = True

    def __init__(self, config: FedClustConfig | None = None) -> None:
        self.config = config or FedClustConfig()

    def settings(self) -> dict:
        # One key per config field, so a refused resume names the field.
        return to_jsonable(self.config)

    # ------------------------------------------------------------------
    # Step ①–⑤: the clustering round
    # ------------------------------------------------------------------
    def clustering_round(
        self,
        env: FederatedEnv,
        round_index: int = 1,
        engine: RoundEngine | None = None,
    ) -> FittedFedClust:
        """Run the one-shot clustering round and fit the cluster structure.

        ``engine`` supplies the scenario: the round targets the clients
        eligible at ``round_index`` (the others, such as later arrivals
        or clients off the availability trace, receive no warm-up task
        and hold the fallback label as ``absent``), and seeded failures
        and stragglers compose with the retry loop below.  The default
        is a no-failure engine, which reproduces the historical
        behaviour exactly.

        The clustering round is a synchronous barrier even under an
        async scenario: it runs through :meth:`RoundEngine.dispatch`
        (the lockstep primitive), because the one-shot signature
        clustering needs every responder's warm-up *before* any cluster
        model exists to train against — there is no model to aggregate
        into a buffer yet.  Only the training rounds that follow stream
        through the async engine.
        """
        m = env.federation.n_clients
        engine = engine or RoundEngine(env)
        init = env.init_state()
        selection = final_layer_keys(env.scratch_model)

        # ①–② broadcast + local warm-up, with straggler retries through the
        # engine's shared retry primitive (the seeded-epoch derivation this
        # loop pioneered now lives in RoundEngine.dispatch_with_retry).
        # Executors and scenarios that never fail respond fully on the
        # first attempt, so the retry loop is free in the common path.
        original = env.train_cfg
        warmup_cfg = self.config.warmup_train_cfg(original)
        targets = [int(cid) for cid in engine.eligible_clients(round_index)]
        absent = sorted(set(range(m)) - set(targets))
        # Broadcast payload: the packed init row (shared by every task,
        # so executors encode it once); no dict ships.
        init_vector = env.layout.pack(init)

        def warmup_tasks(pending: list[int]) -> list[UpdateTask]:
            return [UpdateTask(cid, flat=init_vector) for cid in pending]

        # Upload accounting stays with us: the clustering upload is the
        # partial-weight slice, not the full model (step ③).
        env.train_cfg = warmup_cfg
        try:
            updates_by_client, pending = engine.dispatch_with_retry(
                warmup_tasks,
                targets,
                round_index,
                self.config.max_clustering_attempts,
                phase="clustering",
                charge_upload=False,
            )
        finally:
            env.train_cfg = original
        stragglers = sorted(pending)
        responders = np.array(sorted(updates_by_client), dtype=np.int64)
        if responders.size < 2:
            raise RuntimeError(
                "clustering round needs >= 2 responding clients, got "
                f"{responders.size} (stragglers: {stragglers})"
            )

        # ③ upload only the selected partial weights (responders only).
        # The responders' states live as one packed cohort matrix; the
        # uploaded weight matrix is a column slice of it — no per-client
        # flatten.  (Materialised with a copy so retaining it in
        # FittedFedClust does not pin the full cohort buffer.)
        updates = [updates_by_client[cid] for cid in responders]
        cohort = cohort_matrix(env, updates)
        w = np.ascontiguousarray(
            packed_weight_matrix(cohort, env.layout, selection)
        )
        env.tracker.record_upload(int(w.shape[1]) * len(responders), phase="clustering")

        # ④ proximity matrix; ⑤ hierarchical clustering + adaptive cut.
        prox = proximity_matrix(w)
        clustering = cluster_clients(prox.matrix, self.config.clustering)

        # Expand responder labels to all clients; stragglers and absent
        # clients fall back to the largest cluster (arrivals until they
        # are onboarded as newcomers).
        labels = np.full(m, -1, dtype=np.int64)
        labels[responders] = clustering.labels
        if stragglers or absent:
            fallback = int(np.bincount(clustering.labels).argmax())
            labels[stragglers] = fallback
            labels[absent] = fallback

        # Initial per-cluster models.
        cluster_states = []
        for g in range(clustering.n_clusters):
            state = {k: v.copy() for k, v in init.items()}
            if self.config.warm_start_final_layer:
                # Within-cluster average of the uploaded rows: one GEMV
                # over the already-sliced weight matrix.
                members = clustering.members_of(g)
                sizes = [updates[i].n_samples for i in members]
                averaged = packed_weighted_average(w[np.asarray(members)], sizes)
                state.update(unpack_keys(averaged, env.layout, selection))
            cluster_states.append(state)

        return FittedFedClust(
            labels=labels,
            weight_matrix=w,
            proximity=prox,
            clustering=clustering,
            selection_keys=selection,
            config=self.config,
            cluster_states=cluster_states,
            stragglers=stragglers,
            absent=absent,
            responders=responders,
        )

    # ------------------------------------------------------------------
    # The run's hooks
    # ------------------------------------------------------------------
    def strategy(self, env: FederatedEnv) -> _FedClustRounds:
        return _FedClustRounds(self, env)

    def cluster(self, engine: RoundEngine, strategy: _FedClustRounds) -> int:
        # Scenario arrivals after round 1 miss the one-shot clustering;
        # they are onboarded through the newcomer path (step ⑥) by the
        # training strategy at their arrival round.
        fitted = self.clustering_round(engine.env, engine=engine)
        strategy.fitted = fitted
        # The cluster models move into the matrix the run trains, so a
        # checkpoint holds them once; extras() hands the trained ones back.
        strategy.matrix = np.stack(
            [engine.env.layout.pack(s) for s in fitted.cluster_states]
        )
        fitted.cluster_states = []
        strategy.labels = fitted.labels.copy()
        return len(fitted.responders) + len(fitted.stragglers)

    def extras(self, engine: RoundEngine, strategy: _FedClustRounds) -> dict:
        fitted = strategy.fitted
        fitted.cluster_states = [
            dict(unpack_state(row, engine.env.layout)) for row in strategy.matrix
        ]
        fitted.labels = strategy.labels.copy()
        return {
            "fitted": fitted,
            "n_clusters": fitted.n_clusters,
            "onboarded": strategy.onboarded,
        }

    # ------------------------------------------------------------------
    # Step ⑥: newcomers
    # ------------------------------------------------------------------
    def incorporate_newcomer(
        self,
        env: FederatedEnv,
        fitted: FittedFedClust,
        train_dataset: ArrayDataset,
        newcomer_id: int = 0,
    ) -> tuple[NewcomerAssignment, Mapping[str, np.ndarray]]:
        """Onboard a new client in real time.

        The newcomer downloads the *initial* global model, trains the same
        warm-up epochs the clustering round used, uploads its partial
        weights, and is matched against the retained weight matrix.
        Returns the assignment plus the cluster model it should now use.
        """
        assignment = self._match_newcomer(env, fitted, train_dataset, newcomer_id)
        env.tracker.record_download(env.n_params, phase="newcomer")
        return assignment, fitted.cluster_states[assignment.cluster]

    def _match_newcomer(
        self,
        env: FederatedEnv,
        fitted: FittedFedClust,
        train_dataset: ArrayDataset,
        newcomer_id: int,
    ) -> NewcomerAssignment:
        """Step ⑥ up to the match, shared by :meth:`incorporate_newcomer`
        and mid-run arrivals: download the initial model, warm up as the
        clustering round did, upload the selected weights, match them."""
        env.tracker.record_download(env.n_params, phase="newcomer")
        model = env.scratch_model
        model.load_state_dict(env.init_state())
        local_train(
            model,
            train_dataset,
            self.config.warmup_train_cfg(env.train_cfg),
            rng_for(env.seed, _NEWCOMER_TAG, newcomer_id),
        )
        vector = flatten_state(model.state_dict(copy=False), fitted.selection_keys)
        env.tracker.record_upload(vector.shape[0], phase="newcomer")
        return fitted.assign_newcomer_vector(vector)
