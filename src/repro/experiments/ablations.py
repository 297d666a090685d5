"""Ablation experiments (A1–A3) and the communication-cost study (C1).

These go beyond the extended abstract's artefacts to probe the design
choices DESIGN.md calls out:

* **A1 linkage** — does the HC linkage matter for cluster recovery?
* **A2 weight selection** — final layer vs whole model vs first conv
  layer as the clustering signature (the paper's "strategic selection"),
  including the per-client upload cost of each choice.
* **A3 heterogeneity sweep** — FedClust vs FedAvg across Dirichlet α
  (the paper's future-work axis).
* **C1 communication** — total and clustering-phase traffic per method,
  plus traffic needed to first reach a target accuracy.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.algorithms.registry import make_algorithm
from repro.cluster.hierarchy import LINKAGE_METHODS
from repro.cluster.metrics import adjusted_rand_index, group_separability
from repro.core.clustering import ClusteringConfig, cluster_clients
from repro.core.fedclust import FedClust, FedClustConfig
from repro.core.proximity import proximity_matrix
from repro.algorithms.base import cohort_matrix
from repro.core.weights import packed_weight_matrix
from repro.data.federation import build_federation
from repro.experiments.presets import ExperimentScale, algorithm_kwargs, get_scale
from repro.fl.simulation import FederatedEnv
from repro.utils.logging import get_logger
from repro.utils.tables import Table

__all__ = [
    "LinkageAblationResult",
    "run_linkage_ablation",
    "WeightAblationResult",
    "run_weight_ablation",
    "AlphaSweepResult",
    "run_alpha_sweep",
    "CommunicationResult",
    "run_communication_study",
]

_LOG = get_logger("experiments.ablations")


# ----------------------------------------------------------------------
# A1 — linkage
# ----------------------------------------------------------------------
@dataclass
class LinkageAblationResult:
    """Cluster recovery per linkage method on a planted federation."""

    rows: list[dict] = field(default_factory=list)

    def format(self) -> str:
        table = Table(
            title="A1 — HC linkage ablation (planted 2-group federation)",
            columns=["Linkage", "k found", "ARI", "Separability"],
        )
        for row in self.rows:
            table.add_row(
                [
                    row["linkage"],
                    str(row["k"]),
                    f"{row['ari']:.2f}",
                    f"{row['separability']:.2f}",
                ]
            )
        return table.render()

    def ari_of(self, linkage_method: str) -> float:
        for row in self.rows:
            if row["linkage"] == linkage_method:
                return row["ari"]
        raise KeyError(linkage_method)


def run_linkage_ablation(
    dataset: str = "fmnist",
    scale: ExperimentScale | str | None = None,
    seed: int = 0,
) -> LinkageAblationResult:
    """One clustering round, re-cut with each linkage method."""
    scale = scale if isinstance(scale, ExperimentScale) else get_scale(scale)
    federation = build_federation(
        dataset,
        n_clients=scale.n_clients,
        n_samples=scale.n_samples,
        seed=seed,
        partition="label_cluster",
    )
    assert federation.true_groups is not None
    env = FederatedEnv(
        federation, model_name="lenet5", train_cfg=scale.train, seed=seed
    )
    # One warm-up pass; the uploaded weight matrix is shared by all linkages.
    fitted = FedClust(
        FedClustConfig(warmup_steps=20, warmup_lr=0.01)
    ).clustering_round(env)
    sep = group_separability(fitted.proximity.matrix, federation.true_groups)

    result = LinkageAblationResult()
    for method in LINKAGE_METHODS:
        clustering = cluster_clients(
            fitted.proximity.matrix, ClusteringConfig(linkage_method=method)
        )
        ari = adjusted_rand_index(federation.true_groups, clustering.labels)
        result.rows.append(
            {
                "linkage": method,
                "k": clustering.n_clusters,
                "ari": ari,
                "separability": sep,
            }
        )
        _LOG.info("A1 linkage=%s k=%d ari=%.2f", method, clustering.n_clusters, ari)
    return result


# ----------------------------------------------------------------------
# A2 — weight selection
# ----------------------------------------------------------------------
@dataclass
class WeightAblationResult:
    """Signature quality and upload cost per weight selection."""

    rows: list[dict] = field(default_factory=list)

    def format(self) -> str:
        table = Table(
            title="A2 — weight-selection ablation (what clients upload)",
            columns=["Selection", "Upload (params)", "Separability", "ARI", "k"],
        )
        for row in self.rows:
            table.add_row(
                [
                    row["selection"],
                    str(row["upload"]),
                    f"{row['separability']:.2f}",
                    f"{row['ari']:.2f}",
                    str(row["k"]),
                ]
            )
        return table.render()

    def row_of(self, selection: str) -> dict:
        for row in self.rows:
            if row["selection"] == selection:
                return row
        raise KeyError(selection)


def run_weight_ablation(
    dataset: str = "fmnist",
    selections: tuple[str, ...] = ("final_layer", "all", "index:1"),
    scale: ExperimentScale | str | None = None,
    seed: int = 0,
) -> WeightAblationResult:
    """Same warm-up, different uploaded weight subsets."""
    scale = scale if isinstance(scale, ExperimentScale) else get_scale(scale)
    federation = build_federation(
        dataset,
        n_clients=scale.n_clients,
        n_samples=scale.n_samples,
        seed=seed,
        partition="label_cluster",
    )
    assert federation.true_groups is not None
    env = FederatedEnv(
        federation, model_name="lenet5", train_cfg=scale.train, seed=seed
    )
    # Train once with the full state retained, then slice per selection.
    algo = FedClust(FedClustConfig(warmup_steps=20, warmup_lr=0.01))
    from repro.core.fedclust import resolve_selection_keys
    from repro.fl.parallel import UpdateTask

    # One packed initial row shared by every task: one broadcast cohort.
    init = env.layout.pack(env.init_state())
    warm_cfg = algo.config.warmup_train_cfg(env.train_cfg)
    original = env.train_cfg
    env.train_cfg = warm_cfg
    try:
        updates = env.run_updates(
            [UpdateTask(cid, init) for cid in range(federation.n_clients)], 1
        )
    finally:
        env.train_cfg = original
    updates.sort(key=lambda u: u.client_id)
    # One packed cohort; each selection is a column slice of it.
    cohort = cohort_matrix(env, updates)

    result = WeightAblationResult()
    for selection in selections:
        keys = resolve_selection_keys(env.scratch_model, selection)
        w = packed_weight_matrix(cohort, env.layout, keys)
        prox = proximity_matrix(w)
        clustering = cluster_clients(prox.matrix, ClusteringConfig())
        ari = adjusted_rand_index(federation.true_groups, clustering.labels)
        result.rows.append(
            {
                "selection": selection,
                "upload": int(w.shape[1]),
                "separability": group_separability(
                    prox.matrix, federation.true_groups
                ),
                "ari": ari,
                "k": clustering.n_clusters,
            }
        )
        _LOG.info(
            "A2 selection=%s upload=%d ari=%.2f", selection, w.shape[1], ari
        )
    return result


# ----------------------------------------------------------------------
# A3 — heterogeneity sweep
# ----------------------------------------------------------------------
@dataclass
class AlphaSweepResult:
    """FedClust vs FedAvg accuracy across Dirichlet α."""

    alphas: list[float]
    fedavg: list[float]
    fedclust: list[float]
    fedclust_k: list[int]

    def format(self) -> str:
        table = Table(
            title="A3 — heterogeneity sweep (Dirichlet α; higher α → closer to IID)",
            columns=["alpha", "FedAvg acc", "FedClust acc", "FedClust k"],
        )
        for i, alpha in enumerate(self.alphas):
            table.add_row(
                [
                    f"{alpha:g}",
                    f"{100 * self.fedavg[i]:.1f}",
                    f"{100 * self.fedclust[i]:.1f}",
                    str(self.fedclust_k[i]),
                ]
            )
        return table.render()


def run_alpha_sweep(
    alphas: tuple[float, ...] = (0.05, 0.1, 0.5, 1.0, 100.0),
    dataset: str = "cifar10",
    scale: ExperimentScale | str | None = None,
    seed: int = 0,
) -> AlphaSweepResult:
    """The paper's future-work axis: accuracy across heterogeneity levels."""
    scale = scale if isinstance(scale, ExperimentScale) else get_scale(scale)
    fedavg_acc, fedclust_acc, ks = [], [], []
    for alpha in alphas:
        federation = build_federation(
            dataset,
            n_clients=scale.n_clients,
            n_samples=scale.n_samples,
            seed=seed,
            partition="dirichlet",
            alpha=alpha,
        )
        env_a = FederatedEnv(
            federation, model_name="lenet5", train_cfg=scale.train, seed=seed
        )
        res_a = make_algorithm("fedavg").run(
            env_a, n_rounds=scale.n_rounds, eval_every=scale.eval_every
        )
        env_c = FederatedEnv(
            federation, model_name="lenet5", train_cfg=scale.train, seed=seed
        )
        res_c = make_algorithm(
            "fedclust", **algorithm_kwargs("fedclust", scale)
        ).run(env_c, n_rounds=scale.n_rounds, eval_every=scale.eval_every)
        fedavg_acc.append(res_a.final_accuracy)
        fedclust_acc.append(res_c.final_accuracy)
        ks.append(res_c.n_clusters)
        _LOG.info(
            "A3 alpha=%g fedavg=%.3f fedclust=%.3f k=%d",
            alpha,
            res_a.final_accuracy,
            res_c.final_accuracy,
            res_c.n_clusters,
        )
    return AlphaSweepResult(list(alphas), fedavg_acc, fedclust_acc, ks)


# ----------------------------------------------------------------------
# C1 — communication cost
# ----------------------------------------------------------------------
@dataclass
class CommunicationResult:
    """Traffic accounting per method."""

    rows: list[dict] = field(default_factory=list)
    target_accuracy: float = 0.0

    def format(self) -> str:
        table = Table(
            title=(
                "C1 — communication cost (params transferred; "
                f"target accuracy {100 * self.target_accuracy:.0f}%)"
            ),
            columns=[
                "Method",
                "Clustering up",
                "Total up",
                "Total down",
                "MB total",
                f"MB to {100 * self.target_accuracy:.0f}%",
                "Final acc",
            ],
        )
        for row in self.rows:
            table.add_row(
                [
                    row["method"],
                    str(row["clustering_upload"]),
                    str(row["total_upload"]),
                    str(row["total_download"]),
                    f"{row['total_mb']:.1f}",
                    "—" if row["mb_to_target"] is None else f"{row['mb_to_target']:.1f}",
                    f"{100 * row['final_accuracy']:.1f}",
                ]
            )
        return table.render()

    def row_of(self, method: str) -> dict:
        for row in self.rows:
            if row["method"] == method:
                return row
        raise KeyError(method)


def run_communication_study(
    methods: tuple[str, ...] = ("fedavg", "cfl", "ifca", "pacfl", "fedclust"),
    dataset: str = "fmnist",
    scale: ExperimentScale | str | None = None,
    seed: int = 0,
    target_accuracy: float = 0.8,
) -> CommunicationResult:
    """Run each method on a planted federation and account its traffic."""
    scale = scale if isinstance(scale, ExperimentScale) else get_scale(scale)
    federation = build_federation(
        dataset,
        n_clients=scale.n_clients,
        n_samples=scale.n_samples,
        seed=seed,
        partition="label_cluster",
    )
    result = CommunicationResult(target_accuracy=target_accuracy)
    from repro.fl.communication import BYTES_PER_PARAM

    for method in methods:
        env = FederatedEnv(
            federation, model_name="lenet5", train_cfg=scale.train, seed=seed
        )
        algo = make_algorithm(method, **algorithm_kwargs(method, scale))
        run = algo.run(env, n_rounds=scale.n_rounds, eval_every=1)
        comm_to_target = run.history.comm_to_accuracy(target_accuracy)
        result.rows.append(
            {
                "method": method,
                "clustering_upload": env.tracker.uploaded_in("clustering"),
                "total_upload": env.tracker.total_uploaded,
                "total_download": env.tracker.total_downloaded,
                "total_mb": env.tracker.total_bytes / 1e6,
                "mb_to_target": (
                    None
                    if comm_to_target is None
                    else comm_to_target * BYTES_PER_PARAM / 1e6
                ),
                "final_accuracy": run.final_accuracy,
            }
        )
        _LOG.info(
            "C1 %s total=%.1fMB final=%.3f",
            method,
            env.tracker.total_bytes / 1e6,
            run.final_accuracy,
        )
    return result
