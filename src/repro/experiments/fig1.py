"""Experiment F1 — the paper's Fig. 1 (motivation), with A1 and A2.

Ten clients in two planted label groups (G1 = {0..4}, G2 = {5..9}) train
a VGG-16-layout model locally from a common initialisation; for a set of
weight selections the server computes the pairwise Euclidean distance
matrix between the clients' uploaded weights.

The paper's observation, which this experiment quantifies with the
:func:`repro.cluster.metrics.group_separability` ratio, is that early
convolutional layers show no group structure while the final
fully-connected (classifier) layer shows it sharply — the insight
FedClust's partial-weight upload is built on.  Selections are
:func:`repro.core.fedclust.resolve_selection_keys` specs.  The paper's
layers are ``index:<i>``: 1 and 7 are convolutions, 14 and 16 are FC
layers (16 = the classifier) in the 16-weighted-layer VGG layout;
``final_layer`` is what FedClust uploads and ``all`` what CFL-style
methods transfer.

From the same warm-up the probe measures FedClust's two clustering
choices:

* **A2 weight selection** — each selection's upload width beside its
  separability;
* **A1 linkage** — for each linkage in
  :data:`repro.cluster.hierarchy.LINKAGE_METHODS`, the auto cut's
  cluster count and its adjusted Rand index against the planted groups.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from repro.algorithms.base import cohort_matrix
from repro.cluster.hierarchy import LINKAGE_METHODS
from repro.cluster.metrics import adjusted_rand_index, group_separability
from repro.core.clustering import ClusteringConfig, cluster_clients
from repro.core.fedclust import resolve_selection_keys
from repro.core.proximity import proximity_matrix
from repro.core.weights import packed_weight_matrix
from repro.data.federation import build_federation
from repro.experiments.presets import ExperimentScale, get_scale
from repro.fl.parallel import UpdateTask
from repro.fl.simulation import FederatedEnv
from repro.utils.logging import get_logger
from repro.utils.tables import Table, render_matrix

__all__ = ["Cut", "Fig1Result", "Probe", "run_fig1", "format_fig1"]

_LOG = get_logger("experiments.fig1")

#: The paper's probed layers: (index, kind) in VGG-16's weighted-layer order.
PAPER_LAYERS: tuple[tuple[int, str], ...] = (
    (1, "CL"),
    (7, "CL"),
    (14, "FL"),
    (16, "FL"),
)


class Cut(NamedTuple):
    """One linkage's auto cut of a selection's distances."""

    k: int
    ari: float


@dataclass
class Probe:
    """What one weight selection uploads, and what its distances show.

    ``name`` is the selected layer's name, or ``"<n> layers"`` when the
    selection spans several; ``upload`` is the parameters each client
    uploads; ``cuts`` maps each linkage method to its auto cut.
    """

    name: str
    upload: int
    distances: np.ndarray
    separability: float
    cuts: dict[str, Cut]


@dataclass
class Fig1Result:
    """One :class:`Probe` per weight selection, in probe order."""

    probes: dict[str, Probe]
    true_groups: np.ndarray
    model_name: str

    def best_selection(self) -> str:
        """The selection with the highest group separability."""
        return max(self.probes, key=lambda spec: self.probes[spec].separability)


def run_fig1(
    dataset: str = "cifar10",
    n_clients: int = 10,
    model_name: str = "vgg16_style",
    selections: tuple[str, ...] = tuple(f"index:{i}" for i, _ in PAPER_LAYERS),
    scale: ExperimentScale | str | None = None,
    seed: int = 0,
    local_steps: int | None = None,
    groups: list[list[int]] | None = None,
) -> Fig1Result:
    """Reproduce the Fig. 1 probe.

    Clients are split into two label groups (paper's G1/G2 by default),
    each trains the model locally from the shared init for a fixed number
    of momentum-free SGD steps at lr 0.01 (FedClust's warm-up), and each
    selection's distance matrix is computed and cut.
    """
    scale = get_scale(scale)
    steps = local_steps if local_steps is not None else scale.fig1_local_steps
    federation = build_federation(
        dataset,
        n_clients=n_clients,
        n_samples=scale.n_samples,
        seed=seed,
        partition="label_cluster",
        groups=groups,
    )
    assert federation.true_groups is not None
    env = FederatedEnv(
        federation,
        model_name=model_name,
        train_cfg=dataclasses.replace(
            scale.train,
            momentum=0.0,
            lr=0.01,
            local_epochs=steps,
            max_steps=steps,
        ),
        seed=seed,
    )
    # Resolved before training, so a bad spec fails fast.
    keys = {spec: resolve_selection_keys(env.scratch_model, spec) for spec in selections}

    # One packed initial row shared by every task: one broadcast cohort.
    init = env.layout.pack(env.init_state())
    updates = env.run_updates(
        [UpdateTask(cid, init) for cid in range(n_clients)], round_index=1
    )
    updates.sort(key=lambda u: u.client_id)
    # One packed cohort; each selection is a column slice of it.
    cohort = cohort_matrix(env, updates)

    probes: dict[str, Probe] = {}
    for spec, spec_keys in keys.items():
        w = packed_weight_matrix(cohort, env.layout, spec_keys)
        distances = proximity_matrix(w).matrix
        cuts = {}
        for method in LINKAGE_METHODS:
            cut = cluster_clients(distances, ClusteringConfig(linkage_method=method))
            cuts[method] = Cut(
                cut.n_clusters, adjusted_rand_index(federation.true_groups, cut.labels)
            )
        layers = sorted({key.rsplit(".", 1)[0] for key in spec_keys})
        probes[spec] = Probe(
            name=layers[0] if len(layers) == 1 else f"{len(layers)} layers",
            upload=int(w.shape[1]),
            distances=distances,
            separability=group_separability(distances, federation.true_groups),
            cuts=cuts,
        )
        _LOG.info(
            "fig1 %s (%s): upload %d, separability %.3f",
            spec,
            probes[spec].name,
            probes[spec].upload,
            probes[spec].separability,
        )

    return Fig1Result(
        probes=probes, true_groups=federation.true_groups, model_name=model_name
    )


def format_fig1(result: Fig1Result, shade: bool = True) -> str:
    """Terminal rendering: one distance panel per selection, then the
    A1/A2 summary."""
    kind = {f"index:{i}": label for i, label in PAPER_LAYERS}
    labels = [f"c{i}" for i in range(len(result.true_groups))]
    blocks = []
    for spec, probe in result.probes.items():
        name = f"{kind[spec]}; {probe.name}" if spec in kind else probe.name
        blocks.append(f"-- {spec} ({name}) separability={probe.separability:.2f} --")
        blocks.append(render_matrix(probe.distances, row_labels=labels, shade=shade))
    summary = Table(
        title=(
            "Group separability by weight selection (higher = structure more "
            "visible); A2 upload cost, A1 auto cut per linkage (k / ARI)"
        ),
        columns=["Selection", "Name", "Upload (params)", "Separability", *LINKAGE_METHODS],
    )
    for spec, probe in result.probes.items():
        summary.add_row(
            [spec, probe.name, str(probe.upload), f"{probe.separability:.3f}"]
            + [f"{cut.k} / {cut.ari:.2f}" for cut in probe.cuts.values()]
        )
    blocks.append(summary.render())
    return "\n".join(blocks)
