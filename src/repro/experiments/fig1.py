"""Experiment F1 — the paper's Fig. 1 (motivation).

Ten clients in two planted label groups (G1 = {0..4}, G2 = {5..9}) train
a VGG-16-layout model locally from a common initialisation; for a set of
weighted-layer indices the server computes the pairwise Euclidean
distance matrix between the clients' weights at that layer.

The paper's observation, which this experiment quantifies with the
:func:`repro.cluster.metrics.group_separability` ratio, is that early
convolutional layers show no group structure while the final
fully-connected (classifier) layer shows it sharply — the insight
FedClust's partial-weight upload is built on.  Layer indices follow the
paper: 1 and 7 are convolutions, 14 and 16 are FC layers (16 = the
classifier) in the 16-weighted-layer VGG layout.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass

import numpy as np

from repro.cluster.metrics import group_separability
from repro.core.proximity import proximity_matrix
from repro.algorithms.base import cohort_matrix
from repro.core.weights import layer_index_keys, packed_weight_matrix
from repro.data.federation import build_federation
from repro.experiments.presets import ExperimentScale, get_scale
from repro.fl.parallel import UpdateTask
from repro.fl.simulation import FederatedEnv
from repro.nn.models import parameterized_layers
from repro.utils.logging import get_logger
from repro.utils.tables import Table, render_matrix

__all__ = ["Fig1Result", "run_fig1", "format_fig1"]

_LOG = get_logger("experiments.fig1")

#: The paper's probed layers: (index, kind) in VGG-16's weighted-layer order.
PAPER_LAYERS: tuple[tuple[int, str], ...] = (
    (1, "CL"),
    (7, "CL"),
    (14, "FL"),
    (16, "FL"),
)


@dataclass
class Fig1Result:
    """Distance matrices and separability per probed layer."""

    layer_indices: list[int]
    layer_names: dict[int, str]
    distance_matrices: dict[int, np.ndarray]
    separability: dict[int, float]
    true_groups: np.ndarray
    model_name: str

    def best_layer(self) -> int:
        """Layer index with the highest group separability."""
        return max(self.separability, key=lambda i: self.separability[i])


def run_fig1(
    dataset: str = "cifar10",
    n_clients: int = 10,
    model_name: str = "vgg16_style",
    layer_indices: tuple[int, ...] = tuple(i for i, _ in PAPER_LAYERS),
    scale: ExperimentScale | str | None = None,
    seed: int = 0,
    local_steps: int | None = None,
    groups: list[list[int]] | None = None,
) -> Fig1Result:
    """Reproduce the Fig. 1 probe.

    Clients are split into two label groups (paper's G1/G2 by default),
    each trains the model locally from the shared init for a fixed number
    of SGD steps, and per-layer distance matrices are computed.
    """
    scale = scale if isinstance(scale, ExperimentScale) else get_scale(scale)
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
    n_layers = len(parameterized_layers(env.scratch_model))
    bad = [i for i in layer_indices if not 1 <= i <= n_layers]
    if bad:
        raise ValueError(
            f"layer indices {bad} out of range for {model_name} "
            f"({n_layers} weighted layers)"
        )

    # One packed initial row shared by every task: one broadcast cohort.
    init = env.layout.pack(env.init_state())
    updates = env.run_updates(
        [UpdateTask(cid, init) for cid in range(n_clients)], round_index=1
    )
    updates.sort(key=lambda u: u.client_id)
    # One packed cohort; each probed layer is a column slice of it.
    cohort = cohort_matrix(env, updates)

    matrices: dict[int, np.ndarray] = {}
    separability: dict[int, float] = {}
    names: dict[int, str] = {}
    for index in layer_indices:
        name, keys = layer_index_keys(env.scratch_model, index)
        w = packed_weight_matrix(cohort, env.layout, keys)
        matrices[index] = proximity_matrix(w).matrix
        separability[index] = group_separability(
            matrices[index], federation.true_groups
        )
        names[index] = name
        _LOG.info(
            "fig1 layer %d (%s): separability %.3f", index, name, separability[index]
        )

    return Fig1Result(
        layer_indices=list(layer_indices),
        layer_names=names,
        distance_matrices=matrices,
        separability=separability,
        true_groups=federation.true_groups,
        model_name=model_name,
    )


def format_fig1(result: Fig1Result, shade: bool = True) -> str:
    """Terminal rendering of the four panels + separability summary."""
    blocks = []
    kind = dict(PAPER_LAYERS)
    for index in result.layer_indices:
        label = kind.get(index, "?")
        blocks.append(
            f"-- Layer {index} ({label}; {result.layer_names[index]}) "
            f"separability={result.separability[index]:.2f} --"
        )
        blocks.append(
            render_matrix(
                result.distance_matrices[index],
                row_labels=[f"c{i}" for i in range(len(result.true_groups))],
                shade=shade,
            )
        )
    summary = Table(
        title="Group separability by layer (higher = structure more visible)",
        columns=["Layer", "Name", "Separability"],
    )
    for index in result.layer_indices:
        summary.add_row(
            [str(index), result.layer_names[index], f"{result.separability[index]:.3f}"]
        )
    blocks.append(summary.render())
    return "\n".join(blocks)
