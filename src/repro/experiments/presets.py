"""Experiment scale presets.

The paper's experiments run for hundreds of rounds on real datasets; a
NumPy simulator on a laptop regenerates the same *shapes* at reduced
scale.  Three presets are provided and selected by the ``REPRO_SCALE``
environment variable (default ``quick``):

* ``quick`` — seconds-per-experiment; used by the default benchmark run
  and CI.
* ``bench`` — minutes-per-experiment; tighter statistics.
* ``paper`` — the full configuration (tens of minutes on a laptop);
  closest to the paper's setting of many clients and rounds.

Every preset also fixes the per-method hyper-parameters used by the
Table-I harness so that results are comparable across benches.
"""

from __future__ import annotations

import os
from dataclasses import dataclass

from repro.core.clustering import ClusteringConfig
from repro.fl.config import TrainConfig

__all__ = ["ExperimentScale", "SCALES", "get_scale", "algorithm_kwargs"]


@dataclass(frozen=True)
class ExperimentScale:
    """Knobs that trade fidelity for runtime."""

    name: str
    n_clients: int
    n_samples: int
    n_rounds: int
    seeds: tuple[int, ...]
    train: TrainConfig
    eval_every: int
    fig1_local_steps: int = 30

    def __post_init__(self) -> None:
        if self.n_rounds < 2:
            raise ValueError("n_rounds must be >= 2 (one-shot methods need 2)")
        if not self.seeds:
            raise ValueError("need at least one seed")


SCALES: dict[str, ExperimentScale] = {
    "quick": ExperimentScale(
        name="quick",
        n_clients=16,
        n_samples=2600,
        n_rounds=10,
        seeds=(0,),
        train=TrainConfig(local_epochs=1, batch_size=32, lr=0.03, momentum=0.9),
        eval_every=5,
        fig1_local_steps=20,
    ),
    "bench": ExperimentScale(
        name="bench",
        n_clients=20,
        n_samples=4000,
        n_rounds=15,
        seeds=(0, 1),
        train=TrainConfig(local_epochs=2, batch_size=32, lr=0.03, momentum=0.9),
        eval_every=5,
        fig1_local_steps=30,
    ),
    "paper": ExperimentScale(
        name="paper",
        n_clients=50,
        n_samples=10000,
        n_rounds=40,
        seeds=(0, 1, 2),
        train=TrainConfig(local_epochs=2, batch_size=32, lr=0.03, momentum=0.9),
        eval_every=10,
        fig1_local_steps=50,
    ),
}


def get_scale(name: ExperimentScale | str | None = None) -> ExperimentScale:
    """Resolve a scale: a preset passes through, a name is looked up, and
    ``None`` falls back to ``$REPRO_SCALE`` then quick."""
    if isinstance(name, ExperimentScale):
        return name
    key = name or os.environ.get("REPRO_SCALE", "quick")
    if key not in SCALES:
        raise ValueError(f"unknown scale {key!r}; options: {sorted(SCALES)}")
    return SCALES[key]


def algorithm_kwargs(method: str, scale: ExperimentScale) -> dict:
    """Per-method hyper-parameters used by the experiment harness.

    Centralised so Table I, its A3 and C1 studies and the examples all
    run each baseline with the same settings.
    """
    max_k = max(2, scale.n_clients // 2)
    if method == "fedclust":
        return dict(
            warmup_steps=30,
            warmup_lr=0.01,
            warm_start_final_layer=True,
            clustering=ClusteringConfig(
                linkage_method="average",
                cut="silhouette",
                max_clusters=max_k,
            ),
        )
    if method == "ifca":
        return dict(n_clusters=max(2, scale.n_clients // 5))
    if method == "pacfl":
        return dict(n_components=3, max_clusters=max_k)
    if method == "fedprox":
        return dict(mu=0.1)
    if method == "cfl":
        # Sattler's criterion demands near-stationarity of the cluster
        # objective before any split; at simulation horizons that means
        # no splits before roughly the midpoint (the paper's own
        # "CFL needs many rounds" observation).
        return dict(warmup_rounds=max(3, scale.n_rounds // 2))
    return {}
