"""Experiment T1 — the paper's Table I — and the two studies on its preset.

Test-accuracy comparison of six methods over three datasets under
Non-IID Dir(0.1): mean ± std of final mean-local-test accuracy across
seeds.  Each (dataset, seed) is one ablation-harness matrix
(:func:`table1_matrix`): one federation, and every method on it from
the same model init, exactly as in the paper, run by
:func:`repro.experiments.ablation.run_cells`.  Two studies rerun that
preset as harness matrices:

* **A3 heterogeneity sweep** (:func:`run_alpha_sweep`) — FedClust vs
  FedAvg across Dirichlet α, the paper's future-work axis; one matrix
  per α;
* **C1 communication** (:func:`run_communication_study`) — total and
  clustering-phase traffic per method on a planted federation, plus the
  traffic needed to first reach a target accuracy; one matrix,
  evaluated every round, read from the records' traffic and curves.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from repro.algorithms.registry import available_algorithms
from repro.experiments.ablation import BASELINE, AblationConfig, run_cells
from repro.experiments.presets import ExperimentScale, algorithm_kwargs, get_scale
from repro.fl.communication import BYTES_PER_PARAM
from repro.utils.logging import get_logger
from repro.utils.tables import Table, format_mean_std

__all__ = [
    "PAPER_TABLE1",
    "AlphaSweepResult",
    "CommunicationResult",
    "Table1Cell",
    "Table1Result",
    "format_table1",
    "run_alpha_sweep",
    "run_communication_study",
    "run_table1",
    "table1_matrix",
]

_LOG = get_logger("experiments.table1")

#: The paper's reported numbers (accuracy %, mean ± std), shown beside
#: ours by :func:`format_table1`.  Keys: (method, dataset alias).
PAPER_TABLE1: dict[tuple[str, str], tuple[float, float]] = {
    ("fedavg", "cifar10"): (38.25, 2.98),
    ("fedavg", "fmnist"): (81.93, 0.64),
    ("fedavg", "svhn"): (61.26, 0.95),
    ("fedprox", "cifar10"): (51.60, 1.40),
    ("fedprox", "fmnist"): (74.53, 2.16),
    ("fedprox", "svhn"): (79.64, 0.80),
    ("cfl", "cifar10"): (41.50, 0.35),
    ("cfl", "fmnist"): (74.01, 1.19),
    ("cfl", "svhn"): (61.96, 1.58),
    ("ifca", "cifar10"): (50.51, 0.61),
    ("ifca", "fmnist"): (84.57, 0.41),
    ("ifca", "svhn"): (74.57, 0.40),
    ("pacfl", "cifar10"): (51.02, 0.24),
    ("pacfl", "fmnist"): (85.30, 0.28),
    ("pacfl", "svhn"): (76.35, 0.46),
    ("fedclust", "cifar10"): (60.25, 0.58),
    ("fedclust", "fmnist"): (95.51, 0.17),
    ("fedclust", "svhn"): (78.23, 0.30),
}


@dataclass
class Table1Cell:
    """One (method, dataset) cell: accuracy stats across seeds."""

    method: str
    dataset: str
    accuracies: list[float] = field(default_factory=list)

    @property
    def mean(self) -> float:
        return float(np.mean(self.accuracies)) if self.accuracies else float("nan")

    @property
    def std(self) -> float:
        return float(np.std(self.accuracies)) if self.accuracies else float("nan")

    @property
    def mean_pct(self) -> float:
        return 100.0 * self.mean

    @property
    def std_pct(self) -> float:
        return 100.0 * self.std


@dataclass
class Table1Result:
    """All cells plus the scale they were produced at, and the harness
    run record of every cell run."""

    cells: dict[tuple[str, str], Table1Cell]
    datasets: list[str]
    methods: list[str]
    scale_name: str
    alpha: float
    records: list[dict] = field(default_factory=list)

    def cell(self, method: str, dataset: str) -> Table1Cell:
        return self.cells[(method, dataset)]

    def winner(self, dataset: str) -> str:
        """Method with the highest mean accuracy on ``dataset``."""
        return max(self.methods, key=lambda m: self.cells[(m, dataset)].mean)


def table1_matrix(
    dataset: str,
    seed: int,
    scale: ExperimentScale,
    methods: Sequence[str],
    alpha: float = 0.1,
    partition: str = "dirichlet",
    eval_every: int | None = None,
    model_name: str = "lenet5",
) -> AblationConfig:
    """Table I's preset on one federation, as a harness matrix.

    Every method in ``methods`` runs with its :func:`algorithm_kwargs` on
    the federation of ``dataset`` at ``seed`` (``alpha`` is read by the
    Dirichlet partition only), in a fresh environment with the same
    model init, under the default scenario.  ``repro run`` builds its
    one cell from this preset too, at a resized ``scale``.
    """
    return AblationConfig(
        name=f"table1-{dataset}-seed{seed}",
        federation=dict(
            dataset_name=dataset,
            n_clients=scale.n_clients,
            n_samples=scale.n_samples,
            seed=seed,
            partition=partition,
            alpha=alpha,
        ),
        model_name=model_name,
        train=dataclasses.asdict(scale.train),
        n_rounds=scale.n_rounds,
        eval_every=eval_every or scale.eval_every,
        algorithms=tuple(methods),
        algorithm_kwargs={method: algorithm_kwargs(method, scale) for method in methods},
        seeds=(seed,),
    )


def run_table1(
    datasets: tuple[str, ...] = ("cifar10", "fmnist", "svhn"),
    methods: tuple[str, ...] | None = None,
    scale: ExperimentScale | str | None = None,
    alpha: float = 0.1,
    model_name: str = "lenet5",
) -> Table1Result:
    """Regenerate Table I at the requested scale, one matrix per
    (dataset, seed)."""
    scale = get_scale(scale)
    methods = tuple(methods) if methods else tuple(available_algorithms())
    result = Table1Result(
        cells={
            (method, ds): Table1Cell(method, ds) for method in methods for ds in datasets
        },
        datasets=list(datasets),
        methods=list(methods),
        scale_name=scale.name,
        alpha=alpha,
    )
    for dataset in datasets:
        for seed in scale.seeds:
            config = table1_matrix(
                dataset, seed, scale, methods, alpha=alpha, model_name=model_name
            )
            for run in run_cells(config, echo=_LOG.info).results:
                result.cells[(run.cell.algorithm, dataset)].accuracies.append(
                    run.record["metrics"]["final_accuracy"]
                )
                result.records.append(run.record)
    return result


def format_table1(result: Table1Result, with_paper: bool = True) -> str:
    """Render the regenerated table (optionally with the paper's column)."""
    columns = ["Method"]
    for ds in result.datasets:
        columns.append(f"{ds} (ours)")
        if with_paper:
            columns.append(f"{ds} (paper)")
    table = Table(
        title=(
            f"Table I — test accuracy (%) under Non-IID Dir({result.alpha}), "
            f"scale={result.scale_name}"
        ),
        columns=columns,
    )
    for method in result.methods:
        row: list[str] = [method]
        for ds in result.datasets:
            cell = result.cells[(method, ds)]
            row.append(format_mean_std(cell.mean_pct, cell.std_pct))
            if with_paper:
                paper = PAPER_TABLE1.get((method, ds))
                row.append(format_mean_std(*paper) if paper else "—")
        table.add_row(row)
    return table.render()


@dataclass
class AlphaSweepResult:
    """A3: FedClust vs FedAvg accuracy across Dirichlet α, and the
    harness run record of every cell run."""

    alphas: list[float]
    fedavg: list[float] = field(default_factory=list)
    fedclust: list[float] = field(default_factory=list)
    fedclust_k: list[int] = field(default_factory=list)
    records: list[dict] = field(default_factory=list)

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
    """A3: Table I's FedAvg and FedClust at each Dirichlet α."""
    scale = get_scale(scale)
    result = AlphaSweepResult(list(alphas))
    for alpha in alphas:
        config = table1_matrix(dataset, seed, scale, ("fedavg", "fedclust"), alpha=alpha)
        outcome = run_cells(config, echo=_LOG.info)
        fedavg = outcome.record_for("fedavg", BASELINE)["metrics"]
        fedclust = outcome.record_for("fedclust", BASELINE)["metrics"]
        result.fedavg.append(fedavg["final_accuracy"])
        result.fedclust.append(fedclust["final_accuracy"])
        result.fedclust_k.append(fedclust["n_clusters"])
        result.records.extend(run.record for run in outcome.results)
    return result


@dataclass
class CommunicationResult:
    """C1: traffic accounting per method, and the harness run record of
    every cell run."""

    rows: list[dict]
    target_accuracy: float
    records: list[dict] = field(default_factory=list)

    def format(self) -> str:
        target = f"{100 * self.target_accuracy:.0f}%"
        table = Table(
            title=f"C1 — communication cost (params transferred; target accuracy {target})",
            columns=[
                "Method",
                "Clustering up",
                "Total up",
                "Total down",
                "MB total",
                f"MB to {target}",
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
    """C1: each method on a planted federation, evaluated every round.

    The traffic to ``target_accuracy`` is the cumulative traffic of the
    first round whose accuracy reaches it (``None`` if none does).
    """
    config = table1_matrix(
        dataset, seed, get_scale(scale), methods, partition="label_cluster", eval_every=1
    )
    result = CommunicationResult([], target_accuracy)
    for run in run_cells(config, echo=_LOG.info).results:
        metrics, traffic, history = (
            run.record[key] for key in ("metrics", "traffic", "history")
        )
        curves = zip(history["accuracy_curve"], history["comm_curve"])
        reached = next((comm for acc, comm in curves if acc >= target_accuracy), None)
        result.rows.append(
            {
                "method": run.cell.algorithm,
                "clustering_upload": traffic.get("clustering", {}).get("uploaded", 0),
                "total_upload": metrics["uploaded_params"],
                "total_download": metrics["downloaded_params"],
                "total_mb": traffic["total"]["bytes"] / 1e6,
                "mb_to_target": (
                    None if reached is None else reached * BYTES_PER_PARAM / 1e6
                ),
                "final_accuracy": metrics["final_accuracy"],
            }
        )
        result.records.append(run.record)
    return result
