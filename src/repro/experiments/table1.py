"""Experiment T1 — the paper's Table I.

Test-accuracy comparison of six methods over three datasets under
Non-IID Dir(0.1): mean ± std of final mean-local-test accuracy across
seeds.  The harness reuses one federation per (dataset, seed) so every
method sees identical data, exactly as in the paper.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.algorithms.registry import available_algorithms, make_algorithm
from repro.data.federation import build_federation
from repro.experiments.presets import ExperimentScale, algorithm_kwargs, get_scale
from repro.fl.simulation import FederatedEnv
from repro.utils.logging import get_logger
from repro.utils.tables import Table, format_mean_std

__all__ = [
    "PAPER_TABLE1",
    "Table1Cell",
    "Table1Result",
    "run_table1",
    "format_table1",
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
    """All cells plus the scale they were produced at."""

    cells: dict[tuple[str, str], Table1Cell]
    datasets: list[str]
    methods: list[str]
    scale_name: str
    alpha: float

    def cell(self, method: str, dataset: str) -> Table1Cell:
        return self.cells[(method, dataset)]

    def winner(self, dataset: str) -> str:
        """Method with the highest mean accuracy on ``dataset``."""
        return max(self.methods, key=lambda m: self.cells[(m, dataset)].mean)


def run_table1(
    datasets: tuple[str, ...] = ("cifar10", "fmnist", "svhn"),
    methods: tuple[str, ...] | None = None,
    scale: ExperimentScale | str | None = None,
    alpha: float = 0.1,
    model_name: str = "lenet5",
) -> Table1Result:
    """Regenerate Table I at the requested scale.

    One federation is built per (dataset, seed); all methods run on it
    with a fresh environment (fresh tracker, same model init).
    """
    scale = scale if isinstance(scale, ExperimentScale) else get_scale(scale)
    methods = tuple(methods) if methods else tuple(available_algorithms())
    cells = {
        (method, ds): Table1Cell(method, ds) for method in methods for ds in datasets
    }

    for dataset in datasets:
        for seed in scale.seeds:
            federation = build_federation(
                dataset,
                n_clients=scale.n_clients,
                n_samples=scale.n_samples,
                seed=seed,
                partition="dirichlet",
                alpha=alpha,
            )
            for method in methods:
                env = FederatedEnv(
                    federation,
                    model_name=model_name,
                    train_cfg=scale.train,
                    seed=seed,
                )
                algorithm = make_algorithm(method, **algorithm_kwargs(method, scale))
                result = algorithm.run(
                    env, n_rounds=scale.n_rounds, eval_every=scale.eval_every
                )
                cells[(method, dataset)].accuracies.append(result.final_accuracy)
                _LOG.info(
                    "table1 %s/%s seed=%d acc=%.4f k=%d",
                    method,
                    dataset,
                    seed,
                    result.final_accuracy,
                    result.n_clusters,
                )

    return Table1Result(
        cells=cells,
        datasets=list(datasets),
        methods=list(methods),
        scale_name=scale.name,
        alpha=alpha,
    )


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
