"""Baseline federated-learning algorithms (Table I comparators)."""

from repro.algorithms.base import (
    ClusteredRounds,
    FLAlgorithm,
    GlobalModelRounds,
    RunResult,
    fedavg_round_flat,
)
from repro.algorithms.cfl import CFL
from repro.algorithms.fedavg import FedAvg
from repro.algorithms.fedprox import FedProx
from repro.algorithms.ifca import IFCA
from repro.algorithms.local_only import LocalOnly
from repro.algorithms.pacfl import PACFL
from repro.algorithms.registry import (
    ALGORITHMS,
    available_algorithms,
    make_algorithm,
)

__all__ = [
    "ClusteredRounds",
    "FLAlgorithm",
    "GlobalModelRounds",
    "RunResult",
    "fedavg_round_flat",
    "CFL",
    "FedAvg",
    "FedProx",
    "IFCA",
    "LocalOnly",
    "PACFL",
    "ALGORITHMS",
    "available_algorithms",
    "make_algorithm",
]
