"""Shared fixtures for the test suite."""

from __future__ import annotations

import os

# One BLAS thread, set before NumPy loads (as ``benchmarks/suite/run.py``
# does): OpenBLAS splits large GEMMs across its threads, which reorders
# their float sums, so the seeded pins hold only at a fixed thread count.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import numpy as np  # noqa: E402
import pytest  # noqa: E402

from repro.data.federation import Federation, build_federation  # noqa: E402
from repro.fl.config import TrainConfig  # noqa: E402
from repro.fl.simulation import FederatedEnv  # noqa: E402


@pytest.fixture
def rng() -> np.random.Generator:
    """Fresh deterministic generator per test."""
    return np.random.default_rng(12345)


@pytest.fixture(scope="session")
def planted_federation() -> Federation:
    """Small 2-group federation with a crisp planted structure.

    Session-scoped (read-only) because dataset generation is the
    slowest fixture step and many tests share it.
    """
    return build_federation(
        "fmnist",
        n_clients=8,
        n_samples=1600,
        seed=7,
        partition="label_cluster",
    )


@pytest.fixture(scope="session")
def dirichlet_federation() -> Federation:
    """Small Dir(0.1) federation (the Table-I heterogeneity setting)."""
    return build_federation(
        "cifar10",
        n_clients=6,
        n_samples=900,
        seed=3,
        partition="dirichlet",
        alpha=0.1,
    )


@pytest.fixture
def fast_train_cfg() -> TrainConfig:
    """One quick epoch per round — for tests that need real training."""
    return TrainConfig(local_epochs=1, batch_size=32, lr=0.05, momentum=0.9)


@pytest.fixture
def small_env(planted_federation, fast_train_cfg) -> FederatedEnv:
    """Environment over the planted federation with a small CNN."""
    return FederatedEnv(
        planted_federation,
        model_name="cnn_small",
        model_kwargs={"width": 4, "fc_dim": 16},
        train_cfg=fast_train_cfg,
        seed=0,
    )
