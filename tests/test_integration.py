"""End-to-end integration tests of the paper's claims (small scale).

Each test exercises a full pipeline across multiple subsystems — data
generation → federation → training → clustering → evaluation — and
asserts the *behavioural* claims the reproduction rests on.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.algorithms.fedavg import FedAvg
from repro.cluster.metrics import adjusted_rand_index
from repro.core.clustering import ClusteringConfig
from repro.core.fedclust import FedClust, FedClustConfig
from repro.data.federation import build_federation
from repro.fl.config import TrainConfig
from repro.fl.parallel import ProcessClientExecutor
from repro.fl.simulation import FederatedEnv

pytestmark = pytest.mark.slow

_CFG = TrainConfig(local_epochs=1, batch_size=32, lr=0.05, momentum=0.9)
_FEDCLUST = FedClustConfig(
    warmup_steps=15, warmup_lr=0.01, warm_start_final_layer=True
)


def _env(federation, seed=0, **kwargs):
    return FederatedEnv(
        federation,
        model_name="cnn_small",
        model_kwargs={"width": 4, "fc_dim": 16},
        train_cfg=_CFG,
        seed=seed,
        **kwargs,
    )


class TestPaperClaims:
    def test_one_shot_cluster_recovery(self, planted_federation):
        """Claim: clustering happens in ONE round and recovers the groups."""
        env = _env(planted_federation)
        fitted = FedClust(_FEDCLUST).clustering_round(env)
        assert (
            adjusted_rand_index(planted_federation.true_groups, fitted.labels) == 1.0
        )
        # Exactly one broadcast down + one partial upload happened.
        assert env.tracker.downloaded_in("clustering") == (
            env.n_params * planted_federation.n_clients
        )

    def test_fedclust_beats_fedavg_on_planted_groups(self, planted_federation):
        """Claim: clustered training beats the single global model."""
        env_c = _env(planted_federation)
        acc_fedclust = FedClust(_FEDCLUST).run(env_c, n_rounds=4, eval_every=4)
        env_a = _env(planted_federation)
        acc_fedavg = FedAvg().run(env_a, n_rounds=4, eval_every=4)
        assert acc_fedclust.final_accuracy > acc_fedavg.final_accuracy

    def test_training_improves_over_initialisation(self, planted_federation):
        env = _env(planted_federation)
        init_acc, _ = env.mean_local_accuracy(
            [env.init_state()] * planted_federation.n_clients
        )
        result = FedAvg().run(env, n_rounds=3, eval_every=3)
        assert result.final_accuracy > init_acc + 0.2

    def test_cluster_count_not_predefined(self, rng):
        """Claim: FedClust adapts k to the federation (3 planted groups)."""
        federation = build_federation(
            "fmnist",
            n_clients=9,
            n_samples=1800,
            seed=11,
            partition="label_cluster",
            groups=[[0, 1, 2], [3, 4, 5], [6, 7, 8]],
        )
        env = _env(federation, seed=11)
        fitted = FedClust(_FEDCLUST).clustering_round(env)
        assert fitted.n_clusters == 3
        assert adjusted_rand_index(federation.true_groups, fitted.labels) == 1.0

    def test_partial_upload_smaller_than_full(self, planted_federation):
        env = _env(planted_federation)
        FedClust(_FEDCLUST).clustering_round(env)
        uploaded = env.tracker.uploaded_in("clustering")
        full = env.n_params * planted_federation.n_clients
        assert uploaded < 0.25 * full


class TestReproducibility:
    def test_identical_runs_bitwise(self, planted_federation):
        results = []
        for _ in range(2):
            env = _env(planted_federation)
            results.append(
                FedClust(_FEDCLUST).run(env, n_rounds=3, eval_every=3)
            )
        a, b = results
        assert a.final_accuracy == b.final_accuracy
        np.testing.assert_array_equal(a.cluster_labels, b.cluster_labels)
        np.testing.assert_array_equal(
            a.history.accuracy_curve(), b.history.accuracy_curve()
        )

    def test_process_executor_matches_serial_end_to_end(self, planted_federation):
        env_s = _env(planted_federation)
        serial = FedClust(_FEDCLUST).run(env_s, n_rounds=3, eval_every=3)
        executor = ProcessClientExecutor(n_workers=2)
        env_p = _env(planted_federation, executor=executor)
        try:
            parallel = FedClust(_FEDCLUST).run(env_p, n_rounds=3, eval_every=3)
        finally:
            executor.close()
        assert serial.final_accuracy == pytest.approx(
            parallel.final_accuracy, abs=1e-6
        )
        np.testing.assert_array_equal(serial.cluster_labels, parallel.cluster_labels)

    def test_different_seeds_differ(self, planted_federation):
        env_a = _env(planted_federation, seed=0)
        env_b = _env(planted_federation, seed=1)
        a = FedAvg().run(env_a, n_rounds=2, eval_every=2)
        b = FedAvg().run(env_b, n_rounds=2, eval_every=2)
        assert a.final_accuracy != b.final_accuracy


class TestHeterogeneityBehaviour:
    def test_fedclust_finds_one_cluster_on_iid(self):
        """Near-IID federation: the auto cut should not fabricate structure
        (gap guard) — accuracy must stay close to FedAvg's."""
        federation = build_federation(
            "fmnist", n_clients=8, n_samples=1600, seed=2, partition="iid"
        )
        env = _env(federation, seed=2)
        config = FedClustConfig(
            warmup_steps=15,
            warmup_lr=0.01,
            clustering=ClusteringConfig(cut="auto", min_gap_ratio=0.25),
        )
        fitted = FedClust(config).clustering_round(env)
        assert fitted.n_clusters == 1

    def test_dirichlet_run_end_to_end(self, dirichlet_federation):
        env = _env(dirichlet_federation)
        result = FedClust(_FEDCLUST).run(env, n_rounds=3, eval_every=3)
        assert 0.0 <= result.final_accuracy <= 1.0
        assert result.n_clusters >= 1
