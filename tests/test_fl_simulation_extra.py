"""FederatedEnv details and the clustered-rounds strategy."""

from __future__ import annotations

import numpy as np
import pytest

from repro.algorithms.base import ClusteredRounds
from repro.fl.evaluation import evaluate_model
from repro.fl.history import RunHistory
from repro.fl.rounds import RoundEngine, ScenarioConfig


class TestEnvEvaluation:
    def test_mean_local_accuracy_wrong_count_raises(self, small_env):
        with pytest.raises(ValueError):
            small_env.mean_local_accuracy([small_env.init_state()])

    def test_server_rng_keyed_by_round(self, small_env):
        a = small_env.server_rng(1).integers(0, 1 << 30)
        a2 = small_env.server_rng(1).integers(0, 1 << 30)
        b = small_env.server_rng(2).integers(0, 1 << 30)
        assert a == a2
        assert a != b

    def test_n_params_matches_model(self, small_env):
        assert small_env.n_params == small_env.scratch_model.num_parameters()


def _run_clustered(env, labels, n_clusters, n_rounds, scenario=None):
    """Per-cluster FedAvg from the initial model; returns the strategy,
    the final evaluation and the history."""
    init = env.layout.pack(env.init_state())
    strategy = ClusteredRounds(np.tile(init, (n_clusters, 1)), labels)
    history = RunHistory("helper", "fmnist_like", 0)
    engine = RoundEngine(env, scenario or ScenarioConfig())
    mean_acc, per_client = engine.run(strategy, n_rounds, history)
    return strategy, mean_acc, per_client, history


@pytest.mark.slow
class TestClusteredTrainingHelper:
    def test_runs_each_cluster_and_records(self, small_env):
        m = small_env.federation.n_clients
        labels = np.array([i % 2 for i in range(m)])
        strategy, mean_acc, per_client, history = _run_clustered(
            small_env, labels, 2, n_rounds=2
        )
        assert history.n_rounds == 2
        assert strategy.matrix.shape == (2, small_env.n_params)
        assert per_client.shape == (m,)
        assert 0.0 <= mean_acc <= 1.0
        # The two cluster models must have diverged from each other
        # (different member distributions).
        assert not np.allclose(strategy.matrix[0], strategy.matrix[1])

    def test_empty_cluster_is_skipped(self, small_env):
        m = small_env.federation.n_clients
        labels = np.zeros(m, dtype=np.int64)  # everyone in cluster 0
        init = small_env.layout.pack(small_env.init_state())
        strategy, _, _, _ = _run_clustered(small_env, labels, 2, n_rounds=1)
        # Cluster 1 had no members: its row must equal the initial one.
        np.testing.assert_array_equal(strategy.matrix[1], init)
        # Cluster 0 trained: its row must have moved.
        assert not np.array_equal(strategy.matrix[0], init)

    def test_client_fraction_subsamples(self, small_env):
        m = small_env.federation.n_clients
        labels = np.zeros(m, dtype=np.int64)
        before = small_env.tracker.total_uploaded
        _run_clustered(
            small_env,
            labels,
            1,
            n_rounds=1,
            scenario=ScenarioConfig(client_fraction=0.5),
        )
        uploaded = small_env.tracker.total_uploaded - before
        assert uploaded == (m // 2) * small_env.n_params

    def test_evaluate_assignment_matches_manual(self, small_env):
        m = small_env.federation.n_clients
        labels = np.array([i % 2 for i in range(m)])
        states = [small_env.init_state(), small_env.init_state()]
        mean_acc, per_client = small_env.evaluate_assignment(states, labels)
        manual = []
        for i in range(m):
            small_env.scratch_model.load_state_dict(states[labels[i]])
            manual.append(
                evaluate_model(
                    small_env.scratch_model,
                    small_env.federation.clients[i].test,
                    batch_size=small_env.train_cfg.eval_batch_size,
                ).accuracy
            )
        manual = np.array(manual)
        np.testing.assert_allclose(per_client, manual)
        assert mean_acc == pytest.approx(manual.mean())
