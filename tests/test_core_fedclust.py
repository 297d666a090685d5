"""The FedClust algorithm end to end (small scale)."""

from __future__ import annotations

import numpy as np
import pytest

from repro.cluster.metrics import adjusted_rand_index
from repro.core.fedclust import FedClust, FedClustConfig, resolve_selection_keys
from repro.fl.config import TrainConfig
from repro.fl.simulation import FederatedEnv


@pytest.fixture
def env(planted_federation, fast_train_cfg):
    return FederatedEnv(
        planted_federation,
        model_name="cnn_small",
        model_kwargs={"width": 4, "fc_dim": 16},
        train_cfg=fast_train_cfg,
        seed=0,
    )


@pytest.fixture
def algo():
    return FedClust(FedClustConfig(warmup_steps=15, warmup_lr=0.01))


class TestSelection:
    def test_resolve_final_layer(self, env):
        keys = resolve_selection_keys(env.scratch_model, "final_layer")
        assert keys == ["classifier.weight", "classifier.bias"]

    def test_resolve_all(self, env):
        keys = resolve_selection_keys(env.scratch_model, "all")
        assert len(keys) == len(list(env.scratch_model.named_parameters()))

    def test_resolve_named_and_indexed(self, env):
        assert resolve_selection_keys(env.scratch_model, "layer:conv1") == [
            "conv1.weight",
            "conv1.bias",
        ]
        assert resolve_selection_keys(env.scratch_model, "index:1") == [
            "conv1.weight",
            "conv1.bias",
        ]

    def test_resolve_unknown_raises(self, env):
        with pytest.raises(ValueError, match="unknown weight selection"):
            resolve_selection_keys(env.scratch_model, "magic")


class TestConfig:
    def test_warmup_cfg_overrides(self):
        base = TrainConfig(local_epochs=3, lr=0.1, momentum=0.9)
        cfg = FedClustConfig(warmup_lr=0.01, warmup_momentum=0.0)
        warm = cfg.warmup_train_cfg(base)
        assert warm.local_epochs == 3
        assert warm.lr == 0.01
        assert warm.momentum == 0.0

    def test_warmup_steps_sets_cap(self):
        base = TrainConfig(local_epochs=1)
        warm = FedClustConfig(warmup_steps=7).warmup_train_cfg(base)
        assert warm.max_steps == 7
        assert warm.local_epochs == 7

    def test_defaults_inherit(self):
        base = TrainConfig(local_epochs=3, lr=0.1, momentum=0.9)
        warm = FedClustConfig(warmup_momentum=None).warmup_train_cfg(base)
        assert warm is base  # no overrides at all

    def test_validation(self):
        with pytest.raises(ValueError):
            FedClustConfig(warmup_lr=0.0)
        with pytest.raises(ValueError):
            FedClustConfig(warmup_steps=0)
        with pytest.raises(ValueError):
            FedClustConfig(warmup_momentum=-0.1)


class TestClusteringRound:
    def test_recovers_planted_groups(self, env, algo, planted_federation):
        fitted = algo.clustering_round(env)
        assert fitted.n_clusters == 2
        assert (
            adjusted_rand_index(planted_federation.true_groups, fitted.labels) == 1.0
        )

    def test_uploads_only_partial_weights(self, env, algo):
        algo.clustering_round(env)
        m = env.federation.n_clients
        partial = sum(
            env.init_state()[k].size for k in env.final_layer_keys
        )
        assert env.tracker.uploaded_in("clustering") == partial * m
        assert env.tracker.downloaded_in("clustering") == env.n_params * m
        # The upload is a small fraction of a full model.
        assert partial / env.n_params < 0.25

    def test_weight_matrix_dimensions(self, env, algo):
        fitted = algo.clustering_round(env)
        m = env.federation.n_clients
        partial = sum(env.init_state()[k].size for k in env.final_layer_keys)
        assert fitted.weight_matrix.shape == (m, partial)

    def test_train_cfg_restored_after_round(self, env, algo):
        before = env.train_cfg
        algo.clustering_round(env)
        assert env.train_cfg is before

    def test_warm_start_final_layer(self, env):
        algo = FedClust(
            FedClustConfig(
                warmup_steps=15, warmup_lr=0.01, warm_start_final_layer=True
            )
        )
        fitted = algo.clustering_round(env)
        init = env.init_state()
        for state in fitted.cluster_states:
            # Non-final layers match the init exactly...
            for key in init:
                if key in fitted.selection_keys:
                    continue
                np.testing.assert_array_equal(state[key], init[key])
            # ...while the classifier was warm-started away from it.
            assert any(
                not np.allclose(state[k], init[k]) for k in fitted.selection_keys
            )


@pytest.mark.slow
class TestFullRun:
    def test_run_beats_init_and_records_history(self, env, algo):
        result = algo.run(env, n_rounds=4, eval_every=2)
        assert result.history.n_rounds == 4
        assert result.final_accuracy > 0.5
        assert result.cluster_labels is not None
        assert result.n_clusters == 2
        # comm grows monotonically in history
        comm = result.history.comm_curve()
        assert (np.diff(comm) >= 0).all()

    def test_run_requires_two_rounds(self, env, algo):
        with pytest.raises(ValueError, match=">= 2"):
            algo.run(env, n_rounds=1)

    def test_newcomer_assigned_to_true_cluster(
        self, planted_federation, fast_train_cfg
    ):
        # Hold client 7 out, onboard it after training.
        sub = planted_federation.subset(list(range(7)))
        env = FederatedEnv(
            sub,
            model_name="cnn_small",
            model_kwargs={"width": 4, "fc_dim": 16},
            train_cfg=fast_train_cfg,
            seed=0,
        )
        algo = FedClust(FedClustConfig(warmup_steps=15, warmup_lr=0.01))
        result = algo.run(env, n_rounds=3, eval_every=3)
        fitted = result.extras["fitted"]
        newcomer = planted_federation.clients[7]
        newcomer_group = int(planted_federation.true_groups[7])
        assignment, serving_state = algo.incorporate_newcomer(
            env, fitted, newcomer.train, newcomer_id=7
        )
        peers = np.flatnonzero(sub.true_groups == newcomer_group)
        expected = int(np.bincount(result.cluster_labels[peers]).argmax())
        assert assignment.cluster == expected
        assert env.tracker.uploaded_in("newcomer") > 0
        assert set(serving_state.keys()) == set(env.init_state().keys())
