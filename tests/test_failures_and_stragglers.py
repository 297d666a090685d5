"""Failure injection and FedClust's straggler tolerance.

Failure policy lives in the round engine
(``ScenarioConfig(failure_rate=...)``).  Its drops come from the
stateless ``(seed, FAILURE_TAG=13, round, client)`` stream that
historical faulty runs used; the pin below keeps those drop sets.
"""

from __future__ import annotations

import numpy as np
import pytest
from helpers import fates

from repro.algorithms.fedavg import FedAvg
from repro.cluster.metrics import adjusted_rand_index
from repro.core.fedclust import FedClust, FedClustConfig
from repro.fl.parallel import UpdateTask
from repro.fl.rounds import RoundEngine, ScenarioConfig
from repro.fl.simulation import FederatedEnv

_FEDCLUST = FedClustConfig(warmup_steps=15, warmup_lr=0.01)


def _env(federation, cfg, seed=0):
    return FederatedEnv(
        federation,
        model_name="cnn_small",
        model_kwargs={"width": 4, "fc_dim": 16},
        train_cfg=cfg,
        seed=seed,
    )


def _engine(env, failure_rate):
    return RoundEngine(env, ScenarioConfig(failure_rate=failure_rate))


#: Survivors of the rate-0.5 failure draw per round (env seed 0, eight
#: clients), captured from the historical drop stream.  The last round
#: is a quorum-retry epoch.
_DROP_STREAM_PIN = {
    1: [0, 1, 3, 4, 5],
    2: [0, 2, 4, 6, 7],
    3: [4, 6],
    5: [2, 3, 6, 7],
    1_000_001: [2, 3, 6],
}


class TestFaultyExecutorShim:
    """Runs made through the removed ``FaultyExecutor`` shim still
    reproduce: its drops were the engine's tag-13 stream, pinned here."""

    def test_matches_engine_failure_stream(self, planted_federation, fast_train_cfg):
        env = _env(planted_federation, fast_train_cfg)
        engine = _engine(env, 0.5)
        tasks = [
            UpdateTask(cid, env.init_state())
            for cid in range(planted_federation.n_clients)
        ]
        for round_index, survivors in _DROP_STREAM_PIN.items():
            alive, failed = engine._apply_failures(tasks, round_index)
            assert [t.client_id for t in alive] == survivors
            assert sorted(failed + survivors) == list(range(8))

    @pytest.mark.slow
    def test_fedavg_survives_failures(self, planted_federation, fast_train_cfg):
        env = _env(planted_federation, fast_train_cfg)
        result = FedAvg().run(
            env,
            n_rounds=3,
            eval_every=3,
            scenario=ScenarioConfig(failure_rate=0.3),
        )
        assert result.final_accuracy > 0.2
        assert fates(result.extras["events"], "drop")  # failures happened


@pytest.mark.slow
class TestStragglerClustering:
    def test_retries_recover_everyone(self, planted_federation, fast_train_cfg):
        """With moderate failures and 3 attempts, all clients usually
        report; labels must then have no fallback assignments."""
        env = _env(planted_federation, fast_train_cfg)
        fitted = FedClust(_FEDCLUST).clustering_round(
            env, engine=_engine(env, 0.3)
        )
        m = planted_federation.n_clients
        assert len(fitted.responders) + len(fitted.stragglers) == m
        assert (fitted.labels >= 0).all()
        # Responders' recovery should still be perfect on planted groups.
        ari = adjusted_rand_index(
            planted_federation.true_groups[fitted.responders],
            fitted.labels[fitted.responders],
        )
        assert ari == 1.0

    def test_heavy_failures_leave_stragglers_with_fallback(
        self, planted_federation, fast_train_cfg
    ):
        config = FedClustConfig(
            warmup_steps=15, warmup_lr=0.01, max_clustering_attempts=1
        )
        env = _env(planted_federation, fast_train_cfg, seed=1)
        fitted = FedClust(config).clustering_round(env, engine=_engine(env, 0.6))
        assert fitted.stragglers  # with one attempt at 60%, someone is dark
        # Stragglers hold a valid (fallback) cluster id.
        assert all(0 <= fitted.labels[s] < fitted.n_clusters for s in fitted.stragglers)

    def test_straggler_can_be_onboarded_as_newcomer(
        self, planted_federation, fast_train_cfg
    ):
        config = FedClustConfig(
            warmup_steps=15, warmup_lr=0.01, max_clustering_attempts=1
        )
        env = _env(planted_federation, fast_train_cfg, seed=1)
        algo = FedClust(config)
        fitted = algo.clustering_round(env, engine=_engine(env, 0.6))
        assert fitted.stragglers
        straggler = fitted.stragglers[0]
        assignment, _ = algo.incorporate_newcomer(
            env,
            fitted,
            planted_federation.clients[straggler].train,
            newcomer_id=straggler,
        )
        # The straggler's true group's responders live in one cluster; the
        # newcomer path must route it there.
        group = planted_federation.true_groups[straggler]
        peers = [
            int(c)
            for c in fitted.responders
            if planted_federation.true_groups[c] == group
        ]
        expected = int(np.bincount(fitted.labels[peers]).argmax())
        assert assignment.cluster == expected

    def test_no_failures_means_no_stragglers(self, small_env):
        fitted = FedClust(_FEDCLUST).clustering_round(small_env)
        assert fitted.stragglers == []
        assert len(fitted.responders) == small_env.federation.n_clients


class TestLocalOnly:
    @pytest.mark.slow
    def test_runs_with_zero_communication(self, small_env):
        from repro.algorithms.local_only import LocalOnly

        result = LocalOnly().run(small_env, n_rounds=3, eval_every=3)
        assert small_env.tracker.total_params == 0
        assert result.final_accuracy > 0.3  # local 5-class tasks are learnable
        assert result.n_clusters == small_env.federation.n_clients

    def test_in_registry(self):
        from repro.algorithms.registry import make_algorithm

        assert make_algorithm("local_only").name == "local_only"
