"""Baseline algorithms: construction, mechanics, and short end-to-end runs."""

from __future__ import annotations

import numpy as np
import pytest

from repro.algorithms.base import fedavg_round_flat
from repro.algorithms.cfl import CFL
from repro.algorithms.fedavg import FedAvg
from repro.algorithms.fedprox import FedProx
from repro.algorithms.ifca import IFCA
from repro.algorithms.pacfl import PACFL
from repro.algorithms.registry import available_algorithms, make_algorithm
from repro.cluster.metrics import adjusted_rand_index
from repro.fl.rounds import ScenarioConfig


class TestRegistry:
    def test_table1_order(self):
        assert available_algorithms() == [
            "fedavg",
            "fedprox",
            "cfl",
            "ifca",
            "pacfl",
            "fedclust",
        ]

    def test_make_each(self):
        for name in available_algorithms():
            algo = make_algorithm(name)
            assert algo.name == name

    def test_fedclust_kwargs_build_config(self):
        algo = make_algorithm("fedclust", warmup_steps=5)
        assert algo.config.warmup_steps == 5

    def test_unknown_raises(self):
        with pytest.raises(ValueError, match="unknown algorithm"):
            make_algorithm("fedsgd")


class TestSharedHelpers:
    def test_fedavg_round_aggregates_and_accounts(self, small_env):
        vector = small_env.layout.pack(small_env.init_state())
        before_up = small_env.tracker.total_uploaded
        new_vector, loss, updates = fedavg_round_flat(small_env, vector, [0, 1, 2], 1)
        assert new_vector.shape == vector.shape
        assert np.isfinite(loss)
        assert len(updates) == 3
        assert small_env.tracker.total_uploaded - before_up == 3 * small_env.n_params

    def test_fedavg_round_empty_members_raises(self, small_env):
        with pytest.raises(ValueError, match="at least one"):
            fedavg_round_flat(
                small_env, small_env.layout.pack(small_env.init_state()), [], 1
            )


class TestConstructionValidation:
    def test_fedprox_mu(self):
        with pytest.raises(ValueError):
            FedProx(mu=-1.0)
        assert FedProx(mu=0.3).prox_mu == 0.3

    def test_cfl_params(self):
        with pytest.raises(ValueError):
            CFL(eps1=0.0)

    def test_ifca_params(self):
        with pytest.raises(ValueError):
            IFCA(n_clusters=0)

    def test_pacfl_params(self):
        with pytest.raises(ValueError):
            PACFL(n_components=0)

    @pytest.mark.parametrize("max_clusters", [0, -2])
    def test_pacfl_cluster_cap_fails_at_construction(self, max_clusters):
        # Rejected before a clustering round could charge any upload.
        with pytest.raises(ValueError, match="max_clusters must be >= 1"):
            PACFL(max_clusters=max_clusters)


class TestCFLMechanics:
    def test_bipartition_splits_opposed_updates(self, rng):
        # Two groups of update vectors pointing in opposite directions.
        up = np.vstack([rng.standard_normal((4, 6)) + 5, rng.standard_normal((4, 6)) - 5])
        left, right = CFL._bipartition(up)
        groups = np.repeat([0, 1], 4)
        labels = np.zeros(8, dtype=int)
        labels[right] = 1
        assert adjusted_rand_index(groups, labels) == 1.0

    def test_split_criterion_gates(self):
        algo = CFL(eps1=0.4, eps2=0.1, warmup_rounds=2, min_cluster_size=2)
        from repro.algorithms.cfl import _Cluster

        cluster = _Cluster(scale0=1.0)
        # Before warm-up: never split.
        assert not algo._should_split(cluster, 6, 0.01, 1.0, round_index=1)
        # After warm-up with incongruent updates: split.
        assert algo._should_split(cluster, 6, 0.01, 1.0, round_index=3)
        # Congruent updates (mean close to max): no split.
        assert not algo._should_split(cluster, 6, 0.9, 1.0, round_index=3)
        # Tiny cluster: no split.
        assert not algo._should_split(cluster, 3, 0.01, 1.0, round_index=3)


@pytest.mark.slow
class TestShortRuns:
    """Every algorithm must run end-to-end and produce sane artefacts."""

    @pytest.mark.parametrize(
        "name,kwargs",
        [
            ("fedavg", {}),
            ("fedprox", {"mu": 0.1}),
            ("cfl", {"warmup_rounds": 1}),
            ("ifca", {"n_clusters": 2}),
            ("pacfl", {}),
            ("fedclust", {"warmup_steps": 10, "warmup_lr": 0.01}),
        ],
    )
    def test_run(self, small_env, name, kwargs, planted_federation):
        algo = make_algorithm(name, **kwargs)
        result = algo.run(small_env, n_rounds=3, eval_every=3)
        m = planted_federation.n_clients
        assert result.history.n_rounds == 3
        assert 0.0 <= result.final_accuracy <= 1.0
        assert result.per_client_accuracy.shape == (m,)
        assert result.cluster_labels is not None
        assert result.cluster_labels.shape == (m,)
        assert result.comm["total"]["bytes"] > 0
        # Better than random guessing over 10 classes even after 3 rounds
        # (each client's local test covers at most 5 classes).
        assert result.final_accuracy > 0.15

    def test_fedavg_client_fraction_runs(self, small_env):
        result = FedAvg().run(
            small_env,
            n_rounds=2,
            eval_every=2,
            scenario=ScenarioConfig(client_fraction=0.5),
        )
        assert result.history.records[0].n_participants == 4

    def test_ifca_download_is_k_times(self, small_env):
        k = 3
        algo = IFCA(n_clusters=k)
        algo.run(small_env, n_rounds=2, eval_every=2)
        m = small_env.federation.n_clients
        expected_down = 2 * k * small_env.n_params * m
        assert small_env.tracker.total_downloaded == expected_down

    def test_pacfl_uploads_bases_in_clustering_phase(self, small_env):
        PACFL(n_components=2).run(small_env, n_rounds=2, eval_every=2)
        d = int(np.prod(small_env.federation.input_shape))
        m = small_env.federation.n_clients
        assert small_env.tracker.uploaded_in("clustering") == 2 * d * m

    def test_pacfl_recovers_planted_groups(self, small_env, planted_federation):
        result = PACFL(n_components=3).run(small_env, n_rounds=2, eval_every=2)
        ari = adjusted_rand_index(planted_federation.true_groups, result.cluster_labels)
        # Data subspaces carry group signal, but the archetype structure
        # (sibling classes straddle the two groups) makes PACFL's
        # raw-pixel subspaces only partially separable — unlike FedClust's
        # weight signatures, which recover the groups exactly (see
        # test_core_fedclust).  Require clearly-better-than-chance.
        assert ari > 0.3
