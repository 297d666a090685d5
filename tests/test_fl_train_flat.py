"""Batched cohort training: parity with the serial reference kernel.

The contract under test (see ``repro/fl/train_flat.py``): lockstep
batched training consumes the *same* per-(round, client) RNG streams and
produces the *same* minibatch schedules as the serial trainer, so every
per-client update matches the serial path to float summation order —
for both weight representations (dense plane views and shared-base
factored), for FedProx's anchored objective, under ragged dataset sizes
with zero-weight padding, and end-to-end on the Table-I metric.
Architectures without a batched mirror must route to the serial kernel
bit-identically.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.data.dataloader import DataLoader
from repro.data.federation import build_federation
from repro.fl.config import TrainConfig
from repro.fl.parallel import (
    BatchedClientExecutor,
    SerialClientExecutor,
    UpdateTask,
    make_executor,
)
from repro.fl.simulation import FederatedEnv
from repro.fl.train_flat import (
    plan_cohort_schedule,
    select_factored_keys,
    supports_batched,
    train_cohort_flat,
)
from repro.utils.rng import rng_for

#: Absolute tolerance for batched-vs-serial float32-model updates.
#: Both paths do the same arithmetic in a different association order;
#: observed worst-case deviations are ~1e-7 per step on unit-scale
#: weights (see BENCH_train.json's max_update_abs_diff for the 1.6M
#: preset trajectory).
ATOL = 5e-5


@pytest.fixture(scope="module")
def mlp_env_factory():
    """Environment factory over a small ragged Dirichlet federation."""
    federation = build_federation(
        "cifar10",
        n_clients=6,
        n_samples=700,
        seed=11,
        partition="dirichlet",
        alpha=0.3,
    )

    def make(train_cfg: TrainConfig, hidden=(96,), executor=None, seed=0):
        return FederatedEnv(
            federation,
            model_name="mlp",
            model_kwargs={"hidden": hidden},
            train_cfg=train_cfg,
            seed=seed,
            executor=executor,
        )

    return make


def _broadcast_tasks(env, prox_mu: float = 0.0):
    init = env.layout.pack(env.init_state())
    return [
        UpdateTask(cid, init, prox_mu=prox_mu)
        for cid in range(env.federation.n_clients)
    ]


def _assert_parity(serial_updates, batched_updates, atol=ATOL):
    assert len(serial_updates) == len(batched_updates)
    for s, b in zip(serial_updates, batched_updates):
        assert s.client_id == b.client_id
        assert s.n_samples == b.n_samples
        assert s.n_batches == b.n_batches
        np.testing.assert_allclose(b.flat, s.flat, rtol=0, atol=atol)
        assert s.mean_loss == pytest.approx(b.mean_loss, rel=1e-4, abs=1e-6)


# ----------------------------------------------------------------------
# The tier-1 parity gate
# ----------------------------------------------------------------------
class TestBatchedSerialParity:
    def test_per_client_updates_match_serial(self, mlp_env_factory):
        """The headline gate: same RNG keys, same minibatch order, same
        updates (to float64-comparison tolerance) for a ragged cohort
        with momentum — dense and factored layers both in play."""
        env = mlp_env_factory(
            TrainConfig(local_epochs=2, batch_size=32, lr=0.05, momentum=0.9)
        )
        tasks = _broadcast_tasks(env)
        serial = SerialClientExecutor().run(env, tasks, round_index=3)
        batched = BatchedClientExecutor().run(env, tasks, round_index=3)
        _assert_parity(serial, batched)

    def test_factored_and_dense_modes_agree(self, mlp_env_factory):
        """Forcing the first layer factored vs keeping every weight dense
        gives the same updates — the representations are two kernels for
        one computation — under momentum, weight decay, the proximal
        pull and per-client budgets on the ragged fixture.  A zero-budget
        client returns the broadcast bit-for-bit."""
        cases = [
            (TrainConfig(local_epochs=2, batch_size=32, lr=0.05, momentum=0.9), 0.0, None),
            (TrainConfig(local_epochs=2, batch_size=32, lr=0.05, weight_decay=1e-3), 0.0, None),
            (TrainConfig(local_epochs=2, batch_size=32, lr=0.05, momentum=0.9), 0.5, None),
            (
                TrainConfig(
                    local_epochs=3, batch_size=16, lr=0.05, momentum=0.9, weight_decay=1e-3
                ),
                0.5,
                [0, 1, 3, None, 0, 5],
            ),
        ]
        for cfg, prox_mu, budgets in cases:
            env = mlp_env_factory(cfg, hidden=(128,))
            vector = env.layout.pack(env.init_state())
            cids = list(range(env.federation.n_clients))
            dense, factored = (
                train_cohort_flat(
                    env,
                    cids,
                    vector,
                    round_index=1,
                    prox_mu=prox_mu,
                    factored_keys=keys,
                    max_steps=budgets,
                )
                for keys in (frozenset(), frozenset({"fc1.weight"}))
            )
            _assert_parity(dense, factored)
            for budget, update in zip(budgets or [], factored):
                if budget == 0:
                    assert update.n_batches == 0
                    np.testing.assert_array_equal(
                        update.flat, env.layout.round_trip(vector)
                    )

    def test_multi_epoch_cohort_factors_by_distinct_samples(self, monkeypatch):
        """Four epochs over 80 samples per client: 12 steps x 32 rows
        exceed the 96-wide hidden layer, but 80 distinct samples do not,
        so the first layer routes factored — and still matches serial."""
        import repro.fl.train_flat as train_flat

        chosen = []
        orig = train_flat.select_factored_keys

        def spy(*args, **kwargs):
            chosen.append(orig(*args, **kwargs))
            return chosen[-1]

        monkeypatch.setattr(train_flat, "select_factored_keys", spy)
        federation = build_federation(
            "cifar10", n_clients=4, n_samples=400, seed=11, partition="iid"
        )
        assert {len(c.train) for c in federation.clients} == {80}
        env = FederatedEnv(
            federation,
            model_name="mlp",
            model_kwargs={"hidden": (96,)},
            train_cfg=TrainConfig(
                local_epochs=4, batch_size=32, lr=0.05, momentum=0.9
            ),
            seed=0,
        )
        tasks = _broadcast_tasks(env)
        serial = SerialClientExecutor().run(env, tasks, round_index=2)
        batched = BatchedClientExecutor().run(env, tasks, round_index=2)
        assert chosen == [frozenset({"fc1.weight"})]
        assert all(u.n_batches == 12 for u in batched)
        _assert_parity(serial, batched)

    def test_weight_decay_parity(self, mlp_env_factory):
        """Weight decay bends the factored base coefficient away from 1
        — the scalar recurrence must track the serial optimiser."""
        env = mlp_env_factory(
            TrainConfig(
                local_epochs=2,
                batch_size=32,
                lr=0.05,
                momentum=0.9,
                weight_decay=1e-3,
            )
        )
        tasks = _broadcast_tasks(env)
        serial = SerialClientExecutor().run(env, tasks, round_index=1)
        batched = BatchedClientExecutor().run(env, tasks, round_index=1)
        _assert_parity(serial, batched)

    def test_max_steps_and_max_batches_caps(self, mlp_env_factory):
        """Serial cap semantics: per-epoch ``max_batches``, total
        ``max_steps`` checked before each step — clients hit the caps at
        different lockstep positions and must stop exactly where the
        serial loop stops."""
        for cfg in (
            TrainConfig(local_epochs=3, batch_size=16, lr=0.05, max_steps=4),
            TrainConfig(local_epochs=2, batch_size=16, lr=0.05, max_batches=2),
        ):
            env = mlp_env_factory(cfg)
            tasks = _broadcast_tasks(env)
            serial = SerialClientExecutor().run(env, tasks, round_index=2)
            batched = BatchedClientExecutor().run(env, tasks, round_index=2)
            _assert_parity(serial, batched)

    def test_round_index_drives_stream(self, mlp_env_factory):
        """Different rounds shuffle differently (same contract as the
        serial executors)."""
        env = mlp_env_factory(
            TrainConfig(local_epochs=1, batch_size=32, lr=0.05, momentum=0.9)
        )
        tasks = _broadcast_tasks(env)
        a = BatchedClientExecutor().run(env, tasks, round_index=1)
        b = BatchedClientExecutor().run(env, tasks, round_index=2)
        assert not np.allclose(a[0].flat, b[0].flat)

    def test_two_broadcasts_group_into_two_cohorts(self, mlp_env_factory):
        """Tasks carrying different incoming states train as separate
        cohorts and still match the serial path per client."""
        env = mlp_env_factory(
            TrainConfig(local_epochs=1, batch_size=32, lr=0.05, momentum=0.9)
        )
        state = env.init_state()
        init = env.layout.pack(state)
        other = env.layout.pack({k: v + np.float32(0.01) for k, v in state.items()})
        tasks = [
            UpdateTask(cid, init if cid % 2 == 0 else other)
            for cid in range(env.federation.n_clients)
        ]
        serial = SerialClientExecutor().run(env, tasks, round_index=1)
        batched = BatchedClientExecutor().run(env, tasks, round_index=1)
        _assert_parity(serial, batched)


# ----------------------------------------------------------------------
# Ragged cohorts: padding must not leak
# ----------------------------------------------------------------------
class TestRaggedPadding:
    def test_padded_client_update_unaffected_by_cohort(self, mlp_env_factory):
        """A small client's update is the same whether it trains alone
        (no padding) or inside a cohort of larger clients (its batches
        padded to the cohort width with zero-weight rows)."""
        env = mlp_env_factory(
            TrainConfig(local_epochs=2, batch_size=32, lr=0.05, momentum=0.9)
        )
        sizes = [len(c.train) for c in env.federation.clients]
        small = int(np.argmin(sizes))
        assert sizes[small] < max(sizes), "fixture must be ragged"
        vector = env.layout.pack(env.init_state())
        alone = train_cohort_flat(env, [small], vector, round_index=1)
        cohort = train_cohort_flat(
            env, list(range(env.federation.n_clients)), vector, round_index=1
        )
        np.testing.assert_allclose(
            cohort[small].flat, alone[0].flat, rtol=0, atol=1e-6
        )
        assert cohort[small].n_batches == alone[0].n_batches
        assert cohort[small].mean_loss == pytest.approx(
            alone[0].mean_loss, rel=1e-5
        )

    def test_schedule_matches_dataloader_batches(self, mlp_env_factory):
        """plan_cohort_schedule reproduces the serial DataLoader's batch
        composition exactly: same permutations, same slicing, same
        effective batch size ``min(batch_size, n)``."""
        env = mlp_env_factory(
            TrainConfig(local_epochs=2, batch_size=32, lr=0.05, momentum=0.9)
        )
        cfg = env.train_cfg
        sizes = [len(c.train) for c in env.federation.clients]
        rngs = [rng_for(env.seed, 1, 5, cid) for cid in range(len(sizes))]
        steps, width = plan_cohort_schedule(sizes, cfg, rngs)
        assert width == min(cfg.batch_size, max(sizes))
        for cid, dataset in enumerate(
            c.train for c in env.federation.clients
        ):
            loader = DataLoader(
                dataset,
                min(cfg.batch_size, len(dataset)),
                rng=rng_for(env.seed, 1, 5, cid),
                shuffle=True,
            )
            serial_batches = []
            for _ in range(cfg.local_epochs):
                for images, labels in loader:
                    serial_batches.append((images, labels))
            mine = [s.indices[cid] for s in steps if s.indices[cid] is not None]
            assert len(mine) == len(serial_batches)
            for idx, (images, labels) in zip(mine, serial_batches):
                np.testing.assert_array_equal(dataset.images[idx], images)
                np.testing.assert_array_equal(dataset.labels[idx], labels)

    def test_empty_dataset_raises(self, mlp_env_factory):
        env = mlp_env_factory(TrainConfig(local_epochs=1, batch_size=8, lr=0.1))
        with pytest.raises(ValueError, match="empty dataset"):
            plan_cohort_schedule([32, 0], env.train_cfg, [None, None])


# ----------------------------------------------------------------------
# FedProx on the batched plane
# ----------------------------------------------------------------------
class TestFedProxAnchor:
    def test_proximal_updates_match_serial(self, mlp_env_factory):
        """The batched proximal term anchors on the shared broadcast —
        exactly what ProximalSGD.set_anchor_flat gives the serial path."""
        env = mlp_env_factory(
            TrainConfig(local_epochs=2, batch_size=32, lr=0.05, momentum=0.9)
        )
        tasks = _broadcast_tasks(env, prox_mu=0.5)
        serial = SerialClientExecutor().run(env, tasks, round_index=1)
        batched = BatchedClientExecutor().run(env, tasks, round_index=1)
        _assert_parity(serial, batched)

    def test_proximal_pull_shrinks_drift(self, mlp_env_factory):
        """Sanity on semantics, not just parity: a large mu keeps the
        batched updates closer to the broadcast than mu = 0 does."""
        env = mlp_env_factory(
            TrainConfig(local_epochs=2, batch_size=32, lr=0.05, momentum=0.9)
        )
        vector = env.layout.pack(env.init_state())
        cids = list(range(env.federation.n_clients))
        free = train_cohort_flat(env, cids, vector, round_index=1, prox_mu=0.0)
        pulled = train_cohort_flat(env, cids, vector, round_index=1, prox_mu=5.0)
        drift_free = np.linalg.norm(np.stack([u.flat for u in free]) - vector)
        drift_pulled = np.linalg.norm(np.stack([u.flat for u in pulled]) - vector)
        assert drift_pulled < drift_free


# ----------------------------------------------------------------------
# Routing: conv models fall back to the serial kernel
# ----------------------------------------------------------------------
class TestConvFallback:
    def test_conv_model_routes_serial_and_is_bit_identical(self, small_env):
        assert not supports_batched(small_env.scratch_model)
        tasks = _broadcast_tasks(small_env)
        serial = SerialClientExecutor().run(small_env, tasks, round_index=1)
        executor = BatchedClientExecutor()
        routed = executor.run(small_env, tasks, round_index=1)
        assert executor.last_dispatch == {
            "batched": 0,
            "serial": small_env.federation.n_clients,
        }
        for s, r in zip(serial, routed):
            np.testing.assert_array_equal(s.flat, r.flat)

    def test_mlp_model_routes_batched(self, mlp_env_factory):
        env = mlp_env_factory(
            TrainConfig(local_epochs=1, batch_size=32, lr=0.05, momentum=0.9)
        )
        assert supports_batched(env.scratch_model)
        executor = BatchedClientExecutor()
        executor.run(env, _broadcast_tasks(env), round_index=1)
        assert executor.last_dispatch == {
            "batched": env.federation.n_clients,
            "serial": 0,
        }

    def test_make_executor_knows_batched(self):
        assert isinstance(make_executor("batched"), BatchedClientExecutor)


# ----------------------------------------------------------------------
# Representation selection and lazy update states
# ----------------------------------------------------------------------
class TestRepresentationPlumbing:
    def test_factored_selection_respects_rank_bound(self, mlp_env_factory):
        env = mlp_env_factory(
            TrainConfig(local_epochs=1, batch_size=32, lr=0.05), hidden=(128,)
        )
        # 32 distinct samples per client < 128: the first layer is
        # factored; deeper layers never are.
        keys = select_factored_keys(env.scratch_model, 6, 32)
        assert keys == frozenset({"fc1.weight"})
        # rank beyond the hidden width: nothing factored.
        assert select_factored_keys(env.scratch_model, 6, 320) == frozenset()

    def test_deeper_factored_key_raises(self, mlp_env_factory):
        """Only the first layer's input is the raw sample."""
        from repro.nn.batched import build_batched

        env = mlp_env_factory(
            TrainConfig(local_epochs=1, batch_size=32, lr=0.05), hidden=(128,)
        )
        vector = env.layout.pack(env.init_state())
        with pytest.raises(ValueError, match="classifier.weight"):
            build_batched(
                env.scratch_model,
                env.layout,
                2,
                vector,
                factored_keys=frozenset({"classifier.weight"}),
                samples=[np.zeros((1, 3072), np.float32)] * 2,
            )


# ----------------------------------------------------------------------
# End-to-end: the Table-I metric is executor-invariant on a seeded config
# ----------------------------------------------------------------------
class TestTableOneParity:
    def _accuracies(self, executor_kind: str, algorithm):
        federation = build_federation(
            "cifar10",
            n_clients=8,
            n_samples=800,
            seed=5,
            partition="label_cluster",
        )
        env = FederatedEnv(
            federation,
            model_name="mlp",
            model_kwargs={"hidden": (96,)},
            train_cfg=TrainConfig(
                local_epochs=2, batch_size=32, lr=0.05, momentum=0.9
            ),
            seed=2,
            executor=executor_kind,
        )
        result = algorithm().run(env, n_rounds=3)
        return result.final_accuracy, result.per_client_accuracy

    def test_fedavg_accuracy_identical_across_executors(self):
        """The seeded Table-I gate: per-client accuracies from the
        batched executor equal the serial ones exactly (updates differ
        at float32 round-off; no argmax flips on this seeded config —
        any real regression flips many)."""
        from repro.algorithms.fedavg import FedAvg

        serial_mean, serial_acc = self._accuracies("serial", FedAvg)
        batched_mean, batched_acc = self._accuracies("batched", FedAvg)
        np.testing.assert_array_equal(serial_acc, batched_acc)
        assert serial_mean == batched_mean

    def test_ifca_accuracy_identical_across_executors(self):
        from repro.algorithms.ifca import IFCA

        serial_mean, serial_acc = self._accuracies(
            "serial", lambda: IFCA(n_clusters=2)
        )
        batched_mean, batched_acc = self._accuracies(
            "batched", lambda: IFCA(n_clusters=2)
        )
        np.testing.assert_array_equal(serial_acc, batched_acc)
        assert serial_mean == batched_mean


# ----------------------------------------------------------------------
# Budget-aware factored routing (regression: cohort-max rank forced
# budgeted cohorts dense)
# ----------------------------------------------------------------------
class TestBudgetAwareFactoredRouting:
    _CFG = TrainConfig(local_epochs=4, batch_size=32, lr=0.05, momentum=0.9)

    def test_mean_step_rank_replaces_cohort_max(self, mlp_env_factory):
        env = mlp_env_factory(self._CFG, hidden=(128,))
        model = env.scratch_model
        # Unbudgeted members each visit 200 distinct samples: rank
        # 200 > 128 -> dense.
        assert select_factored_keys(model, 6, 200) == frozenset()
        # Budgeted members visit 32-192: the effective rank is the mean
        # (~69 < 128), not the widest member.
        keys = select_factored_keys(
            model, 6, 192, sample_counts=[32, 64, 192, 32, 64, 32]
        )
        assert keys == frozenset({"fc1.weight"})

    def test_one_unbudgeted_client_no_longer_forces_dense(
        self, mlp_env_factory
    ):
        """A cohort-max criterion would let a single full-length member
        veto factoring for everyone; the mean keeps the typical member's
        rank in charge."""
        env = mlp_env_factory(self._CFG, hidden=(128,))
        # mean([32]*5 + [200]) = 60 < 128: factored.
        keys = select_factored_keys(
            env.scratch_model, 6, 200, sample_counts=[32] * 5 + [200]
        )
        assert "fc1.weight" in keys

    def test_uniform_step_counts_leave_selection_unchanged(
        self, mlp_env_factory
    ):
        env = mlp_env_factory(self._CFG, hidden=(128,))
        for n_samples in (32, 128, 200):
            np.testing.assert_equal(
                select_factored_keys(env.scratch_model, 6, n_samples),
                select_factored_keys(
                    env.scratch_model, 6, n_samples, sample_counts=[n_samples] * 6
                ),
            )

    def test_step_counts_length_is_validated(self, mlp_env_factory):
        env = mlp_env_factory(self._CFG, hidden=(128,))
        with pytest.raises(ValueError, match="sample_counts"):
            select_factored_keys(
                env.scratch_model, 6, 64, sample_counts=[32, 64]
            )

    def test_batched_budget_cohort_routes_factored(
        self, mlp_env_factory, monkeypatch
    ):
        """End to end through the batched executor: a cohort whose every
        member carries a (1, 2)-step budget must select the factored
        representation even though the unbudgeted schedule, which visits
        every client's whole dataset, would not."""
        import repro.fl.train_flat as train_flat

        calls = []
        orig = train_flat.select_factored_keys

        def spy(*args, **kwargs):
            keys = orig(*args, **kwargs)
            calls.append((keys, kwargs.get("sample_counts")))
            return keys

        monkeypatch.setattr(train_flat, "select_factored_keys", spy)
        env = mlp_env_factory(self._CFG, hidden=(64,), executor="batched")
        sizes = [len(c.train) for c in env.federation.clients]
        assert (
            orig(env.scratch_model, len(sizes), max(sizes), sample_counts=sizes)
            == frozenset()
        )
        vector = env.layout.pack(env.init_state())
        tasks = [
            UpdateTask(cid, flat=vector, max_steps=1 + cid % 2)
            for cid in range(env.federation.n_clients)
        ]
        updates = env.run_updates(tasks, 1)
        assert len(updates) == env.federation.n_clients
        assert calls, "the batched path selects its representation"
        keys, sample_counts = calls[-1]
        assert "fc1.weight" in keys
        assert sample_counts is not None and max(sample_counts) <= 2 * 32
        # The budget really truncated the work, not just the estimate.
        assert all(u.n_batches <= 2 for u in updates)
