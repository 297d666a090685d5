"""The async round engine: dispatch and aggregation as event streams.

Four contracts:

1. **Sync equivalence** — ``AsyncConfig(buffer_size=|participants|,
   duration_range=1)`` with unbounded concurrency reproduces the
   synchronous engine bit-for-bit for every algorithm: per-client
   accuracies, record streams AND traffic totals.  The lockstep loop is
   the exact special case where every dispatch arrives in its own round
   and the buffer fills exactly once per round.
2. **Seeded determinism** — async interleavings are a pure function of
   (seed, scenario): durations draw from their own ``DURATION_TAG``
   stream and results are computed eagerly at dispatch, so the same
   config replays identically across serial/process/batched executors.
3. **Buffer semantics** — aggregation fires at K buffered arrivals (the
   final round flushes partial buffers); each buffered update folds at
   ``decay ** age`` into a *copy*; one update per client per event
   (newer supersedes older, both uploads charged); in-flight clients
   are never re-dispatched; ``max_concurrency`` truncates dispatch to
   the lowest client ids.
4. **Config hygiene** — ``AsyncConfig`` validates its knobs;
   ``straggler_rate`` is a synchronous-deadline concept and composing
   it with async mode is a loud error.
"""

from __future__ import annotations

import numpy as np
import pytest
from helpers import global_rounds

from repro.algorithms.base import ClusteredRounds
from repro.algorithms.registry import make_algorithm
from repro.data.federation import build_federation
from repro.fl.client import ClientUpdate
from repro.fl.config import TrainConfig
from repro.fl.history import RunHistory
from repro.fl.parallel import InFlightBuffer
from repro.fl.rounds import (
    AsyncConfig,
    RoundEngine,
    ScenarioConfig,
    discounted_update,
)
from repro.fl.simulation import FederatedEnv

_KWARGS = {
    "fedavg": {},
    "fedprox": {"mu": 0.1},
    "cfl": {"warmup_rounds": 1},
    "ifca": {"n_clusters": 2},
    "pacfl": {},
    "fedclust": {"warmup_steps": 10, "warmup_lr": 0.01},
    "local_only": {},
}


@pytest.fixture(scope="module")
def federation():
    return build_federation(
        "cifar10", n_clients=8, n_samples=800, seed=5, partition="label_cluster"
    )


@pytest.fixture(scope="module")
def env_factory(federation):
    def make(executor="serial", local_epochs=1, seed=2):
        return FederatedEnv(
            federation,
            model_name="mlp",
            model_kwargs={"hidden": (96,)},
            train_cfg=TrainConfig(
                local_epochs=local_epochs, batch_size=32, lr=0.05, momentum=0.9
            ),
            seed=seed,
            executor=executor,
        )

    return make


def _async_run(env, *, n_rounds=6, algorithm="fedavg", decay=0.0, **async_kwargs):
    scenario = ScenarioConfig(
        staleness_decay=decay, async_config=AsyncConfig(**async_kwargs)
    )
    return make_algorithm(algorithm, **_KWARGS[algorithm]).run(
        env, n_rounds=n_rounds, scenario=scenario
    )


# ----------------------------------------------------------------------
# AsyncConfig validation
# ----------------------------------------------------------------------
class TestAsyncConfig:
    def test_duration_int_normalises_to_pair(self):
        assert AsyncConfig(duration_range=2).duration_range == (2, 2)
        assert AsyncConfig(duration_range=(1, 4)).duration_range == (1, 4)

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"buffer_size": 0},
            {"buffer_size": -1},
            {"max_concurrency": 0},
            {"duration_range": 0},
            {"duration_range": (0, 2)},
            {"duration_range": (3, 2)},
            {"duration_range": (1, 2, 3)},
        ],
    )
    def test_validation(self, kwargs):
        with pytest.raises(ValueError):
            AsyncConfig(**kwargs)

    def test_async_scenario_leaves_default(self):
        assert ScenarioConfig(async_config=AsyncConfig()).to_dict() == {
            "async_config": {
                "buffer_size": 1,
                "max_concurrency": None,
                "duration_range": [1, 3],
            }
        }

    def test_async_rejects_stragglers(self):
        """Stragglers model a missed synchronous deadline; async has no
        deadline — latency is the duration draw.  Composing them is a
        configuration error, not a silent no-op."""
        with pytest.raises(ValueError, match="straggler"):
            ScenarioConfig(async_config=AsyncConfig(), straggler_rate=0.3)

    def test_async_composes_with_other_knobs(self):
        scenario = ScenarioConfig(
            client_fraction=0.5,
            failure_rate=0.1,
            staleness_decay=0.5,
            compute_budget=(1, 4),
            async_config=AsyncConfig(buffer_size=3),
        )
        assert scenario.async_config.buffer_size == 3


# ----------------------------------------------------------------------
# The sync-equivalence pin: lockstep is the K=m, duration=1 special case
# ----------------------------------------------------------------------
class TestSyncEquivalence:
    @pytest.mark.parametrize("algorithm", sorted(_KWARGS))
    def test_async_special_case_is_bit_identical_to_sync(
        self, env_factory, algorithm
    ):
        env_sync = env_factory()
        sync = make_algorithm(algorithm, **_KWARGS[algorithm]).run(
            env_sync, n_rounds=3
        )
        env_async = env_factory()
        asynchronous = _async_run(
            env_async, n_rounds=3, algorithm=algorithm,
            buffer_size=8, duration_range=1,
        )
        np.testing.assert_array_equal(
            sync.per_client_accuracy, asynchronous.per_client_accuracy
        )
        assert env_sync.tracker.total_uploaded == env_async.tracker.total_uploaded
        assert (
            env_sync.tracker.total_downloaded
            == env_async.tracker.total_downloaded
        )
        one_shot = make_algorithm(algorithm, **_KWARGS[algorithm]).one_shot
        for a, b in zip(sync.history.records, asynchronous.history.records):
            assert a.round_index == b.round_index
            assert a.mean_train_loss == pytest.approx(b.mean_train_loss, nan_ok=True)
            assert a.n_participants == b.n_participants
            # The buffer fills every engine round; a one-shot method's
            # clustering round (round 1) folds nothing.
            assert b.aggregation_event == (b.round_index > 1 or not one_shot)
            assert b.n_buffered == 0  # ... and drains every round

    def test_sampled_sync_draws_are_untouched_by_exclusion_plumbing(
        self, env_factory
    ):
        """``select_participants(exclude=...)`` with an empty exclusion
        must leave the seeded sampling stream exactly as the sync path
        draws it."""
        env = env_factory()
        engine = RoundEngine(env, ScenarioConfig(client_fraction=0.5))
        for round_index in (1, 2, 3):
            plain = engine.select_participants(round_index)
            excluded = engine.select_participants(round_index, exclude=[])
            np.testing.assert_array_equal(plain, excluded)


# ----------------------------------------------------------------------
# Seeded determinism and executor invariance
# ----------------------------------------------------------------------
class TestAsyncDeterminism:
    def _record_key(self, result):
        return [
            (
                r.round_index,
                r.n_participants,
                r.aggregation_event,
                r.n_buffered,
                r.n_stale,
            )
            for r in result.history.records
        ]

    def test_same_seed_replays_identically(self, env_factory):
        runs = [
            _async_run(
                env_factory(), buffer_size=3, max_concurrency=5,
                duration_range=(1, 3), decay=0.9,
            )
            for _ in range(2)
        ]
        np.testing.assert_array_equal(
            runs[0].per_client_accuracy, runs[1].per_client_accuracy
        )
        assert self._record_key(runs[0]) == self._record_key(runs[1])

    @pytest.mark.parametrize("executor", ["process", "batched"])
    def test_executor_invariance(self, env_factory, executor):
        """Durations draw from the DURATION_TAG stream and results are
        computed eagerly at dispatch, so the executor kind cannot change
        what arrives when."""
        serial = _async_run(
            env_factory("serial"), buffer_size=3, duration_range=(1, 3),
            decay=0.5,
        )
        other = _async_run(
            env_factory(executor), buffer_size=3, duration_range=(1, 3),
            decay=0.5,
        )
        np.testing.assert_allclose(
            other.per_client_accuracy,
            serial.per_client_accuracy,
            rtol=0,
            atol=5e-5,
        )
        assert self._record_key(serial) == self._record_key(other)

    def test_seed_changes_the_interleaving(self, env_factory):
        a = _async_run(env_factory(seed=2), buffer_size=3, duration_range=(1, 3))
        b = _async_run(env_factory(seed=3), buffer_size=3, duration_range=(1, 3))
        assert self._record_key(a) != self._record_key(b)


# ----------------------------------------------------------------------
# Buffer semantics
# ----------------------------------------------------------------------
class TestBufferSemantics:
    def test_rounds_without_event_log_nan_loss(self, env_factory):
        """With duration 2 the first round can have no arrivals: its
        record must say so (NaN loss, no aggregation event) rather than
        fabricate a measurement."""
        result = _async_run(
            env_factory(), buffer_size=8, duration_range=2, n_rounds=4
        )
        first = result.history.records[0]
        assert not first.aggregation_event
        assert np.isnan(first.mean_train_loss)
        events = [r for r in result.history.records if r.aggregation_event]
        assert events, "a duration-2 run still aggregates eventually"
        for r in events:
            assert np.isfinite(r.mean_train_loss)

    def test_final_round_flushes_partial_buffer(self, env_factory):
        """K larger than the federation can never fill; arrived work is
        still aggregated (once, in the final round) instead of being
        thrown away at shutdown."""
        result = _async_run(
            env_factory(), buffer_size=100, duration_range=2, n_rounds=3
        )
        records = result.history.records
        assert [r.aggregation_event for r in records] == [False, False, True]
        last = records[-1]
        assert np.isfinite(last.mean_train_loss)
        assert last.n_buffered == 0  # the flush drained it
        assert last.n_stale > 0  # flushed work was dispatched earlier

    def test_staleness_discount_applies_decay_pow_age(
        self, env_factory, monkeypatch
    ):
        """Duration 2 with K=m makes every aggregated update exactly one
        round old: each must fold at weight n_samples x decay^1, through
        a copy (the buffered original keeps weight None)."""
        captured = []
        orig = ClusteredRounds.aggregate

        def spy(self, engine, round_index, updates):
            captured.append((round_index, list(updates)))
            return orig(self, engine, round_index, updates)

        monkeypatch.setattr(ClusteredRounds, "aggregate", spy)
        _async_run(
            env_factory(), buffer_size=8, duration_range=2, decay=0.9,
            n_rounds=2,
        )
        assert len(captured) == 1
        round_index, updates = captured[0]
        assert round_index == 2 and len(updates) == 8
        for u in updates:
            assert u.weight == pytest.approx(u.n_samples * 0.9)

    def test_zero_decay_means_undiscounted_in_async(
        self, env_factory, monkeypatch
    ):
        """decay=0 is the sync engine's "discard stragglers" mode; async
        has no discard — lateness is the normal case, so 0 means fold at
        full weight."""
        captured = []
        orig = ClusteredRounds.aggregate

        def spy(self, engine, round_index, updates):
            captured.append(list(updates))
            return orig(self, engine, round_index, updates)

        monkeypatch.setattr(ClusteredRounds, "aggregate", spy)
        _async_run(
            env_factory(), buffer_size=8, duration_range=2, decay=0.0,
            n_rounds=2,
        )
        for u in captured[0]:
            assert u.weight == pytest.approx(float(u.n_samples))

    def test_in_flight_clients_are_not_redispatched(self, env_factory):
        """With a fixed duration of 2 every client alternates train/
        deliver, so dispatches happen only on odd rounds — a client mid-
        training is excluded from selection."""
        result = _async_run(
            env_factory(), buffer_size=8, duration_range=2, n_rounds=6
        )
        dispatched = [r.n_participants for r in result.history.records]
        assert dispatched == [8, 0, 8, 0, 8, 0]

    def test_newer_arrival_supersedes_buffered_update(self, env_factory):
        """Duration 1 with K too large to fire: every round all m
        clients re-arrive, and the buffer keeps exactly one entry per
        client — while every upload is still charged (it crossed the
        network)."""
        env = env_factory()
        result = _async_run(
            env, buffer_size=100, duration_range=1, n_rounds=4
        )
        records = result.history.records
        assert [r.n_buffered for r in records] == [8, 8, 8, 0]
        # 4 rounds x 8 uploads each, despite only 8 surviving to the flush.
        assert env.tracker.total_uploaded == 4 * 8 * env.n_params

    def test_aggregation_counters_match_records(self, env_factory):
        env = env_factory()
        strategy = global_rounds(env)
        engine = RoundEngine(
            env,
            ScenarioConfig(
                async_config=AsyncConfig(buffer_size=3, duration_range=(1, 3))
            ),
        )
        history = RunHistory("fedavg", "cifar10", env.seed)
        engine.run(strategy, 5, history)
        events = [r for r in history.records if r.aggregation_event]
        assert engine.n_aggregation_events == len(events)
        # Every absorbed update was dispatched exactly once.
        dispatched = sum(len(ids) for _, ids in engine.participation_log)
        assert engine.n_updates_absorbed <= dispatched
        assert history.to_dict()["n_aggregation_events"] == len(events)

    @pytest.mark.parametrize(
        "async_config",
        [None, AsyncConfig(buffer_size=3, duration_range=(1, 3))],
        ids=["sync", "async"],
    )
    @pytest.mark.parametrize("algorithm", sorted(_KWARGS))
    def test_history_counts_the_engines_aggregation_events(
        self, env_factory, algorithm, async_config
    ):
        """Through ``FLAlgorithm.run`` the history (whose count is the
        harness record's ``metrics.n_aggregation_events``) agrees with
        the engine: a one-shot method's clustering round folds nothing,
        so it is no aggregation event."""
        env = env_factory()
        result = make_algorithm(algorithm, **_KWARGS[algorithm]).run(
            env, n_rounds=4, scenario=ScenarioConfig(async_config=async_config)
        )
        engine_count = result.extras["engine_record"]["n_aggregation_events"]
        assert result.history.to_dict()["n_aggregation_events"] == engine_count
        assert engine_count >= 1


class TestConcurrencyCap:
    def test_cap_truncates_to_lowest_ids(self, env_factory):
        """Duration 1 frees every slot each round, so the cap picks the
        deterministically-lowest ids of the full selection every time."""
        env = env_factory()
        engine = RoundEngine(
            env,
            ScenarioConfig(
                async_config=AsyncConfig(
                    buffer_size=3, max_concurrency=3, duration_range=1
                )
            ),
        )
        strategy = global_rounds(env)
        engine.run(strategy, 3, RunHistory("fedavg", "cifar10", env.seed))
        assert engine.participation_log == [
            (1, [0, 1, 2]),
            (2, [0, 1, 2]),
            (3, [0, 1, 2]),
        ]

    def test_cap_counts_in_flight_work(self, env_factory):
        """With duration 2 and M=5, round 1 fills all five slots and
        round 2 has zero free — no over-dispatch past the cap."""
        env = env_factory()
        engine = RoundEngine(
            env,
            ScenarioConfig(
                async_config=AsyncConfig(
                    buffer_size=8, max_concurrency=5, duration_range=2
                )
            ),
        )
        strategy = global_rounds(env)
        engine.run(strategy, 4, RunHistory("fedavg", "cifar10", env.seed))
        by_round = dict(engine.participation_log)
        assert by_round[1] == [0, 1, 2, 3, 4]
        assert 2 not in by_round  # all five slots occupied mid-training
        assert by_round[3] == [0, 1, 2, 3, 4]


# ----------------------------------------------------------------------
# The in-flight ledger
# ----------------------------------------------------------------------
class TestInFlightBuffer:
    def _update(self, cid):
        return ClientUpdate(
            client_id=cid, flat=np.zeros(3), n_samples=10, mean_loss=0.0, n_batches=1
        )

    def test_collect_due_releases_in_dispatch_order(self):
        buffer = InFlightBuffer()
        buffer.add([self._update(3)], dispatch_round=1, completes_at=[2])
        buffer.add([self._update(1)], dispatch_round=2, completes_at=[2])
        assert buffer.client_ids == frozenset({3, 1})
        due = buffer.collect_due(2)
        assert [(r, u.client_id) for r, u in due] == [(1, 3), (2, 1)]
        assert len(buffer) == 0

    def test_not_yet_due_work_stays_in_flight(self):
        buffer = InFlightBuffer()
        buffer.add(
            [self._update(0), self._update(1)],
            dispatch_round=1,
            completes_at=[1, 3],
        )
        assert [u.client_id for _, u in buffer.collect_due(1)] == [0]
        assert buffer.client_ids == frozenset({1})
        assert [u.client_id for _, u in buffer.collect_due(3)] == [1]

    def test_validation(self):
        buffer = InFlightBuffer()
        with pytest.raises(ValueError, match="delivery rounds"):
            buffer.add([self._update(0)], dispatch_round=1, completes_at=[1, 2])
        with pytest.raises(ValueError, match="before its dispatch"):
            buffer.add([self._update(0)], dispatch_round=3, completes_at=[2])


# ----------------------------------------------------------------------
# discounted_update: the stale-fold copy (regression for the in-place
# weight mutation bug)
# ----------------------------------------------------------------------
class TestDiscountedUpdate:
    def _update(self, weight=None):
        return ClientUpdate(
            client_id=0,
            flat=np.zeros(3),
            n_samples=40,
            mean_loss=0.1,
            n_batches=4,
            weight=weight,
        )

    def test_folding_twice_does_not_compound(self):
        """The old ``_fold_stale`` wrote the discount into the buffered
        update in place, so observing the same update in two folds
        multiplied the weight by decay^2.  Folding must come back as a
        copy: two age-1 folds of the same original both weigh
        n_samples x decay."""
        update = self._update()
        first = discounted_update(update, 0.5, 1)
        second = discounted_update(update, 0.5, 1)
        assert first.weight == second.weight == pytest.approx(40 * 0.5)
        assert update.weight is None  # original untouched

    def test_budget_weight_is_the_discount_base(self):
        """Compute budgets set ``weight`` to steps taken; the staleness
        discount multiplies that, not the sample count."""
        folded = discounted_update(self._update(weight=4.0), 0.5, 2)
        assert folded.weight == pytest.approx(4.0 * 0.25)

    def test_copy_is_shallow(self):
        update = self._update()
        folded = discounted_update(update, 0.9, 1)
        assert folded is not update
        assert folded.flat is update.flat  # aggregation only reads it
