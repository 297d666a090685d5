"""Server hardening: corruption injection, admission, robust
aggregation, survivor quorum.

Four contracts:

1. **Corruption is middleware** — seeded per-(dispatch round, client)
   events on their own rng stream, identical across executor kinds and
   deterministic per seed; rate 0 allocates nothing.
2. **Admission guards the choke point** — non-finite and norm-exploded
   rows are quarantined with reason codes, charged their upload, and
   excluded from aggregation *and* the survivor loss statistic exactly
   like zero-step clients.
3. **Robust aggregation** — ``"none"`` is bit-identical to the
   historical weighted average; the robust modes survive poisoned
   cohorts the plain rule cannot.
4. **Quorum + retry** — below ``min_survivors`` the engine redispatches
   on fresh seeded epochs; still short, the round degrades gracefully
   (frozen state, NaN loss, ``quorum_failed``) instead of aggregating
   garbage.

The corruption × quorum × resume smoke cell at the bottom is the CI
matrix cell for this PR: all three defenses composed in one run, with
checkpoint/resume bit-identity on top.
"""

from __future__ import annotations

import numpy as np
import pytest
from helpers import fates, global_rounds

from repro.algorithms.base import survivor_mean_loss
from repro.algorithms.registry import make_algorithm
from repro.data.federation import build_federation
from repro.fl.aggregation import packed_weighted_average
from repro.fl.client import ClientUpdate
from repro.fl.config import TrainConfig
from repro.fl.defense import (
    CORRUPTION_KINDS,
    QUARANTINE_NON_FINITE,
    QUARANTINE_NORM_BOUND,
    CheckpointConfig,
    CorruptionConfig,
    admit_updates,
    maybe_corrupt,
    robust_weighted_average,
)
from repro.fl.history import RunHistory
from repro.fl.parallel import UpdateTask
from repro.fl.rounds import AsyncConfig, RoundEngine, ScenarioConfig
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


def _update(cid, flat, n_samples=100):
    return ClientUpdate(
        client_id=cid,
        flat=np.asarray(flat, dtype=np.float64),
        n_samples=n_samples,
        mean_loss=1.0,
        n_batches=3,
    )


# ----------------------------------------------------------------------
# Corruption fault injection
# ----------------------------------------------------------------------
class TestCorruptionConfig:
    @pytest.mark.parametrize(
        "kwargs",
        [
            {"rate": -0.1},
            {"rate": 1.5},
            {"kinds": ()},
            {"kinds": ("nan", "bitrot")},
            {"scale": 0.0},
        ],
    )
    def test_validation(self, kwargs):
        with pytest.raises(ValueError):
            CorruptionConfig(**kwargs)

    def test_scenario_rejects_bad_mode_and_knobs(self):
        with pytest.raises(ValueError):
            ScenarioConfig(robust_agg="median_of_means")
        with pytest.raises(ValueError):
            ScenarioConfig(trim_fraction=0.5)
        with pytest.raises(ValueError):
            ScenarioConfig(norm_bound=0.0)
        with pytest.raises(ValueError):
            ScenarioConfig(min_survivors=-1)
        with pytest.raises(ValueError):
            ScenarioConfig(max_retries=-1)

    def test_async_quorum_is_rejected(self):
        # buffer_size IS the async quorum; a second one is a config error.
        with pytest.raises(ValueError, match="async"):
            ScenarioConfig(
                async_config=AsyncConfig(buffer_size=4), min_survivors=2
            )

    def test_defense_knobs_leave_default(self):
        assert ScenarioConfig(corruption=CorruptionConfig(rate=0.0)).to_dict() == {}
        assert ScenarioConfig(corruption=CorruptionConfig(rate=0.1)).to_dict() == {
            "corruption": {
                "rate": 0.1,
                "kinds": list(CORRUPTION_KINDS),
                "scale": 10.0,
            }
        }
        assert ScenarioConfig(robust_agg="clip").to_dict() == {"robust_agg": "clip"}
        assert ScenarioConfig(norm_bound=3.0).to_dict() == {"norm_bound": 3.0}
        assert ScenarioConfig(min_survivors=1).to_dict() == {"min_survivors": 1}
        # The checkpoint is an execution detail, never part of the dict.
        assert ScenarioConfig(checkpoint="somewhere").to_dict() == {}

    def test_bare_directory_coerces_to_checkpoint_config(self, tmp_path):
        scenario = ScenarioConfig(checkpoint=str(tmp_path))
        assert isinstance(scenario.checkpoint, CheckpointConfig)
        assert scenario.checkpoint.path.parent == tmp_path


class TestMaybeCorrupt:
    def _env_update(self, env_factory):
        env = env_factory()
        flat = env.layout.pack(env.init_state())
        return env, _update(3, flat)

    def test_rate_zero_returns_the_same_object(self, env_factory):
        _, update = self._env_update(env_factory)
        out = maybe_corrupt(update, 0, 1, CorruptionConfig(rate=0.0))
        assert out is update

    def test_event_is_deterministic_per_seed(self, env_factory):
        _, update = self._env_update(env_factory)
        cfg = CorruptionConfig(rate=1.0, kinds=("noise",))
        a = maybe_corrupt(update, 7, 2, cfg)
        b = maybe_corrupt(update, 7, 2, cfg)
        np.testing.assert_array_equal(a.flat, b.flat)
        # A different round (or client) rolls different dice.
        c = maybe_corrupt(update, 7, 3, cfg)
        assert not np.array_equal(a.flat, c.flat)

    def test_fired_event_copies_never_aliases(self, env_factory):
        _, update = self._env_update(env_factory)
        out = maybe_corrupt(update, 0, 1, CorruptionConfig(rate=1.0))
        assert out is not update
        assert out.flat is not update.flat
        assert np.isfinite(update.flat).all()  # pristine original

    @pytest.mark.parametrize("kind", CORRUPTION_KINDS)
    def test_kinds(self, env_factory, kind):
        _, update = self._env_update(env_factory)
        cfg = CorruptionConfig(rate=1.0, kinds=(kind,), scale=10.0)
        out = maybe_corrupt(update, 0, 1, cfg)
        if kind == "nan":
            assert np.isnan(out.flat).any()
        elif kind == "inf":
            assert np.isinf(out.flat).any()
        elif kind == "sign_flip":
            np.testing.assert_array_equal(out.flat, -update.flat)
        else:  # noise: finite but far from the original
            assert np.isfinite(out.flat).all()
            assert np.linalg.norm(out.flat - update.flat) > 1.0

    def test_corruption_schedule_is_executor_invariant(self, env_factory):
        scenario = ScenarioConfig(
            corruption=CorruptionConfig(rate=0.5, kinds=("nan", "inf")),
            robust_agg="trimmed_mean",
        )
        results = {}
        for executor in ("serial", "batched"):
            env = env_factory(executor)
            try:
                result = make_algorithm("fedavg").run(
                    env, n_rounds=2, scenario=scenario
                )
            finally:
                env.close()
            results[executor] = result
        np.testing.assert_array_equal(
            results["serial"].per_client_accuracy,
            results["batched"].per_client_accuracy,
        )
        events = results["serial"].extras["events"]
        assert events == results["batched"].extras["events"]
        assert fates(events, "quarantine")


# ----------------------------------------------------------------------
# Admission
# ----------------------------------------------------------------------
class TestAdmission:
    def test_clean_batch_returns_the_original_list_object(self, env_factory):
        env = env_factory()
        flat = env.layout.pack(env.init_state())
        updates = [_update(0, flat), _update(1, flat + 1.0)]
        admitted, rejected = admit_updates(updates)
        assert admitted is updates
        assert rejected == []

    def test_non_finite_rows_are_rejected_with_reason(self, env_factory):
        env = env_factory()
        flat = env.layout.pack(env.init_state())
        bad = flat.copy()
        bad[7] = np.nan
        worse = flat.copy()
        worse[0] = np.inf
        updates = [
            _update(0, flat),
            _update(1, bad),
            _update(2, worse),
        ]
        admitted, rejected = admit_updates(updates)
        assert [u.client_id for u in admitted] == [0]
        assert rejected == [
            (1, QUARANTINE_NON_FINITE),
            (2, QUARANTINE_NON_FINITE),
        ]

    def test_norm_bound_rejects_exploded_rows(self, env_factory):
        env = env_factory()
        flat = env.layout.pack(env.init_state())
        updates = [
            _update(0, flat),
            _update(1, flat),
            _update(2, flat * 100.0),
        ]
        admitted, rejected = admit_updates(updates, norm_bound=3.0)
        assert [u.client_id for u in admitted] == [0, 1]
        assert rejected == [(2, QUARANTINE_NORM_BOUND)]
        # Without the bound the exploded row sails through (it is finite).
        admitted, rejected = admit_updates(updates)
        assert len(admitted) == 3 and not rejected

    def test_zero_median_skips_the_norm_guard(self, env_factory):
        env = env_factory()
        zero = np.zeros(env.n_params)
        updates = [_update(0, zero), _update(1, zero)]
        admitted, rejected = admit_updates(updates, norm_bound=2.0)
        assert len(admitted) == 2 and not rejected

    def test_quarantine_is_charged_and_logged(self, env_factory):
        env = env_factory()
        scenario = ScenarioConfig(
            corruption=CorruptionConfig(rate=1.0, kinds=("nan",)),
            min_survivors=0,
        )
        try:
            result = make_algorithm("fedavg").run(
                env, n_rounds=2, scenario=scenario
            )
        finally:
            env.close()
        m = env.federation.n_clients
        # Every client uploaded every round — the bytes crossed the
        # network before admission refused them.
        assert env.tracker.total_uploaded == 2 * m * env.n_params
        reasons = [
            reason
            for _, kind, _, reason in result.extras["events"]
            if kind == "quarantine"
        ]
        assert reasons and all(reason == QUARANTINE_NON_FINITE for reason in reasons)
        assert [r.n_quarantined for r in result.history.records] == [m, m]
        assert result.history.to_dict()["n_quarantined_total"] == 2 * m

    def test_quarantined_rows_never_reach_the_server(self, env_factory):
        env = env_factory()
        strategy = global_rounds(env)
        before = strategy.matrix[0].copy()
        engine = RoundEngine(
            env,
            ScenarioConfig(corruption=CorruptionConfig(rate=1.0, kinds=("nan",))),
        )
        try:
            engine.run(strategy, 2, RunHistory("fedavg", "synthetic", env.seed))
        finally:
            env.close()
        # All updates quarantined every round: the model never moved and
        # stayed finite.
        np.testing.assert_array_equal(strategy.matrix[0], before)


# ----------------------------------------------------------------------
# Robust aggregation kernels
# ----------------------------------------------------------------------
class TestRobustKernels:
    def _cohort(self, n=10, p=7, seed=0):
        rng = np.random.default_rng(seed)
        matrix = rng.standard_normal((n, p))
        weights = rng.integers(50, 200, size=n).astype(float)
        return matrix, weights

    def test_none_is_bitwise_the_plain_rule(self):
        matrix, weights = self._cohort()
        np.testing.assert_array_equal(
            robust_weighted_average(matrix, weights, "none"),
            packed_weighted_average(matrix, weights),
        )

    def test_trimmed_mean_and_median_shrug_off_a_poisoned_row(self):
        matrix, weights = self._cohort()
        clean_median = robust_weighted_average(
            matrix, weights, "coordinate_median"
        )
        clean_trimmed = robust_weighted_average(
            matrix, weights, "trimmed_mean", trim_fraction=0.2
        )
        poisoned = matrix.copy()
        poisoned[3] = 1e9  # one attacker, huge but finite
        assert np.allclose(
            robust_weighted_average(poisoned, weights, "coordinate_median"),
            clean_median,
            atol=1.0,
        )
        assert np.allclose(
            robust_weighted_average(
                poisoned, weights, "trimmed_mean", trim_fraction=0.2
            ),
            clean_trimmed,
            atol=1.0,
        )
        # The plain rule is dragged to the attacker's magnitude.
        plain = robust_weighted_average(poisoned, weights, "none")
        assert np.abs(plain).max() > 1e6

    def test_clip_caps_row_influence_at_the_median_norm(self):
        matrix, weights = self._cohort()
        poisoned = matrix.copy()
        poisoned[0] *= 1e6
        clipped = robust_weighted_average(poisoned, weights, "clip")
        median = float(np.median(np.linalg.norm(matrix, axis=1)))
        # The clipped average can never exceed the largest admissible row.
        assert np.linalg.norm(clipped) <= median + 1e-9

    def test_tiny_cohorts_keep_at_least_one_row(self):
        matrix, weights = self._cohort(n=2)
        out = robust_weighted_average(
            matrix, weights, "trimmed_mean", trim_fraction=0.4
        )
        assert np.isfinite(out).all()

    def test_unknown_mode_raises(self):
        matrix, weights = self._cohort()
        with pytest.raises(ValueError, match="robust_agg"):
            robust_weighted_average(matrix, weights, "krum")


# ----------------------------------------------------------------------
# Loss statistic: quarantined ≡ zero-step exclusion (satellite b)
# ----------------------------------------------------------------------
class TestSurvivorLossExclusion:
    """Quarantined clients and zero-step clients leave the round's loss
    statistic through the same door: they are simply not in the survivor
    list / carry no batches, so ``survivor_mean_loss`` never sees them —
    NaN when nobody contributes, across serial and batched executors."""

    def test_zero_batch_updates_are_excluded(self):
        live = ClientUpdate(1, np.zeros(3), 10, mean_loss=2.0, n_batches=4)
        idle = ClientUpdate(2, np.zeros(3), 10, mean_loss=0.0, n_batches=0)
        assert survivor_mean_loss([live, idle]) == 2.0
        assert np.isnan(survivor_mean_loss([idle]))
        assert np.isnan(survivor_mean_loss([]))

    @pytest.mark.parametrize("executor", ["serial", "batched"])
    def test_all_quarantined_logs_nan_like_all_zero_step(
        self, env_factory, executor
    ):
        def final_losses(scenario):
            env = env_factory(executor)
            try:
                result = make_algorithm("fedavg").run(
                    env, n_rounds=2, scenario=scenario
                )
            finally:
                env.close()
            return [r.mean_train_loss for r in result.history.records]

        quarantined = final_losses(
            ScenarioConfig(
                corruption=CorruptionConfig(rate=1.0, kinds=("nan",))
            )
        )
        zero_step = final_losses(ScenarioConfig(compute_budget=(0, 0)))
        assert all(np.isnan(loss) for loss in quarantined)
        assert all(np.isnan(loss) for loss in zero_step)

    @pytest.mark.parametrize("executor", ["serial", "batched"])
    def test_partial_quarantine_averages_the_admitted_only(
        self, env_factory, executor
    ):
        # Rate 0.5 with seed 2 quarantines a strict subset; the round
        # loss must equal the mean over admitted trained updates, which
        # the clean run also produces for those clients (corruption
        # happens after training, so admitted losses match the clean
        # run's losses for the same cohort).
        env = env_factory(executor)
        strategy = global_rounds(env)
        engine = RoundEngine(
            env,
            ScenarioConfig(
                corruption=CorruptionConfig(rate=0.5, kinds=("nan", "inf"))
            ),
        )
        tasks = strategy.broadcast_for(engine, 1, np.arange(8))
        outcome = engine.dispatch(tasks, 1)
        env.close()
        rejected = {cid for _, cid in fates(engine.events, "quarantine")}
        assert 0 < len(rejected) < 8
        survivors = {u.client_id for u in outcome.survivors}
        assert survivors.isdisjoint(rejected)
        assert survivors | rejected == set(range(8))
        expected = float(
            np.mean([u.mean_loss for u in outcome.survivors if u.n_batches])
        )
        assert survivor_mean_loss(outcome.survivors) == expected


# ----------------------------------------------------------------------
# Survivor quorum + retry
# ----------------------------------------------------------------------
class TestQuorum:
    def test_min_survivors_above_federation_fails_at_construction(
        self, env_factory
    ):
        env = env_factory()
        with pytest.raises(ValueError, match="min_survivors"):
            RoundEngine(env, ScenarioConfig(min_survivors=9))
        env.close()

    def test_retry_recovers_quorum_on_fresh_epochs(self, env_factory):
        env = env_factory()
        scenario = ScenarioConfig(
            failure_rate=0.5, min_survivors=6, max_retries=4
        )
        try:
            result = make_algorithm("fedavg").run(
                env, n_rounds=2, scenario=scenario
            )
        finally:
            env.close()
        assert not any(r.quorum_failed for r in result.history.records)
        assert all(np.isfinite(r.mean_train_loss) for r in result.history.records)
        # Retries logged their drops under derived epochs (> 1_000_000).
        drops = fates(result.extras["events"], "drop")
        assert any(r >= 1_000_000 for r, _ in drops)

    def test_below_quorum_degrades_gracefully(self, env_factory):
        # Rate-1 NaN corruption defeats every retry: admission rejects
        # the whole cohort each attempt, the round freezes.
        env = env_factory()
        strategy = global_rounds(env)
        before = strategy.matrix[0].copy()
        engine = RoundEngine(
            env,
            ScenarioConfig(
                corruption=CorruptionConfig(rate=1.0, kinds=("nan",)),
                min_survivors=2,
                max_retries=2,
            ),
        )
        history = RunHistory("fedavg", "synthetic", env.seed)
        mean_acc, per_client = engine.run(strategy, 2, history)
        env.close()
        assert all(r.quorum_failed for r in history.records)
        assert all(np.isnan(r.mean_train_loss) for r in history.records)
        np.testing.assert_array_equal(strategy.matrix[0], before)
        # Evaluation still ran against the frozen (finite) state.
        assert np.isfinite(mean_acc)
        assert history.to_dict()["quorum_failed_rounds"] == [1, 2]
        # Retries rolled fresh corruption dice: quarantine entries exist
        # under the derived retry epochs too.
        assert any(r >= 1_000_000 for r, _ in fates(engine.events, "quarantine"))

    def test_quorum_failure_banks_late_work_for_the_future(self, env_factory):
        """A round below quorum keeps the older banked updates, banks its
        own stragglers and drops its own on-time work; the next healthy
        round folds the banked work at ``decay ** age``."""
        decay = 0.5
        env = env_factory()
        strategy = global_rounds(env)
        engine = RoundEngine(
            env,
            ScenarioConfig(
                straggler_rate=0.5, staleness_decay=decay, min_survivors=4
            ),
        )
        buffers, outcomes = [], []

        def snapshot(eng, outcome):
            buffers.append(dict(eng._buffer))
            outcomes.append(outcome)

        strategy.on_round_end = snapshot
        history = RunHistory("fedavg", "synthetic", env.seed)
        engine.run(strategy, 5, history)
        env.close()
        # The seeded schedule: round 4 fails quorum after round 3 banked
        # stragglers, and round 5 is healthy.
        failed = [r.round_index for r in history.records if r.quorum_failed]
        assert 4 in failed and 5 not in failed and buffers[2]
        before, after, out = buffers[2], buffers[3], outcomes[3]
        late = {c for r, c in fates(engine.events, "straggle") if r == 4}
        on_time = set(out.participants.tolist()) - late
        assert not history.records[3].aggregation_event
        assert out.survivors == []
        assert after == {
            **{cid: entry for cid, entry in before.items() if cid not in late},
            **{cid: (4, after[cid][1]) for cid in late},
        }
        # On-time work of the failed round never reached the buffer: a
        # client banked earlier keeps its older update.
        assert all(after[cid][0] < 4 for cid in on_time & set(after))
        assert not (on_time - set(before)) & set(after)
        # The healthy round folds what survived in the buffer, each
        # update at decay ** age; some of it is two rounds old.
        folded = {u.client_id: u for u in outcomes[4].survivors}
        stale = [c for r, c in fates(engine.events, "stale") if r == 5]
        assert stale and history.records[4].n_stale == len(stale)
        ages = []
        for cid in stale:
            sent, banked = after[cid]
            ages.append(5 - sent)
            assert folded[cid].weight == banked.n_samples * decay ** (5 - sent)
        assert max(ages) == 2

    def test_dispatch_with_retry_first_response_wins(self, env_factory):
        env = env_factory()
        row = global_rounds(env).matrix[0]
        engine = RoundEngine(env, ScenarioConfig(failure_rate=0.45))

        def make_tasks(pending):
            return [UpdateTask(cid, flat=row) for cid in pending]

        collected, pending = engine.dispatch_with_retry(
            make_tasks, list(range(8)), 3, max_attempts=5
        )
        env.close()
        assert not pending
        assert sorted(collected) == list(range(8))
        # Attempt epochs: original at 3, retries at 3 + 1e6 * a.
        rounds_seen = {r for r, _ in fates(engine.events, "drop")}
        assert all((r - 3) % 1_000_000 == 0 for r in rounds_seen)


# ----------------------------------------------------------------------
# Acceptance: rate-0.2 NaN/Inf corruption across every algorithm
# ----------------------------------------------------------------------
class TestCorruptionAcceptance:
    _SCENARIO = ScenarioConfig(
        corruption=CorruptionConfig(rate=0.2, kinds=("nan", "inf")),
        robust_agg="trimmed_mean",
    )

    @pytest.mark.parametrize("algorithm", sorted(_KWARGS))
    def test_every_algorithm_survives_nan_inf_corruption(
        self, env_factory, algorithm
    ):
        n_rounds = 3 if algorithm in ("pacfl", "fedclust") else 2
        env = env_factory()
        try:
            result = make_algorithm(algorithm, **_KWARGS[algorithm]).run(
                env, n_rounds=n_rounds, scenario=self._SCENARIO
            )
        finally:
            env.close()
        assert result.history.n_rounds == n_rounds
        assert 0.0 <= result.final_accuracy <= 1.0
        assert np.isfinite(result.per_client_accuracy).all()
        assert result.history.to_dict()["n_quarantined_total"] > 0

    def test_trimmed_mean_accuracy_tracks_the_clean_run(self, env_factory):
        env = env_factory()
        try:
            clean = make_algorithm("fedavg").run(env, n_rounds=3)
        finally:
            env.close()
        env = env_factory()
        try:
            hardened = make_algorithm("fedavg").run(
                env, n_rounds=3, scenario=self._SCENARIO
            )
        finally:
            env.close()
        # A fifth of the cohort poisoned every round: trimmed-mean must
        # stay within 15 accuracy points of the clean run (the plain
        # rule would be NaN from round 1 without admission).
        assert abs(hardened.final_accuracy - clean.final_accuracy) < 0.15

    def test_async_engine_survives_corruption(self, env_factory):
        env = env_factory()
        scenario = ScenarioConfig(
            staleness_decay=0.9,
            async_config=AsyncConfig(buffer_size=4, duration_range=(1, 2)),
            corruption=CorruptionConfig(rate=0.2, kinds=("nan", "inf")),
            robust_agg="coordinate_median",
        )
        strategy = global_rounds(env)
        engine = RoundEngine(env, scenario)
        history = RunHistory("fedavg", "synthetic", env.seed)
        mean_acc, _ = engine.run(strategy, 5, history)
        env.close()
        assert np.isfinite(strategy.matrix[0]).all()
        assert np.isfinite(mean_acc)
        quarantined = fates(engine.events, "quarantine")
        assert quarantined
        assert sum(r.n_quarantined for r in history.records) == len(quarantined)


# ----------------------------------------------------------------------
# The CI matrix cell: corruption × quorum × resume
# ----------------------------------------------------------------------
class TestCorruptionQuorumResumeSmoke:
    def _scenario(self, directory, resume):
        return ScenarioConfig(
            corruption=CorruptionConfig(rate=0.3, kinds=("nan", "noise")),
            robust_agg="clip",
            norm_bound=5.0,
            min_survivors=2,
            max_retries=2,
            checkpoint=CheckpointConfig(directory=directory, resume=resume),
        )

    def test_composed_defenses_resume_bit_identically(
        self, env_factory, tmp_path
    ):
        # Uninterrupted reference: 4 rounds with all defenses on.
        env = env_factory()
        strategy = global_rounds(env)
        engine = RoundEngine(env, self._scenario(tmp_path / "ref", False))
        history = RunHistory("fedavg", "synthetic", env.seed)
        mean_acc, per_client = engine.run(strategy, 4, history)
        env.close()

        # Interrupted run: 2 rounds, then a fresh engine resumes to 4.
        env = env_factory()
        part = global_rounds(env)
        RoundEngine(env, self._scenario(tmp_path / "cut", False)).run(
            part, 2, RunHistory("fedavg", "synthetic", env.seed)
        )
        env.close()
        env = env_factory()
        resumed = global_rounds(env)
        engine2 = RoundEngine(env, self._scenario(tmp_path / "cut", True))
        history2 = RunHistory("fedavg", "synthetic", env.seed)
        acc2, per2 = engine2.run(resumed, 4, history2)
        env.close()

        assert acc2 == mean_acc
        np.testing.assert_array_equal(per2, per_client)
        np.testing.assert_array_equal(resumed.matrix[0], strategy.matrix[0])
        assert engine2.events == engine.events
        assert [
            (r.round_index, r.mean_train_loss, r.n_quarantined, r.quorum_failed)
            for r in history2.records
        ] == [
            (r.round_index, r.mean_train_loss, r.n_quarantined, r.quorum_failed)
            for r in history.records
        ]
