"""The round engine: scenario policy, seeded parity pins, executor matrix.

Three contracts:

1. **Parity pins** — under the default scenario the engine reproduces
   the pre-refactor per-algorithm round loops bit-for-bit: the seeded
   Table-I accuracies, final-round train losses and traffic totals below
   were captured from the hand-rolled loops immediately before the
   engine refactor.
2. **Scenario matrix** — every (sampling × failure × straggler) cell is
   deterministic and identical across the serial/process/batched
   executor kinds (scenario middleware acts on task lists and update
   lists, never on the executor).
3. **Middleware semantics** — failures consume the download but never
   upload; stragglers train and upload but miss aggregation; at least
   one participant always survives; arrivals gate eligibility and drive
   FedClust's newcomer onboarding.
"""

from __future__ import annotations

import json
import weakref
from collections import Counter
from dataclasses import fields
from unittest import mock

import numpy as np
import pytest
from helpers import fates, global_rounds
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.algorithms.registry import make_algorithm
from repro.data.federation import build_federation
from repro.fl.aggregation import packed_weighted_average
from repro.fl.checkpoint import CheckpointConfig
from repro.fl.config import TrainConfig
from repro.fl.defense import (
    CORRUPTION_KINDS,
    ROBUST_AGG_MODES,
    CorruptionConfig,
)
from repro.fl.parallel import UpdateTask
from repro.fl.rounds import (
    AsyncConfig,
    RoundEngine,
    ScenarioConfig,
    aggregation_weights,
)
from repro.fl.simulation import FederatedEnv
from repro.fl.store import StoreConfig
from repro.fl.history import RunHistory
from repro.fl.trace import AvailabilityTrace
from repro.utils.rng import RETRY_EPOCH_STRIDE

#: (final accuracy, last-round mean train loss, uploaded, downloaded)
#: captured from the pre-engine loops on the seeded config below.
_PINS = {
    "fedavg": (0.43177546138072453, 2.9827569512520618, 7103472, 7103472),
    "fedprox": (0.43177546138072453, 2.7420452448847454, 7103472, 7103472),
    "cfl": (0.43177546138072453, 2.9827569512520618, 7103472, 7103472),
    "ifca": (0.49332137161084527, 0.6809209035459525, 7103472, 14206944),
    "pacfl": (0.5, 0.39267744787125936, 4809376, 4735648),
    "fedclust": (1.0, 2.4813714134032844e-05, 4743408, 7103472),
    "local_only": (1.0, 1.8147281241239395e-06, 0, 0),
}

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
    def make(executor="serial", local_epochs=2, seed=2, store=None):
        return FederatedEnv(
            federation,
            model_name="mlp",
            model_kwargs={"hidden": (96,)},
            train_cfg=TrainConfig(
                local_epochs=local_epochs, batch_size=32, lr=0.05, momentum=0.9
            ),
            seed=seed,
            executor=executor,
            store=store,
        )

    return make


# ----------------------------------------------------------------------
# ScenarioConfig validation
# ----------------------------------------------------------------------
#: One legal non-default value per ``ScenarioConfig`` field and the JSON
#: form ``to_dict()`` writes for it (``None``: the field is not written).
#: A field added without a row here fails
#: ``test_field_table_covers_every_field``.
_FIELD_FORMS = {
    "client_fraction": (0.5, 0.5),
    "min_clients": (2, 2),
    "failure_rate": (0.2, 0.2),
    "straggler_rate": (0.2, 0.2),
    "arrivals": ({3: 2}, {"3": 2}),
    "staleness_decay": (0.5, 0.5),
    "compute_budget": (2, [2, 2]),
    "departures": ({2: 3}, {"2": 3}),
    "trace": (AvailabilityTrace({0: [2, 1]}), {"0": [1, 2]}),
    "async_config": (
        AsyncConfig(buffer_size=2),
        {"buffer_size": 2, "max_concurrency": None, "duration_range": [1, 3]},
    ),
    "corruption": (
        CorruptionConfig(rate=0.1, kinds=("nan",)),
        {"rate": 0.1, "kinds": ["nan"], "scale": 10.0},
    ),
    "robust_agg": ("clip", "clip"),
    "trim_fraction": (0.2, 0.2),
    "norm_bound": (3.0, 3.0),
    "min_survivors": (1, 1),
    "max_retries": (3, 3),
    # How a run executes, not what it computes: never written.
    "checkpoint": (CheckpointConfig(directory="somewhere"), None),
}

#: Fields read only under another knob's value, and that value: set
#: beside the field's row in ``test_each_field_writes_its_json_form``.
_FIELD_CONTEXT = {"trim_fraction": {"robust_agg": "trimmed_mean"}}


@st.composite
def legal_scenarios(draw):
    """A legal composition of every ``ScenarioConfig`` field except
    ``checkpoint``."""
    unit = st.floats(0.0, 1.0, exclude_max=True)
    ids = st.integers(0, 9)
    arrivals = draw(st.dictionaries(ids, st.integers(1, 5), max_size=4))
    departures = {
        cid: arrivals.get(cid, 1) + gap
        for cid, gap in draw(
            st.dictionaries(ids, st.integers(1, 4), max_size=4)
        ).items()
    }
    use_async = draw(st.booleans())
    async_config = None
    if use_async:
        lo = draw(st.integers(1, 3))
        async_config = AsyncConfig(
            buffer_size=draw(st.integers(1, 8)),
            max_concurrency=draw(st.none() | st.integers(1, 8)),
            duration_range=(lo, lo + draw(st.integers(0, 3))),
        )
    corruption = draw(
        st.none()
        | st.builds(
            CorruptionConfig,
            rate=st.floats(0.0, 1.0),
            kinds=st.lists(
                st.sampled_from(CORRUPTION_KINDS), min_size=1, unique=True
            ).map(tuple),
            scale=st.floats(0.1, 100.0),
        )
    )
    budget = draw(
        st.none()
        | st.integers(0, 5)
        | st.tuples(st.integers(0, 3), st.integers(0, 3)).map(sorted).map(tuple)
    )
    return ScenarioConfig(
        client_fraction=draw(st.floats(0.0, 1.0, exclude_min=True)),
        min_clients=draw(st.integers(1, 4)),
        failure_rate=draw(unit),
        straggler_rate=0.0 if use_async else draw(unit),
        arrivals=arrivals,
        staleness_decay=draw(st.floats(0.0, 1.0)),
        compute_budget=budget,
        departures=departures,
        trace=draw(
            st.none()
            | st.dictionaries(ids, st.sets(st.integers(1, 6)), max_size=3)
        ),
        async_config=async_config,
        corruption=corruption,
        robust_agg=draw(st.sampled_from(ROBUST_AGG_MODES)),
        trim_fraction=draw(
            st.floats(0.0, 0.5, exclude_min=True, exclude_max=True)
        ),
        norm_bound=draw(st.none() | st.floats(0.1, 10.0)),
        min_survivors=0 if use_async else draw(st.integers(0, 4)),
        max_retries=0 if use_async else draw(st.integers(0, 3)),
    )


class TestScenarioConfig:
    def test_defaults_are_paper_scale(self):
        assert ScenarioConfig().to_dict() == {}
        # Empty schedules and a zero-rate corruption are no knob at all.
        assert ScenarioConfig(
            arrivals={},
            departures={},
            trace={},
            corruption=CorruptionConfig(rate=0.0),
        ).to_dict() == {}
        assert ScenarioConfig(corruption=CorruptionConfig(rate=0.0)).corruption is None

    def test_any_knob_leaves_default(self):
        assert ScenarioConfig(client_fraction=0.5).to_dict() == {
            "client_fraction": 0.5
        }
        assert ScenarioConfig(failure_rate=0.1).to_dict() == {"failure_rate": 0.1}
        assert ScenarioConfig(straggler_rate=0.1).to_dict() == {
            "straggler_rate": 0.1
        }
        assert ScenarioConfig(arrivals={3: 2}).to_dict() == {"arrivals": {"3": 2}}

    @pytest.mark.parametrize("name", sorted(_FIELD_FORMS))
    def test_each_field_writes_its_json_form(self, name):
        value, form = _FIELD_FORMS[name]
        context = _FIELD_CONTEXT.get(name, {})
        expected = ScenarioConfig(**context).to_dict()
        if form is not None:
            expected[name] = form
        assert ScenarioConfig(**context, **{name: value}).to_dict() == expected

    def test_one_spelling_per_value(self):
        # A float knob spelt as an int is stored, written and hashed as
        # the float.
        assert json.dumps(ScenarioConfig(staleness_decay=1).to_dict()) == json.dumps(
            ScenarioConfig(staleness_decay=1.0).to_dict()
        )
        assert ScenarioConfig(norm_bound=3).norm_bound == 3.0
        assert isinstance(ScenarioConfig(norm_bound=3).norm_bound, float)
        # trim_fraction is read by the trimmed mean only; under any other
        # rule it is validated, then reset, so it is no knob at all.
        assert ScenarioConfig(trim_fraction=0.2) == ScenarioConfig()
        assert ScenarioConfig(trim_fraction=0.2).to_dict() == {}
        with pytest.raises(ValueError, match="trim_fraction"):
            ScenarioConfig(trim_fraction=0.7)
        assert ScenarioConfig(
            robust_agg="trimmed_mean", trim_fraction=0.2
        ).to_dict() == {"robust_agg": "trimmed_mean", "trim_fraction": 0.2}

    def test_field_table_covers_every_field(self):
        assert set(_FIELD_FORMS) == {f.name for f in fields(ScenarioConfig)}

    @given(scenario=legal_scenarios())
    @settings(max_examples=200, deadline=None)
    def test_to_dict_round_trips(self, scenario):
        d = scenario.to_dict()
        assert ScenarioConfig(**d) == scenario
        assert ScenarioConfig(**d).to_dict() == d
        assert json.loads(json.dumps(d)) == d

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"client_fraction": 0.0},
            {"client_fraction": 1.5},
            {"failure_rate": 1.0},
            {"failure_rate": -0.1},
            {"straggler_rate": 1.0},
            {"min_clients": 0},
            {"arrivals": {2: 0}},
            {"staleness_decay": -0.1},
            {"staleness_decay": 1.1},
            {"compute_budget": (-1, 3)},
            {"compute_budget": (5, 2)},
            {"compute_budget": (1, 2, 3)},
            {"departures": {2: 1}},  # departs in its arrival round
            {"arrivals": {2: 3}, "departures": {2: 3}},  # at arrival
            {"trace": {0: [0]}},  # trace rounds are 1-based
        ],
    )
    def test_validation(self, kwargs):
        with pytest.raises(ValueError):
            ScenarioConfig(**kwargs)

    def test_v2_knobs_leave_default(self):
        assert ScenarioConfig(staleness_decay=0.5).to_dict() == {
            "staleness_decay": 0.5
        }
        assert ScenarioConfig(compute_budget=(1, 4)).to_dict() == {
            "compute_budget": [1, 4]
        }
        assert ScenarioConfig(departures={2: 3}).to_dict() == {
            "departures": {"2": 3}
        }
        assert ScenarioConfig(trace={0: [1]}).to_dict() == {"trace": {"0": [1]}}

    def test_compute_budget_normalises_to_pair(self):
        assert ScenarioConfig(compute_budget=5).compute_budget == (5, 5)
        assert ScenarioConfig(compute_budget=(2, 8)).compute_budget == (2, 8)

    def test_unknown_client_ids_fail_at_engine_construction(self, env_factory):
        env = env_factory(local_epochs=1)
        for kwargs in (
            {"arrivals": {11: 2}},
            {"departures": {11: 2}},
            {"trace": {11: [1]}},
        ):
            with pytest.raises(ValueError, match="unknown client ids"):
                RoundEngine(env, ScenarioConfig(**kwargs))

    def test_min_clients_above_federation_fails_at_engine_construction(
        self, env_factory
    ):
        env = env_factory(local_epochs=1)
        with pytest.raises(ValueError, match="min_clients"):
            RoundEngine(env, ScenarioConfig(min_clients=9, client_fraction=0.5))


def test_run_rejects_a_horizon_reaching_the_retry_stride(env_factory):
    # Retry attempt a of round r draws on epoch r + stride × a, so a
    # round at or past the stride would share a retry's seeded streams.
    env = env_factory(local_epochs=1)
    engine = RoundEngine(env)
    history = RunHistory("fedavg", "cifar10", env.seed)
    with pytest.raises(ValueError, match="retry-epoch stride"):
        engine.run(global_rounds(env), 2, history, first_round=RETRY_EPOCH_STRIDE - 1)
    assert not history.records and not engine.events
    # The last round below the stride is a legal horizon.
    engine.run(global_rounds(env), 1, history, first_round=RETRY_EPOCH_STRIDE - 1)
    assert [r.round_index for r in history.records] == [RETRY_EPOCH_STRIDE - 1]


# ----------------------------------------------------------------------
# Middleware semantics (one dispatched round each)
# ----------------------------------------------------------------------
class TestDispatchMiddleware:
    def _tasks(self, env):
        vector = env.layout.pack(env.init_state())
        return [
            UpdateTask(cid, flat=vector)
            for cid in range(env.federation.n_clients)
        ]

    def test_failures_charge_download_not_upload(self, env_factory):
        env = env_factory(local_epochs=1)
        engine = RoundEngine(env, ScenarioConfig(failure_rate=0.5))
        out = engine.dispatch(self._tasks(env), 1)
        m = env.federation.n_clients
        failed = fates(engine.events, "drop")
        assert 0 < len(failed) < m
        assert len(out.survivors) == m - len(failed)
        # Failed clients consumed the broadcast but never uploaded.
        assert env.tracker.total_downloaded == m * env.n_params
        assert env.tracker.total_uploaded == len(out.survivors) * env.n_params
        survived = {u.client_id for u in out.survivors}
        assert failed == [(1, c) for c in range(m) if c not in survived]

    def test_stragglers_charge_both_but_miss_aggregation(self, env_factory):
        env = env_factory(local_epochs=1)
        engine = RoundEngine(env, ScenarioConfig(straggler_rate=0.5))
        out = engine.dispatch(self._tasks(env), 1)
        m = env.federation.n_clients
        late = fates(engine.events, "straggle")
        assert 0 < len(late) < m
        assert len(out.survivors) == m - len(late)
        # Stragglers trained and uploaded — they just missed the deadline.
        assert env.tracker.total_downloaded == m * env.n_params
        assert env.tracker.total_uploaded == m * env.n_params
        survived = {u.client_id for u in out.survivors}
        assert late == [(1, c) for c in range(m) if c not in survived]

    def test_same_round_same_drops(self, env_factory):
        env = env_factory(local_epochs=1)
        scenario = ScenarioConfig(failure_rate=0.5, straggler_rate=0.3)
        engines = RoundEngine(env, scenario), RoundEngine(env, scenario)
        first, second = (e.dispatch(self._tasks(env), 4) for e in engines)
        assert engines[0].events == engines[1].events
        assert fates(engines[0].events, "drop")
        assert fates(engines[0].events, "straggle")
        assert [u.client_id for u in first.survivors] == [
            u.client_id for u in second.survivors
        ]

    def test_someone_always_survives(self, env_factory):
        env = env_factory(local_epochs=1)
        engine = RoundEngine(
            env, ScenarioConfig(failure_rate=0.95, straggler_rate=0.95)
        )
        for round_index in range(1, 6):
            out = engine.dispatch(self._tasks(env), round_index)
            assert len(out.survivors) >= 1

    def test_failure_stream_matches_legacy_faulty_executor(self, env_factory):
        """The scenario middleware draws the exact (seed, 13, round,
        client) stream the removed FaultyExecutor shim used, so
        historical faulty runs reproduce under ScenarioConfig."""
        from repro.fl.rounds import FAILURE_TAG
        from repro.utils.rng import rng_for

        env = env_factory(local_epochs=1)
        tasks = self._tasks(env)
        # The shim's survivor rule: keep u >= rate, else the lowest id.
        legacy_alive = [
            t.client_id
            for t in tasks
            if rng_for(env.seed, FAILURE_TAG, 3, t.client_id).random() >= 0.5
        ] or [min(t.client_id for t in tasks)]
        engine = RoundEngine(env, ScenarioConfig(failure_rate=0.5))
        alive, failed = engine._apply_failures(tasks, 3)
        assert [t.client_id for t in alive] == legacy_alive
        assert sorted(failed) == sorted(
            set(range(len(tasks))) - set(legacy_alive)
        )

    def test_survivor_renormalisation(self, env_factory):
        """With stragglers dropped, the global average is renormalised
        over the survivors' sample counts only."""
        from repro.algorithms.base import cohort_matrix
        from repro.fl.aggregation import packed_weighted_average

        env = env_factory(local_epochs=1)
        engine = RoundEngine(env, ScenarioConfig(straggler_rate=0.5))
        strategy = global_rounds(env)
        history = RunHistory("test", "x", 0)
        outcomes = []
        strategy.on_round_end = lambda eng, out: outcomes.append(out)
        engine.run(strategy, 1, history)
        survivors = outcomes[0].survivors
        assert 1 <= len(survivors) < env.federation.n_clients
        expected = env.layout.round_trip(
            packed_weighted_average(
                cohort_matrix(env, survivors), [u.n_samples for u in survivors]
            )
        )
        np.testing.assert_array_equal(strategy.matrix[0], expected)


class TestRunRecord:
    @pytest.mark.parametrize(
        "name, scenario",
        [
            (
                "fedavg",
                ScenarioConfig(failure_rate=0.6, min_survivors=5, max_retries=2),
            ),
            ("fedclust", ScenarioConfig(failure_rate=0.6)),
        ],
    )
    def test_n_dispatched_counts_every_task_sent(self, env_factory, name, scenario):
        """Quorum retries and FedClust's clustering round send tasks that
        log no ``participate`` events; ``n_dispatched`` counts them
        all, so it bounds every per-fate count."""
        env = env_factory(local_epochs=1)
        result = make_algorithm(name, **_KWARGS[name]).run(
            env, n_rounds=3, scenario=scenario
        )
        env.close()
        record = result.extras["engine_record"]
        # Every task sent is charged exactly one download, whatever its fate.
        assert record["n_dispatched"] == env.tracker.total_downloaded // env.n_params
        n_fates = (
            record["n_dropped"] + record["n_stragglers"] + record["n_quarantined"]
        )
        assert 0 < n_fates <= record["n_dispatched"]

    def test_sync_rounds_are_events_without_duration_draws(
        self, env_factory, monkeypatch
    ):
        """A synchronous round delivers everything in its dispatch round
        and fires one aggregation event; it draws no durations."""
        import repro.fl.rounds as rounds

        tags = []
        draw = rounds.rng_for

        def spy(seed, tag, *key):
            tags.append(tag)
            return draw(seed, tag, *key)

        monkeypatch.setattr(rounds, "rng_for", spy)
        env = env_factory(local_epochs=1)
        result = make_algorithm("fedavg").run(
            env, n_rounds=3, scenario=ScenarioConfig(failure_rate=0.3)
        )
        env.close()
        record = result.extras["engine_record"]
        assert rounds.FAILURE_TAG in tags and rounds.DURATION_TAG not in tags
        assert record["n_aggregation_events"] == 3
        delivered = record["n_dispatched"] - record["n_dropped"]
        assert record["n_updates_absorbed"] == delivered
        assert all(
            r.aggregation_event and r.n_buffered == 0
            for r in result.history.records
        )


# ----------------------------------------------------------------------
# Parity pins: the engine reproduces the pre-refactor loops exactly
# ----------------------------------------------------------------------
class TestTableOnePins:
    @pytest.mark.parametrize("name", sorted(_PINS))
    def test_default_scenario_matches_pre_engine_loops(self, env_factory, name):
        env = env_factory("serial")
        result = make_algorithm(name, **_KWARGS[name]).run(env, n_rounds=3)
        acc, loss, uploaded, downloaded = _PINS[name]
        assert result.final_accuracy == acc
        assert result.history.records[-1].mean_train_loss == loss
        assert env.tracker.total_uploaded == uploaded
        assert env.tracker.total_downloaded == downloaded


# ----------------------------------------------------------------------
# The scenario matrix is executor-invariant and deterministic
# ----------------------------------------------------------------------
_SCENARIOS = {
    "partial": ScenarioConfig(client_fraction=0.5),
    "failures": ScenarioConfig(failure_rate=0.3),
    "partial+failures+stragglers": ScenarioConfig(
        client_fraction=0.75, failure_rate=0.25, straggler_rate=0.25
    ),
    # --- v2 middleware cells: staleness × budget × trace ---
    "stale": ScenarioConfig(
        client_fraction=0.5, straggler_rate=0.4, staleness_decay=0.5
    ),
    "budget": ScenarioConfig(compute_budget=(0, 3)),
    "stale+budget+trace": ScenarioConfig(
        client_fraction=0.75,
        straggler_rate=0.3,
        staleness_decay=0.5,
        compute_budget=(1, 4),
        trace={6: [2], 7: [1]},
        departures={5: 2},
    ),
}
#: The matrix plus a cell that quarantines, so every counter is exercised.
_COUNTED = {
    **_SCENARIOS,
    "hardened+stale": ScenarioConfig(
        client_fraction=0.75,
        straggler_rate=0.3,
        staleness_decay=0.5,
        corruption=CorruptionConfig(rate=0.3, kinds=("nan",)),
        departures={5: 2},
    ),
}


class TestScenarioMatrix:
    def _run(self, env_factory, executor, scenario, algorithm="fedavg"):
        env = env_factory(executor, local_epochs=1)
        try:
            result = make_algorithm(algorithm, **_KWARGS[algorithm]).run(
                env, n_rounds=2, scenario=scenario
            )
        finally:
            env.close()
        return result

    @pytest.mark.parametrize("scenario_name", sorted(_SCENARIOS))
    @pytest.mark.parametrize("executor", ["process", "batched"])
    def test_cells_identical_across_executors(
        self, env_factory, scenario_name, executor
    ):
        scenario = _SCENARIOS[scenario_name]
        serial = self._run(env_factory, "serial", scenario)
        other = self._run(env_factory, executor, scenario)
        np.testing.assert_array_equal(
            serial.per_client_accuracy, other.per_client_accuracy
        )
        assert serial.final_accuracy == other.final_accuracy
        assert serial.extras["events"] == other.extras["events"]

    @pytest.mark.parametrize("scenario_name", sorted(_COUNTED))
    def test_counters_are_folds_of_the_event_log(self, env_factory, scenario_name):
        """Per-round counters summed over the run, ``run_record()`` and
        the event kinds all count the same client fates."""
        result = self._run(env_factory, "serial", _COUNTED[scenario_name])
        record = result.extras["engine_record"]
        kinds = Counter(kind for _, kind, _, _ in result.extras["events"])
        for counter, key, kind in (
            ("n_quarantined", "n_quarantined", "quarantine"),
            ("n_stale", "n_stale_folded", "stale"),
            ("n_departed", "n_departed", "depart"),
        ):
            total = sum(getattr(r, counter) for r in result.history.records)
            assert total == record[key] == kinds[kind]
        assert record["n_dropped"] == kinds["drop"]
        assert record["n_stragglers"] == kinds["straggle"]

    @pytest.mark.parametrize(
        "algorithm", ["fedprox", "cfl", "ifca", "pacfl", "fedclust", "local_only"]
    )
    def test_every_algorithm_completes_deterministically(
        self, env_factory, algorithm
    ):
        scenario = ScenarioConfig(
            client_fraction=0.75, failure_rate=0.25, straggler_rate=0.25
        )
        n_rounds = 3 if algorithm in ("pacfl", "fedclust") else 2
        env = env_factory("serial", local_epochs=1)
        first = make_algorithm(algorithm, **_KWARGS[algorithm]).run(
            env, n_rounds=n_rounds, scenario=scenario
        )
        env = env_factory("serial", local_epochs=1)
        second = make_algorithm(algorithm, **_KWARGS[algorithm]).run(
            env, n_rounds=n_rounds, scenario=scenario
        )
        assert 0.0 <= first.final_accuracy <= 1.0
        assert first.final_accuracy == second.final_accuracy
        np.testing.assert_array_equal(
            first.per_client_accuracy, second.per_client_accuracy
        )
        np.testing.assert_array_equal(first.cluster_labels, second.cluster_labels)

    def test_partial_participation_trains_fewer_clients(self, env_factory):
        result = self._run(
            env_factory, "serial", ScenarioConfig(client_fraction=0.5)
        )
        assert [r.n_participants for r in result.history.records] == [4, 4]


# ----------------------------------------------------------------------
# Arrival events
# ----------------------------------------------------------------------
class TestArrivals:
    def test_eligibility_and_arrival_sets(self, env_factory):
        env = env_factory(local_epochs=1)
        engine = RoundEngine(env, ScenarioConfig(arrivals={6: 2, 7: 3}))
        np.testing.assert_array_equal(engine.eligible_clients(1), np.arange(6))
        np.testing.assert_array_equal(engine.eligible_clients(2), np.arange(7))
        np.testing.assert_array_equal(engine.eligible_clients(3), np.arange(8))
        np.testing.assert_array_equal(engine.arrivals_at(2), [6])
        np.testing.assert_array_equal(engine.arrivals_at(3), [7])
        assert engine.arrivals_at(1).size == 0

    def test_json_schedules_gate_like_int_keyed_ones(self, env_factory):
        """A schedule in its JSON form (string client ids) gates
        eligibility exactly like the int-keyed one."""
        env = env_factory(local_epochs=1)
        as_json = RoundEngine(
            env, ScenarioConfig(arrivals={"3": 3}, departures={"4": 2})
        )
        as_ints = RoundEngine(env, ScenarioConfig(arrivals={3: 3}, departures={4: 2}))
        for round_index, expected in (
            (1, [0, 1, 2, 4, 5, 6, 7]),
            (2, [0, 1, 2, 5, 6, 7]),
            (3, [0, 1, 2, 3, 5, 6, 7]),
        ):
            for engine in (as_json, as_ints):
                np.testing.assert_array_equal(
                    engine.eligible_clients(round_index), expected
                )
        np.testing.assert_array_equal(as_json.arrivals_at(3), [3])
        np.testing.assert_array_equal(as_json.departures_at(2), [4])

    def test_fedclust_never_dispatches_a_newcomer_early(self, env_factory):
        env = env_factory(local_epochs=1)
        result = make_algorithm("fedclust", **_KWARGS["fedclust"]).run(
            env, n_rounds=4, scenario=ScenarioConfig(arrivals={"7": 3})
        )
        assert result.extras["fitted"].absent == [7]
        participations = fates(result.extras["events"], "participate")
        assert [r for r, cid in participations if cid == 7] == [3, 4]

    def test_fedavg_late_arrival_joins_mid_run(self, env_factory):
        env = env_factory(local_epochs=1)
        result = make_algorithm("fedavg").run(
            env, n_rounds=3, scenario=ScenarioConfig(arrivals={7: 2})
        )
        assert [r.n_participants for r in result.history.records] == [7, 8, 8]

    def test_fedclust_onboards_arrival_as_newcomer(self, env_factory, federation):
        env = env_factory(local_epochs=1)
        algo = make_algorithm("fedclust", **_KWARGS["fedclust"])
        result = algo.run(
            env, n_rounds=3, scenario=ScenarioConfig(arrivals={7: 2})
        )
        fitted = result.extras["fitted"]
        assert fitted.absent == [7]
        assert 7 in result.extras["onboarded"]
        # The arrival was re-routed to the cluster holding its
        # true-group peers, not left on the fallback label.
        group = federation.true_groups[7]
        peers = [
            int(c) for c in fitted.responders if federation.true_groups[c] == group
        ]
        expected = int(np.bincount(result.cluster_labels[peers]).argmax())
        assert result.cluster_labels[7] == expected
        # Mid-run arrivals and the serving API run one newcomer path.
        served, _ = algo.incorporate_newcomer(
            env, fitted, federation.clients[7].train, newcomer_id=7
        )
        onboarded = result.extras["onboarded"][7]
        assert served.cluster == onboarded.cluster
        np.testing.assert_array_equal(served.distances, onboarded.distances)


# ----------------------------------------------------------------------
# Departure events and availability traces
# ----------------------------------------------------------------------
class TestDeparturesAndTraces:
    def test_departure_gates_eligibility(self, env_factory):
        env = env_factory(local_epochs=1)
        engine = RoundEngine(env, ScenarioConfig(departures={6: 2, 7: 3}))
        np.testing.assert_array_equal(engine.eligible_clients(1), np.arange(8))
        np.testing.assert_array_equal(
            engine.eligible_clients(2), [0, 1, 2, 3, 4, 5, 7]
        )
        np.testing.assert_array_equal(engine.eligible_clients(3), np.arange(6))
        np.testing.assert_array_equal(engine.departures_at(2), [6])
        np.testing.assert_array_equal(engine.departures_at(3), [7])
        assert engine.departures_at(1).size == 0

    def test_departed_clients_stop_training_but_stay_evaluated(self, env_factory):
        env = env_factory(local_epochs=1)
        result = make_algorithm("fedavg").run(
            env, n_rounds=3, scenario=ScenarioConfig(departures={0: 2, 4: 3})
        )
        assert [r.n_participants for r in result.history.records] == [8, 7, 6]
        assert [r.n_departed for r in result.history.records] == [0, 1, 1]
        assert fates(result.extras["events"], "depart") == [(2, 0), (3, 4)]
        # Departed clients keep their Table-I evaluation entry.
        assert result.per_client_accuracy.shape == (8,)
        assert not np.isnan(result.per_client_accuracy).any()

    def test_on_departures_hook_fires(self, env_factory):
        env = env_factory(local_epochs=1)
        engine = RoundEngine(env, ScenarioConfig(departures={3: 2}))
        strategy = global_rounds(env)
        seen = []
        strategy.on_departures = (
            lambda eng, r, departed: seen.append((r, departed.tolist()))
        )
        engine.run(strategy, 2, RunHistory("test", "x", 0))
        assert seen == [(2, [3])]

    def test_trace_is_the_participation_schedule(self, env_factory):
        env = env_factory(local_epochs=1)
        trace = AvailabilityTrace({5: [2], 6: [1], 7: []})
        engine = RoundEngine(env, ScenarioConfig(trace=trace))
        np.testing.assert_array_equal(
            engine.eligible_clients(1), [0, 1, 2, 3, 4, 6]
        )
        np.testing.assert_array_equal(
            engine.eligible_clients(2), [0, 1, 2, 3, 4, 5]
        )

    def test_trace_absence_charges_no_traffic(self, env_factory):
        """Unlike a failure (download charged), a trace absence means the
        client was never contacted."""
        env = env_factory(local_epochs=1)
        engine = RoundEngine(env, ScenarioConfig(trace={7: []}))
        strategy = global_rounds(env)
        engine.run(strategy, 1, RunHistory("test", "x", 0))
        assert env.tracker.total_downloaded == 7 * env.n_params
        assert env.tracker.total_uploaded == 7 * env.n_params

    def test_fedclust_clustering_round_follows_the_trace(self, env_factory):
        """FedClust's clustering round targets the clients eligible in
        round 1, as FedAvg's round 1 does: a client off the trace gets no
        warm-up and no download, and is not clustered.  It holds the
        fallback label, and only scenario arrivals are onboarded."""
        env = env_factory(local_epochs=1)
        with mock.patch.object(
            FederatedEnv,
            "run_updates",
            autospec=True,
            side_effect=FederatedEnv.run_updates,
        ) as trained:
            result = make_algorithm("fedclust", **_KWARGS["fedclust"]).run(
                env, n_rounds=4, scenario=ScenarioConfig(trace={0: [3, 4]})
            )
        sent_to_0 = [
            call.args[2]
            for call in trained.call_args_list
            if 0 in [task.client_id for task in call.args[1]]
        ]
        assert sent_to_0 == [3, 4]
        assert env.tracker.downloaded_in("clustering") == 7 * env.n_params
        fitted = result.extras["fitted"]
        assert fitted.absent == [0]
        assert 0 not in fitted.responders
        responder_labels = fitted.labels[fitted.responders]
        assert fitted.labels[0] == np.bincount(responder_labels).argmax()
        assert result.extras["onboarded"] == {}
        assert result.history.records[0].n_participants == 7

    def test_trace_composes_with_arrivals_by_intersection(self, env_factory):
        env = env_factory(local_epochs=1)
        engine = RoundEngine(
            env,
            ScenarioConfig(arrivals={6: 2}, trace={6: [1, 2, 3], 5: [3]}),
        )
        # 6 is trace-available from round 1 but only arrives in round 2.
        np.testing.assert_array_equal(
            engine.eligible_clients(1), [0, 1, 2, 3, 4, 7]
        )
        np.testing.assert_array_equal(
            engine.eligible_clients(2), [0, 1, 2, 3, 4, 6, 7]
        )

    def test_from_events_subsumes_arrivals_and_departures(self, env_factory):
        """An event-style scenario and its materialised trace produce the
        same eligibility set every round."""
        env = env_factory(local_epochs=1)
        arrivals, departures = {6: 2}, {3: 3}
        event_engine = RoundEngine(
            env, ScenarioConfig(arrivals=arrivals, departures=departures)
        )
        trace = AvailabilityTrace.from_events(
            8, 4, arrivals=arrivals, departures=departures
        )
        trace_engine = RoundEngine(env, ScenarioConfig(trace=trace))
        for round_index in range(1, 5):
            np.testing.assert_array_equal(
                event_engine.eligible_clients(round_index),
                trace_engine.eligible_clients(round_index),
            )


# ----------------------------------------------------------------------
# Stale-update folding
# ----------------------------------------------------------------------
class TestStaleUpdates:
    def _run_with_outcomes(self, env, scenario, n_rounds=3):
        engine = RoundEngine(env, scenario)
        strategy = global_rounds(env)
        outcomes = []
        strategy.on_round_end = lambda eng, out: outcomes.append(out)
        engine.run(strategy, n_rounds, RunHistory("test", "x", 0))
        return engine, strategy, outcomes

    def test_stale_update_folds_next_round_with_discount(self, env_factory):
        env = env_factory(local_epochs=1)
        decay = 0.5
        scenario = ScenarioConfig(
            client_fraction=0.5, straggler_rate=0.5, staleness_decay=decay
        )
        engine, strategy, outcomes = self._run_with_outcomes(
            env, scenario, n_rounds=4
        )

        def ids(kind, round_index):
            return {c for r, c in fates(engine.events, kind) if r == round_index}

        folded = [ids("stale", out.round_index) for out in outcomes]
        assert any(folded), "seeded scenario should fold at least one update"
        for prev, out, stale in zip(outcomes, outcomes[1:], folded[1:]):
            fresh = {
                u.client_id for u in out.survivors if u.weight is None
            }
            # Every fold is a previous-round straggler that did not
            # deliver fresh work this round.
            assert stale <= ids("straggle", prev.round_index)
            assert not stale & fresh
            for update in out.survivors:
                if update.client_id in stale:
                    assert update.weight == update.n_samples * decay

    def test_aggregation_renormalises_over_survivors_plus_stale(self, env_factory):
        """The folded round's server vector equals the weighted average
        with sample-count weights for fresh survivors and discounted
        weights for stale arrivals."""
        from repro.algorithms.base import cohort_matrix

        env = env_factory(local_epochs=1)
        scenario = ScenarioConfig(
            client_fraction=0.5, straggler_rate=0.5, staleness_decay=0.5
        )

        engine = RoundEngine(env, scenario)
        strategy = global_rounds(env)
        captured = []

        original_aggregate = strategy.aggregate

        def spy(eng, round_index, survivors):
            captured.append((round_index, list(survivors)))
            return original_aggregate(eng, round_index, survivors)

        strategy.aggregate = spy
        engine.run(strategy, 4, RunHistory("test", "x", 0))
        stale_rounds = {r for r, _ in fates(engine.events, "stale")}
        assert stale_rounds, "seeded scenario should fold at least once"
        round_index = max(stale_rounds)
        survivors = next(s for r, s in captured if r == round_index)
        weights = aggregation_weights(survivors)
        expected_last = env.layout.round_trip(
            packed_weighted_average(cohort_matrix(env, survivors), weights)
        )
        # Re-run and compare the state right after the folded round.
        engine2 = RoundEngine(env, scenario)
        strategy2 = global_rounds(env)
        states = {}
        strategy2.on_round_end = lambda eng, out: states.__setitem__(
            out.round_index, strategy2.matrix[0].copy()
        )
        engine2.run(strategy2, 4, RunHistory("test", "x", 0))
        np.testing.assert_array_equal(states[round_index], expected_last)

    def test_fresh_update_supersedes_stale(self, env_factory):
        """Full participation: every straggler trains fresh next round,
        so its stale copy is dropped and aggregation never sees two
        updates from one client."""
        env = env_factory(local_epochs=1)
        scenario = ScenarioConfig(straggler_rate=0.4, staleness_decay=0.5)
        engine, _, outcomes = self._run_with_outcomes(env, scenario)
        assert fates(engine.events, "stale") == []
        for out in outcomes:
            ids = [u.client_id for u in out.survivors]
            assert len(ids) == len(set(ids))

    def test_zero_decay_discards_like_pr4(self, env_factory):
        """decay=0 must reproduce the discard semantics bit-for-bit."""
        env_a = env_factory(local_epochs=1)
        base = make_algorithm("fedavg").run(
            env_a,
            n_rounds=2,
            scenario=ScenarioConfig(client_fraction=0.5, straggler_rate=0.5),
        )
        env_b = env_factory(local_epochs=1)
        same = make_algorithm("fedavg").run(
            env_b,
            n_rounds=2,
            scenario=ScenarioConfig(
                client_fraction=0.5, straggler_rate=0.5, staleness_decay=0.0
            ),
        )
        np.testing.assert_array_equal(
            base.per_client_accuracy, same.per_client_accuracy
        )
        assert fates(base.extras["events"], "stale") == []
        assert base.extras["events"] == same.extras["events"]


# ----------------------------------------------------------------------
# Per-client compute budgets
# ----------------------------------------------------------------------
class TestComputeBudgets:
    def _tasks(self, env):
        vector = env.layout.pack(env.init_state())
        return [
            UpdateTask(cid, flat=vector)
            for cid in range(env.federation.n_clients)
        ]

    def test_budget_caps_steps_and_sets_weights(self, env_factory):
        env = env_factory(local_epochs=2)
        engine = RoundEngine(env, ScenarioConfig(compute_budget=(1, 3)))
        out = engine.dispatch(self._tasks(env), 1)
        for update in out.survivors:
            assert 1 <= update.n_batches <= 3
            assert update.weight == float(update.n_batches)

    def test_zero_budget_client_contributes_no_update(self, env_factory):
        """A zero-step client returns the broadcast unchanged and is
        excluded from the weighted average entirely."""
        from repro.algorithms.base import cohort_matrix

        env = env_factory(local_epochs=1)
        engine = RoundEngine(env, ScenarioConfig(compute_budget=(0, 2)))
        strategy = global_rounds(env)
        broadcast = strategy.matrix[0].copy()
        outcomes = []
        strategy.on_round_end = lambda eng, out: outcomes.append(out)
        engine.run(strategy, 1, RunHistory("test", "x", 0))
        survivors = outcomes[0].survivors
        zero = [u for u in survivors if u.n_batches == 0]
        live = [u for u in survivors if u.n_batches > 0]
        assert zero, "seeded (0, 2) draw should zero out someone"
        assert live, "and someone should still work"
        for update in zero:
            np.testing.assert_array_equal(
                update.flat, env.layout.round_trip(broadcast)
            )
        # FedNova-style: the average is over positive-step clients with
        # steps-taken weights; the denominator is their total step count.
        weights = [float(u.n_batches) for u in live]
        expected = env.layout.round_trip(
            packed_weighted_average(cohort_matrix(env, live), weights)
        )
        np.testing.assert_array_equal(strategy.matrix[0], expected)

    def test_budget_draws_are_seeded_per_round_and_client(self, env_factory):
        env = env_factory(local_epochs=2)
        scenario = ScenarioConfig(compute_budget=(1, 5))
        first = RoundEngine(env, scenario).dispatch(self._tasks(env), 2)
        second = RoundEngine(env, scenario).dispatch(self._tasks(env), 2)
        assert [u.n_batches for u in first.survivors] == [
            u.n_batches for u in second.survivors
        ]

    def test_all_zero_budgets_keep_the_server_state(self, env_factory):
        env = env_factory(local_epochs=1)
        engine = RoundEngine(env, ScenarioConfig(compute_budget=0))
        strategy = global_rounds(env)
        before = strategy.matrix[0].copy()
        history = RunHistory("test", "x", 0)
        engine.run(strategy, 1, history)
        np.testing.assert_array_equal(strategy.matrix[0], before)
        # A frozen round must not report a fabricated 0.0 train loss —
        # zero-step updates are excluded from the round statistic.
        assert np.isnan(history.records[0].mean_train_loss)

    @pytest.mark.parametrize("algorithm", ["fedavg", "ifca"])
    def test_zero_budget_losses_do_not_bias_the_curve(
        self, env_factory, algorithm
    ):
        env = env_factory(local_epochs=1)
        result = make_algorithm(algorithm, **_KWARGS[algorithm]).run(
            env, n_rounds=2, scenario=ScenarioConfig(compute_budget=(0, 3))
        )
        for record in result.history.records:
            # Some client trained every round on this seeded config, so
            # the loss is a real mean over trained clients — finite and
            # strictly positive (a fabricated 0.0 would drag it down).
            assert record.mean_train_loss > 0.0


# ----------------------------------------------------------------------
# Fully-dark trace rounds
# ----------------------------------------------------------------------
class TestDarkRounds:
    def _dark_round_2_trace(self, m):
        return AvailabilityTrace({cid: [1, 3] for cid in range(m)})

    @pytest.mark.parametrize("algorithm", ["fedavg", "ifca", "cfl", "local_only"])
    def test_trace_scheduled_dark_round_freezes_the_server(
        self, env_factory, algorithm
    ):
        """A replayed schedule may leave a round with no eligible client
        at all: the round dispatches nothing, logs NaN train loss, and
        every model survives untouched."""
        env = env_factory(local_epochs=1)
        scenario = ScenarioConfig(trace=self._dark_round_2_trace(8))
        result = make_algorithm(algorithm, **_KWARGS[algorithm]).run(
            env, n_rounds=3, scenario=scenario
        )
        records = result.history.records
        assert [r.n_participants for r in records] == [8, 0, 8]
        assert np.isnan(records[1].mean_train_loss)
        # Evaluation still ran on cadence; the dark round changed nothing,
        # so its accuracy equals round 1's.
        assert records[1].mean_local_accuracy == records[0].mean_local_accuracy


# ----------------------------------------------------------------------
# CFL windowed delta cache: splits under partial participation
# ----------------------------------------------------------------------
class TestCFLWindowedSplits:
    def _run(self, env_factory, delta_window):
        env = env_factory(local_epochs=2)
        return make_algorithm(
            "cfl", warmup_rounds=1, delta_window=delta_window
        ).run(env, n_rounds=10, scenario=ScenarioConfig(client_fraction=0.2))

    def test_windowed_cache_restores_splits_at_low_c(self, env_factory):
        """At C=0.2 a full-cohort round never happens (2 of 8 clients per
        round), so the PR-4 criterion can never split; the windowed
        cache splits once the union of the last W rounds covers the
        cohort.  The split decision is pinned."""
        classic = self._run(env_factory, delta_window=1)
        assert classic.extras["split_rounds"] == []
        assert classic.n_clusters == 1

        windowed = self._run(env_factory, delta_window=8)
        assert windowed.extras["split_rounds"] == [8]
        assert windowed.n_clusters == 2
        np.testing.assert_array_equal(
            windowed.cluster_labels, [0, 1, 1, 1, 0, 1, 0, 1]
        )

    def test_cached_deltas_own_their_memory(self, env_factory):
        """Cache entries must be copies, not views into the round's full
        (cohort × n_params) delta matrix — a view would pin the whole
        matrix alive until the entry ages out of the window."""
        from repro.algorithms.cfl import CFL, _CFLRounds

        env = env_factory(local_epochs=1)
        strategy = _CFLRounds(CFL(warmup_rounds=1, delta_window=3), env)
        engine = RoundEngine(env, ScenarioConfig(client_fraction=0.5))
        engine.run(strategy, 1, RunHistory("test", "x", 0))
        caches = [c.delta_cache for c in strategy.clusters]
        assert any(caches), "half the cohort trained, so deltas were cached"
        for cache in caches:
            for _, row, _ in cache.values():
                assert row.base is None  # owns its buffer, pins nothing
                # Rows are held at the layout dtype, not the float64
                # the deltas are taken in — the cache's whole cost is
                # W x m x n_params, and float32 halves it.
                assert row.dtype == env.layout.dtype

    def test_default_window_is_bit_identical_to_pr4(self, env_factory):
        """delta_window=1 (the default) must not change any number under
        scenarios the PR-4 engine already handled."""
        env = env_factory(local_epochs=1)
        scenario = ScenarioConfig(client_fraction=0.75, failure_rate=0.25)
        base = make_algorithm("cfl", warmup_rounds=1).run(
            env, n_rounds=3, scenario=scenario
        )
        env = env_factory(local_epochs=1)
        explicit = make_algorithm("cfl", warmup_rounds=1, delta_window=1).run(
            env, n_rounds=3, scenario=scenario
        )
        np.testing.assert_array_equal(
            base.per_client_accuracy, explicit.per_client_accuracy
        )
        assert base.extras["split_rounds"] == explicit.extras["split_rounds"]


# ----------------------------------------------------------------------
# CFL splits a cluster while other clusters exist
# ----------------------------------------------------------------------
class TestCFLMultiSplit:
    """Four planted label groups: CFL first halves the federation, then
    splits each half while the other one exists.  A split cluster's
    right half becomes the row after it and later clusters move up one,
    so the labels below pin the numbering as well as the partition."""

    @pytest.fixture(scope="class")
    def groups4(self):
        return build_federation(
            "fmnist", 16, 1600, 3, partition="label_cluster",
            groups=[[0, 1], [2, 3], [4, 5], [6, 7]],
        )

    def _run(self, federation, n_rounds, scenario=None):
        env = FederatedEnv(
            federation,
            model_name="mlp",
            model_kwargs={"hidden": (96,)},
            train_cfg=TrainConfig(
                local_epochs=1, batch_size=32, lr=0.05, momentum=0.9
            ),
            seed=2,
        )
        try:
            return make_algorithm(
                "cfl", warmup_rounds=1, min_cluster_size=2, eps1=0.6
            ).run(env, n_rounds, scenario=scenario)
        finally:
            env.close()

    def test_sync_splits(self, groups4):
        result = self._run(groups4, 4)
        assert result.extras["split_rounds"] == [2, 3]
        assert result.cluster_labels.tolist() == [0, 1, 2, 3] * 4
        records = result.history.records
        assert [r.n_clusters for r in records] == [1, 2, 4, 4]
        assert [r.mean_train_loss for r in records] == [
            1.493289789754878,
            0.3822757340967655,
            0.3434708377365562,
            0.017352073676496126,
        ]
        assert [r.mean_local_accuracy for r in records] == [
            0.6693627450980393, 0.5989123774509805, 1.0, 1.0
        ]

    def test_async_splits(self, groups4):
        scenario = ScenarioConfig(
            async_config=AsyncConfig(buffer_size=6, duration_range=(1, 2)),
            staleness_decay=0.9,
        )
        result = self._run(groups4, 7, scenario)
        assert result.extras["split_rounds"] == [2, 4, 6]
        assert result.cluster_labels.tolist() == [0, 2, 3, 4, 0, 2, 3, 4] + [
            1, 2, 3, 4, 1, 2, 3, 4
        ]
        records = result.history.records
        assert [r.n_clusters for r in records] == [1, 2, 2, 4, 4, 5, 5]
        assert [r.mean_train_loss for r in records] == [
            1.5908929909237486,
            0.9004391304767019,
            0.5231532788842893,
            0.40354888325224847,
            0.15459324145220826,
            0.13098567363973806,
            0.015474225030629896,
        ]
        assert [r.mean_local_accuracy for r in records] == [
            0.6219669117647059,
            0.6944852941176471,
            0.8916666666666666,
            0.8455882352941176,
            1.0,
            1.0,
            1.0,
        ]


# ----------------------------------------------------------------------
# One train-loss statistic for every clustered algorithm
# ----------------------------------------------------------------------
class TestTrainLossStatistic:
    @pytest.mark.parametrize(
        "name, kwargs, local_epochs",
        [
            ("ifca", {"n_clusters": 3}, 2),
            ("pacfl", {}, 1),
        ],
    )
    def test_mean_over_clusters_of_cluster_means(
        self, env_factory, monkeypatch, name, kwargs, local_epochs
    ):
        """The round's train loss is the mean over clusters of each
        cluster's mean loss over its trained survivors, so a large
        cluster weighs as much as a small one (a pooled mean over all
        survivors would not)."""
        rounds = []
        run = RoundEngine.run

        def spying_run(engine, strategy, *args, **run_kwargs):
            aggregate = strategy.aggregate

            def spy(eng, round_index, survivors):
                labels = strategy.labels.copy()
                loss = aggregate(eng, round_index, survivors)
                rounds.append((labels, list(survivors), loss))
                return loss

            strategy.aggregate = spy
            return run(engine, strategy, *args, **run_kwargs)

        monkeypatch.setattr(RoundEngine, "run", spying_run)
        env = env_factory(local_epochs=local_epochs)
        make_algorithm(name, **kwargs).run(env, n_rounds=3)
        env.close()
        unequal = 0
        for labels, survivors, loss in rounds:
            losses_of: dict[int, list[float]] = {}
            for u in survivors:
                if u.n_batches > 0:
                    losses_of.setdefault(int(labels[u.client_id]), []).append(
                        u.mean_loss
                    )
            sizes = {len(v) for v in losses_of.values()}
            unequal += len(sizes) > 1
            expected = np.mean([np.mean(losses_of[g]) for g in sorted(losses_of)])
            assert loss == pytest.approx(expected, rel=1e-12, abs=0.0)
        assert unequal, "some round must aggregate clusters of unequal size"


# ----------------------------------------------------------------------
# Evaluation cadence: off-cadence rounds are "not measured", not stale
# ----------------------------------------------------------------------
class TestEvalCadence:
    def test_off_cadence_rounds_record_nan(self, env_factory):
        """With eval_every=3 over 4 rounds only rounds 3 and 4 (the
        final round always evaluates) carry a measurement; rounds 1-2
        must say NaN + evaluated=False instead of replaying the last
        evaluation as if it were fresh."""
        env = env_factory(local_epochs=1)
        result = make_algorithm("fedavg").run(env, n_rounds=4, eval_every=3)
        records = result.history.records
        assert [r.evaluated for r in records] == [False, False, True, True]
        assert np.isnan(records[0].mean_local_accuracy)
        assert np.isnan(records[1].mean_local_accuracy)
        assert np.isfinite(records[2].mean_local_accuracy)
        assert np.isfinite(records[3].mean_local_accuracy)

    def test_best_accuracy_ignores_unevaluated_rounds(self, env_factory):
        """Python's max() is poisoned by NaN ordering — best_accuracy
        must compete only evaluated records."""
        env = env_factory(local_epochs=1)
        result = make_algorithm("fedavg").run(env, n_rounds=4, eval_every=3)
        history = result.history
        assert np.isfinite(history.best_accuracy)
        assert history.best_accuracy == max(
            r.mean_local_accuracy for r in history.records if r.evaluated
        )
        payload = history.to_dict()
        assert payload["evaluated_rounds"] == [3, 4]
        assert np.isfinite(payload["best_accuracy"])

    @pytest.mark.parametrize("eval_every", [0, -1])
    @pytest.mark.parametrize("algorithm", ["fedavg", "fedclust", "pacfl"])
    def test_eval_every_below_one_fails_before_any_work(
        self, env_factory, algorithm, eval_every
    ):
        """One case per kind of first round: FedAvg's engine round and
        the clustering rounds FedClust and PACFL run before the engine.
        Unchecked, 0 raised ZeroDivisionError after round 1 had trained
        and uploaded, and -1 silently evaluated every round."""
        env = env_factory(local_epochs=1)
        with pytest.raises(ValueError, match="eval_every must be >= 1"):
            make_algorithm(algorithm).run(env, n_rounds=3, eval_every=eval_every)
        assert env.tracker.total_uploaded == 0
        assert env.tracker.total_downloaded == 0


# ----------------------------------------------------------------------
# Client-state store integration: the population-scale path keeps pins
# ----------------------------------------------------------------------
class TestStoreIntegration:
    """The store swap is a memory policy, never a numerics change.

    ``local_only`` is the only algorithm with O(population) state, so it
    is where the sharded store must prove bit-identity.
    """

    _SHARDED = StoreConfig(kind="sharded", shard_size=3)

    def test_local_only_pin_holds_on_sharded_store(self, env_factory):
        env = env_factory("serial", store=self._SHARDED)
        result = make_algorithm("local_only").run(env, n_rounds=3)
        acc, loss, uploaded, downloaded = _PINS["local_only"]
        assert result.final_accuracy == acc
        assert result.history.records[-1].mean_train_loss == loss
        assert env.tracker.total_uploaded == uploaded
        assert env.tracker.total_downloaded == downloaded

    def test_sharded_matches_dense_under_scenario(self, env_factory):
        scenario = ScenarioConfig(
            client_fraction=0.5, failure_rate=0.25, straggler_rate=0.25
        )
        results = {}
        for store in (None, self._SHARDED):
            env = env_factory("serial", local_epochs=1, store=store)
            results[store] = make_algorithm("local_only").run(
                env, n_rounds=3, scenario=scenario
            )
        dense, sharded = results[None], results[self._SHARDED]
        assert sharded.final_accuracy == dense.final_accuracy
        np.testing.assert_array_equal(
            sharded.per_client_accuracy, dense.per_client_accuracy
        )

    @pytest.mark.parametrize("executor", ["process", "batched"])
    def test_sharded_store_cell_identical_across_executors(
        self, env_factory, executor
    ):
        scenario = ScenarioConfig(client_fraction=0.75, failure_rate=0.25)

        def run(kind):
            env = env_factory(kind, local_epochs=1, store=self._SHARDED)
            try:
                return make_algorithm("local_only").run(
                    env, n_rounds=2, scenario=scenario
                )
            finally:
                env.close()

        serial = run("serial")
        other = run(executor)
        assert serial.final_accuracy == other.final_accuracy
        np.testing.assert_array_equal(
            serial.per_client_accuracy, other.per_client_accuracy
        )

    def test_local_only_resume_through_sharded_store(
        self, env_factory, tmp_path
    ):
        def run(d, resume, n_rounds):
            env = env_factory("serial", local_epochs=1, store=self._SHARDED)
            return make_algorithm("local_only").run(
                env,
                n_rounds=n_rounds,
                scenario=ScenarioConfig(
                    failure_rate=0.2,
                    checkpoint=CheckpointConfig(directory=d, resume=resume),
                ),
            )

        ref = run(tmp_path / "ref", False, 4)
        run(tmp_path / "cut", False, 2)
        resumed = run(tmp_path / "cut", True, 4)
        assert resumed.final_accuracy == ref.final_accuracy
        np.testing.assert_array_equal(
            resumed.per_client_accuracy, ref.per_client_accuracy
        )
        assert [
            (r.round_index, r.mean_train_loss) for r in resumed.history.records
        ] == [(r.round_index, r.mean_train_loss) for r in ref.history.records]


class TestRowLifetime:
    """A round lets go of its updates' rows, so the batched executor's
    working plane is freed before the next round trains; a row the
    engine banks keeps its values until it folds."""

    @staticmethod
    def _spy(env, record):
        run = env.executor.run

        def spy(env_, tasks, round_index):
            updates = run(env_, tasks, round_index)
            record(round_index, updates)
            return updates

        env.executor.run = spy

    def test_each_round_frees_its_plane_before_the_next_trains(
        self, env_factory
    ):
        env = env_factory("batched", local_epochs=1)
        planes = []  # weak references: they keep no plane alive
        alive = []  # earlier planes alive as each round's updates come back

        def record(round_index, updates):
            alive.append(sum(plane() is not None for plane in planes))
            planes.append(weakref.ref(updates[0].flat.base))

        self._spy(env, record)
        make_algorithm("fedavg").run(env, n_rounds=3)
        assert alive == [0, 0, 0]

    def test_banked_straggler_row_folds_unchanged(self, env_factory):
        env = env_factory("batched", local_epochs=1)
        emitted = {}  # (dispatch round, client) -> copy of the trained row

        def record(round_index, updates):
            for update in updates:
                emitted[round_index, update.client_id] = update.flat.copy()

        self._spy(env, record)
        scenario = ScenarioConfig(
            client_fraction=0.5, straggler_rate=0.5, staleness_decay=0.5
        )
        engine = RoundEngine(env, scenario)
        strategy = global_rounds(env)
        folded = []

        def check(eng, out):
            stale = {
                c for r, c in fates(eng.events, "stale") if r == out.round_index
            }
            for update in out.survivors:
                if update.client_id in stale:
                    # A banked row is the client's latest earlier dispatch.
                    sent = max(
                        r
                        for r, cid in emitted
                        if cid == update.client_id and r < out.round_index
                    )
                    np.testing.assert_array_equal(
                        update.flat, emitted[sent, update.client_id]
                    )
                    folded.append(update.client_id)

        strategy.on_round_end = check
        engine.run(strategy, 4, RunHistory("test", "x", 0))
        assert folded, "the seeded scenario should fold a banked row"
