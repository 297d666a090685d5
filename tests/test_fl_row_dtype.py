"""One row dtype: client and server rows rest at the layout dtype.

Every row the FL stack holds — executor updates, the shared-model
server matrix, store rows, buffered updates and everything a checkpoint
restores — is at ``env.layout.dtype`` (float32 for every model here).
A corrupted copy (:func:`repro.fl.defense.maybe_corrupt`) is the one
float64 row.  Reductions accumulate in float64, into which the rows
widen exactly, a block of columns at a time: they give the numbers of
the float64-widened cohort without ever holding it.
"""

from __future__ import annotations

import tracemalloc

import numpy as np
import pytest
from helpers import global_rounds

from repro.data.federation import build_federation
from repro.fl.checkpoint import (
    CheckpointConfig,
    decode,
    encode,
    load_checkpoint,
    save_checkpoint,
)
from repro.fl.config import TrainConfig
from repro.fl.defense import (
    ROBUST_AGG_MODES,
    CorruptionConfig,
    maybe_corrupt,
    robust_weighted_average,
)
from repro.fl.history import RunHistory
from repro.fl.parallel import UpdateTask
from repro.fl.rounds import RoundEngine, ScenarioConfig
from repro.fl.simulation import FederatedEnv
from repro.fl.store import StoreConfig, StoreRows


@pytest.fixture(scope="module")
def federation():
    return build_federation(
        "cifar10", n_clients=6, n_samples=360, seed=4, partition="iid"
    )


def _env(federation, executor="serial", store=None):
    return FederatedEnv(
        federation,
        model_name="mlp",
        model_kwargs={"hidden": (16,)},
        train_cfg=TrainConfig(local_epochs=1, batch_size=16, lr=0.05, momentum=0.9),
        seed=1,
        executor=executor,
        store=store,
    )


class TestRowsAtLayoutDtype:
    @pytest.mark.parametrize("kind", ["serial", "process", "batched"])
    def test_executor_updates(self, federation, kind):
        """Trained and zero-budget updates alike; only a corrupted copy
        is float64."""
        env = _env(federation, kind)
        try:
            init = env.layout.pack(env.init_state())
            tasks = [
                UpdateTask(cid, init, max_steps=0 if cid == 0 else None)
                for cid in range(4)
            ]
            updates = env.run_updates(tasks, round_index=1)
        finally:
            env.close()
        assert env.layout.dtype == np.float32
        assert [u.flat.dtype for u in updates] == [env.layout.dtype] * 4
        noise = CorruptionConfig(rate=1.0, kinds=("noise",))
        assert maybe_corrupt(updates[1], env.seed, 1, noise).flat.dtype == np.float64

    def test_server_rows_and_their_restore(self, federation, tmp_path):
        env = _env(federation)
        strategy = global_rounds(env)
        ckpt = CheckpointConfig(directory=tmp_path)
        RoundEngine(env, ScenarioConfig(checkpoint=ckpt)).run(
            strategy, 2, RunHistory("fedavg", "synthetic", env.seed)
        )
        restored = global_rounds(env)
        RoundEngine(env, ScenarioConfig()).resume(
            ckpt.path, restored, RunHistory("fedavg", "synthetic", env.seed)
        )
        for rows in (strategy.matrix, restored.matrix):
            assert rows.dtype == env.layout.dtype
        np.testing.assert_array_equal(restored.matrix, strategy.matrix)

    @pytest.mark.parametrize("kind", ["dense", "sharded"])
    def test_store_rows_and_their_restore(self, federation, tmp_path, kind):
        """A float64 row is rounded on ``set``; ``get``, ``rows`` and a
        restore from a file all hand back layout-dtype rows."""
        env = _env(federation, store=StoreConfig(kind=kind, shard_size=4))
        store = env.make_store()
        row = np.random.default_rng(0).standard_normal(env.n_params)
        store.set(2, row)
        arrays = {}
        header = {"store": encode(store.contents(), arrays)}
        save_checkpoint(tmp_path / "store.bin", header, arrays)
        header, loaded = load_checkpoint(tmp_path / "store.bin")
        restored = env.make_store()
        restored.restore(decode(header["store"], StoreRows, loaded))
        for s in (store, restored):
            assert s.get(2).dtype == s.get(5).dtype == env.layout.dtype
            assert s.rows([0, 2]).dtype == env.layout.dtype
            np.testing.assert_array_equal(s.get(2), row.astype(np.float32))

    def test_buffered_rows_restore_at_their_own_dtype(self, federation, tmp_path):
        """Banked stragglers, some of them noise-corrupted, are written
        one array per row at the row's dtype, and a resumed engine holds
        them exactly so: checkpointing it again writes the same arrays."""
        env = _env(federation)
        scenario = ScenarioConfig(
            straggler_rate=0.5,
            staleness_decay=0.5,
            corruption=CorruptionConfig(rate=0.5, kinds=("noise",)),
        )
        strategy = global_rounds(env)
        engine = RoundEngine(env, scenario)
        history = RunHistory("fedavg", "synthetic", env.seed)
        engine.run(strategy, 2, history)
        first = tmp_path / "first.bin"
        engine.checkpoint(first, strategy, history)
        header, arrays = load_checkpoint(first)
        rows = [arrays[update["flat"]] for _, (_, update) in header["engine"]["_buffer"]]
        assert {row.dtype for row in rows} == {np.dtype(np.float32), np.dtype(np.float64)}

        resumed_strategy = global_rounds(env)
        resumed = RoundEngine(env, scenario)
        resumed_history = RunHistory("fedavg", "synthetic", env.seed)
        resumed.resume(first, resumed_strategy, resumed_history)
        second = tmp_path / "second.bin"
        resumed.checkpoint(second, resumed_strategy, resumed_history)
        _, again = load_checkpoint(second)
        assert again.keys() == arrays.keys()
        for name, array in arrays.items():
            assert again[name].dtype == array.dtype, name
            np.testing.assert_array_equal(again[name], array)


class TestReductionsAccumulateInFloat64:
    @pytest.mark.parametrize("n", [4, 5])
    @pytest.mark.parametrize("mode", ROBUST_AGG_MODES)
    def test_float32_cohort_reduces_like_its_float64_widening(self, mode, n):
        """Bit for bit, odd and even cohorts: the median's middle pair is
        averaged in float64, the trimmed mean sorts float32 lanes."""
        rng = np.random.default_rng(n)
        matrix = rng.standard_normal((n, 9_001)).astype(np.float32)
        wide = matrix.astype(np.float64)
        weights = rng.integers(1, 50, n).astype(np.float64)
        got = robust_weighted_average(matrix, weights, mode, trim_fraction=0.25)
        if mode == "none":
            expected = (weights / weights.sum()) @ wide
        elif mode == "coordinate_median":
            expected = np.median(wide, axis=0)
        else:
            expected = robust_weighted_average(wide, weights, mode, trim_fraction=0.25)
        assert got.dtype == np.float64
        np.testing.assert_array_equal(got, expected)

    @pytest.mark.parametrize("mode", ["none", "trimmed_mean", "coordinate_median"])
    def test_no_cohort_sized_float64_copy(self, mode):
        """The traced peak stays below the float32 cohort's own bytes: a
        float64 copy of it would take twice that.  (``clip`` rescales its
        rows into a float64 copy by design.)"""
        n, p = 8, 200_000
        matrix = np.random.default_rng(0).standard_normal((n, p)).astype(np.float32)
        weights = np.arange(1.0, n + 1.0)
        tracemalloc.start()
        try:
            robust_weighted_average(matrix, weights, mode, trim_fraction=0.25)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < n * p * 4
