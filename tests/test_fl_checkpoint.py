"""Checkpoint/resume: codec robustness and resume-vs-uninterrupted
bit-identity.

The codec contract: ``save_checkpoint`` writes one atomic file
(magic + version + JSON header + raw array blobs) and ``load_checkpoint``
either returns exactly what was saved or raises a :class:`CheckpointError`
that names the file and says what was expected versus found.  No silent
partial reads, no version coercion.

The engine contract: a run checkpointed at round ``t`` and resumed by a
*fresh* engine (fresh env, fresh strategy seeded from scratch) reproduces
the uninterrupted run bit-for-bit — server vector, accuracies, traffic
counters, the event log, every history field except wall-clock.
"""

from __future__ import annotations

import dataclasses
import json
import struct
import tempfile
from contextlib import contextmanager
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from helpers import fates, global_rounds
from hypothesis import HealthCheck, assume, given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp
from test_fl_rounds import legal_scenarios

from repro.algorithms.registry import make_algorithm
from repro.data.federation import build_federation
from repro.fl import checkpoint, rounds
from repro.fl.checkpoint import (
    CHECKPOINT_MAGIC,
    CHECKPOINT_VERSION,
    CheckpointConfig,
    CheckpointError,
    blas_threads,
    load_checkpoint,
    save_checkpoint,
)
from repro.fl.communication import CommunicationTracker
from repro.fl.config import TrainConfig
from repro.fl.defense import CorruptionConfig
from repro.fl.history import RunHistory
from repro.fl.rounds import AsyncConfig, RoundEngine, RoundStrategy, ScenarioConfig
from repro.fl.simulation import FederatedEnv
from repro.fl.store import StoreConfig


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


def _valid_file(path):
    header = {"seed": 2, "note": "codec probe", "loss": float("nan")}
    arrays = {
        "vector": np.arange(6, dtype=np.float64),
        "labels": np.array([0, 1, 1], dtype=np.int64),
    }
    save_checkpoint(path, header, arrays)
    return path


# ----------------------------------------------------------------------
# Codec: loud failures (satellite c)
# ----------------------------------------------------------------------
class TestCodecErrors:
    def test_round_trip_smoke(self, tmp_path):
        path = _valid_file(tmp_path / "ok.bin")
        header, arrays = load_checkpoint(path)
        assert header["seed"] == 2
        assert np.isnan(header["loss"])  # NaN survives the JSON header
        np.testing.assert_array_equal(arrays["vector"], np.arange(6.0))
        assert arrays["labels"].dtype == np.int64

    def test_missing_file(self, tmp_path):
        with pytest.raises(CheckpointError, match="no checkpoint"):
            load_checkpoint(tmp_path / "never_written.bin")

    def test_bad_magic(self, tmp_path):
        path = tmp_path / "junk.bin"
        path.write_bytes(b"NOTACKPT" + b"\x00" * 64)
        with pytest.raises(CheckpointError, match="not a repro checkpoint"):
            load_checkpoint(path)

    def test_version_mismatch_names_both_versions(self, tmp_path):
        path = _valid_file(tmp_path / "ok.bin")
        raw = bytearray(path.read_bytes())
        # Overwrite the version field (first 4 bytes after the magic).
        struct.pack_into("<I", raw, len(CHECKPOINT_MAGIC), 99)
        bad = tmp_path / "future.bin"
        bad.write_bytes(bytes(raw))
        with pytest.raises(
            CheckpointError,
            match=(
                "file has version 99, this build reads version "
                f"{CHECKPOINT_VERSION}"
            ),
        ):
            load_checkpoint(bad)

    def test_truncated_prelude(self, tmp_path):
        path = tmp_path / "stub.bin"
        path.write_bytes(CHECKPOINT_MAGIC[:4])
        with pytest.raises(CheckpointError, match="truncated"):
            load_checkpoint(path)

    def test_truncated_header(self, tmp_path):
        path = _valid_file(tmp_path / "ok.bin")
        raw = path.read_bytes()
        cut = tmp_path / "cut_header.bin"
        # Keep magic + version/length prelude plus half the JSON header.
        cut.write_bytes(raw[: len(CHECKPOINT_MAGIC) + 12 + 10])
        with pytest.raises(CheckpointError, match="truncated"):
            load_checkpoint(cut)

    def test_truncated_blobs(self, tmp_path):
        path = _valid_file(tmp_path / "ok.bin")
        raw = path.read_bytes()
        cut = tmp_path / "cut_blob.bin"
        cut.write_bytes(raw[:-8])  # drop the tail of the last array
        with pytest.raises(CheckpointError, match="truncated"):
            load_checkpoint(cut)

    def test_corrupt_header_json(self, tmp_path):
        path = _valid_file(tmp_path / "ok.bin")
        raw = bytearray(path.read_bytes())
        start = len(CHECKPOINT_MAGIC) + 12
        raw[start] = ord("?")  # JSON no longer parses
        bad = tmp_path / "garbled.bin"
        bad.write_bytes(bytes(raw))
        with pytest.raises(CheckpointError, match="header"):
            load_checkpoint(bad)

    def test_format_tag_mismatch(self, tmp_path):
        path = tmp_path / "alien.bin"
        head = {"format": "someone.elses.v9", "header": {}, "arrays": []}
        blob = json.dumps(head).encode()
        path.write_bytes(
            CHECKPOINT_MAGIC
            + struct.pack("<IQ", CHECKPOINT_VERSION, len(blob))
            + blob
        )
        with pytest.raises(CheckpointError, match="format"):
            load_checkpoint(path)

    def test_save_is_atomic(self, tmp_path):
        # A successful save leaves no temp droppings next to the file.
        path = _valid_file(tmp_path / "ok.bin")
        assert [p.name for p in tmp_path.iterdir()] == [path.name]


# ----------------------------------------------------------------------
# Codec: property-based round trips (satellite c)
# ----------------------------------------------------------------------
_DTYPES = st.sampled_from([np.float64, np.float32, np.int64])
_ARRAY = _DTYPES.flatmap(
    lambda dt: hnp.arrays(
        dtype=dt,
        shape=hnp.array_shapes(min_dims=1, max_dims=2, max_side=8),
        elements=(
            hnp.from_dtype(np.dtype(dt), allow_nan=True)
            if np.issubdtype(dt, np.floating)
            else hnp.from_dtype(np.dtype(dt))
        ),
    )
)
_SCALAR = st.one_of(
    st.integers(min_value=-(2**53), max_value=2**53),
    st.floats(allow_nan=False),
    st.text(max_size=20),
    st.booleans(),
    st.none(),
)


class TestCodecRoundTrip:
    @settings(
        max_examples=40,
        deadline=None,
        suppress_health_check=[HealthCheck.function_scoped_fixture],
    )
    @given(
        header=st.dictionaries(
            st.text(min_size=1, max_size=12), _SCALAR, max_size=5
        ),
        arrays=st.dictionaries(
            st.text(
                alphabet=st.characters(
                    whitelist_categories=("Ll", "Nd"), whitelist_characters="_/"
                ),
                min_size=1,
                max_size=16,
            ),
            _ARRAY,
            max_size=4,
        ),
    )
    def test_round_trip_is_exact(self, tmp_path, header, arrays):
        path = tmp_path / "prop.bin"
        save_checkpoint(path, header, arrays)
        got_header, got_arrays = load_checkpoint(path)
        assert got_header == header
        assert set(got_arrays) == set(arrays)
        for name, arr in arrays.items():
            got = got_arrays[name]
            assert got.dtype == arr.dtype
            assert got.shape == arr.shape
            np.testing.assert_array_equal(got, arr)


# ----------------------------------------------------------------------
# Engine resume bit-identity
# ----------------------------------------------------------------------
def _history_rows(history: RunHistory):
    def canon(v):
        # NaN breaks dict equality; map it to a comparable sentinel.
        if isinstance(v, float) and np.isnan(v):
            return "nan"
        return v

    rows = []
    for r in history.records:
        d = {
            f.name: canon(getattr(r, f.name))
            for f in r.__dataclass_fields__.values()
            if f.name != "wall_seconds"
        }
        rows.append(d)
    return rows


def _assert_engines_match(a: RoundEngine, b: RoundEngine):
    assert a.events == b.events
    assert a.env.tracker.uploads == b.env.tracker.uploads
    assert a.env.tracker.downloads == b.env.tracker.downloads


class TestResumeBitIdentity:
    def _run(
        self,
        env,
        scenario,
        n_rounds,
        seed_history="fedavg",
    ):
        strategy = global_rounds(env)
        engine = RoundEngine(env, scenario)
        history = RunHistory(seed_history, "synthetic", env.seed)
        mean_acc, per_client = engine.run(strategy, n_rounds, history)
        return strategy, engine, history, mean_acc, per_client

    def _compare(self, ref, resumed):
        s1, e1, h1, acc1, pc1 = ref
        s2, e2, h2, acc2, pc2 = resumed
        np.testing.assert_array_equal(s2.matrix[0], s1.matrix[0])
        assert acc2 == acc1
        np.testing.assert_array_equal(pc2, pc1)
        assert _history_rows(h2) == _history_rows(h1)
        _assert_engines_match(e2, e1)

    def test_fedavg_sync_resume(self, env_factory, tmp_path):
        def scenario(d, resume):
            return ScenarioConfig(
                failure_rate=0.2,
                checkpoint=CheckpointConfig(directory=d, resume=resume),
            )

        env = env_factory()
        ref = self._run(env, scenario(tmp_path / "ref", False), 4)
        env.close()

        env = env_factory()
        self._run(env, scenario(tmp_path / "cut", False), 2)
        env.close()
        env = env_factory()
        resumed = self._run(env, scenario(tmp_path / "cut", True), 4)
        env.close()
        self._compare(ref, resumed)

    #: (scenario knobs, cut round, total rounds).  Each cut round ends
    #: with updates in the buffer: banked stragglers, or async arrivals
    #: short of ``buffer_size``.  The hardened cell also quarantines.
    _BUFFERED_CUTS = {
        "sync_stale": (
            dict(client_fraction=0.5, straggler_rate=0.4, staleness_decay=0.5),
            3,
            4,
        ),
        "sync_hardened": (
            dict(
                client_fraction=0.5,
                straggler_rate=0.4,
                staleness_decay=0.5,
                corruption=CorruptionConfig(rate=0.3, kinds=("nan",)),
            ),
            3,
            4,
        ),
        "async": (
            dict(
                staleness_decay=0.9,
                async_config=AsyncConfig(buffer_size=3, duration_range=(1, 3)),
            ),
            4,
            6,
        ),
    }

    def _buffered_cut(self, env_factory, tmp_path, case):
        """The uninterrupted run, which checkpoints itself at the cut
        round (a shorter run would flush an async buffer in its final
        round), and a function resuming a fresh run from that file."""
        knobs, cut, total = self._BUFFERED_CUTS[case]
        env = env_factory()
        strategy = global_rounds(env)
        engine = RoundEngine(env, ScenarioConfig(**knobs))
        history = RunHistory("fedavg", "synthetic", env.seed)

        def cut_here(eng, outcome):
            if outcome.round_index == cut:
                eng.checkpoint(tmp_path / "checkpoint.bin")

        strategy.on_round_end = cut_here
        ref = (strategy, engine, history, *engine.run(strategy, total, history))
        env.close()
        header, _ = load_checkpoint(tmp_path / "checkpoint.bin")
        assert header["engine"]["_buffer"]

        def resume():
            env = env_factory()
            ckpt = CheckpointConfig(directory=tmp_path, resume=True)
            resumed = self._run(env, ScenarioConfig(**knobs, checkpoint=ckpt), total)
            env.close()
            return resumed

        return ref, resume

    def _resume_at_cut(self, env_factory, tmp_path, case):
        ref, resume = self._buffered_cut(env_factory, tmp_path, case)
        resumed = resume()
        self._compare(ref, resumed)
        assert resumed[1].run_record() == ref[1].run_record()
        return ref

    def test_sync_stale_resume(self, env_factory, tmp_path):
        ref = self._resume_at_cut(env_factory, tmp_path, "sync_stale")
        # The stragglers banked before the cut folded after it.
        assert fates(ref[1].events, "stale")[-1][0] == 4

    @pytest.mark.parametrize("case", ["async", "sync_hardened"])
    def test_buffered_cut_resume(self, env_factory, tmp_path, case):
        """An async buffer at the cut, and quarantines before it, resume
        bit-for-bit."""
        ref = self._resume_at_cut(env_factory, tmp_path, case)
        _, cut, _ = self._BUFFERED_CUTS[case]
        if case == "sync_hardened":
            assert any(r <= cut for r, _ in fates(ref[1].events, "quarantine"))

    def test_resume_skips_completed_rounds(self, env_factory, tmp_path):
        ckpt = CheckpointConfig(directory=tmp_path, resume=False)
        env = env_factory()
        self._run(env, ScenarioConfig(checkpoint=ckpt), 3)
        done_down = env.tracker.total_downloaded
        done_up = env.tracker.total_uploaded
        env.close()
        env = env_factory()
        strategy = global_rounds(env)
        engine = RoundEngine(
            env,
            ScenarioConfig(
                checkpoint=CheckpointConfig(directory=tmp_path, resume=True)
            ),
        )
        history = RunHistory("fedavg", "synthetic", env.seed)
        engine.run(strategy, 3, history)
        env.close()
        # Nothing re-trained: the three checkpointed rounds were restored
        # wholesale — the tracker holds exactly the checkpointed totals
        # and no new dispatch added traffic on top.
        assert [r.round_index for r in history.records] == [1, 2, 3]
        assert env.tracker.total_downloaded == done_down
        assert env.tracker.total_uploaded == done_up

    def test_checkpoint_every_still_covers_the_last_round(
        self, env_factory, tmp_path
    ):
        ckpt = CheckpointConfig(directory=tmp_path, every=2, resume=False)
        env = env_factory()
        self._run(env, ScenarioConfig(checkpoint=ckpt), 3)
        env.close()
        header, _ = load_checkpoint(ckpt.path)
        assert header["engine"]["_next_round"] == 4  # round 3 (odd) was still written

    def test_fedclust_resume(self, env_factory, tmp_path):
        def run(d, resume, n_rounds):
            env = env_factory()
            try:
                return make_algorithm(
                    "fedclust", warmup_steps=10, warmup_lr=0.01
                ).run(
                    env,
                    n_rounds=n_rounds,
                    scenario=ScenarioConfig(
                        checkpoint=CheckpointConfig(directory=d, resume=resume)
                    ),
                )
            finally:
                env.close()

        ref = run(tmp_path / "ref", False, 4)
        run(tmp_path / "cut", False, 2)
        resumed = run(tmp_path / "cut", True, 4)
        assert resumed.final_accuracy == ref.final_accuracy
        np.testing.assert_array_equal(
            resumed.per_client_accuracy, ref.per_client_accuracy
        )
        np.testing.assert_array_equal(
            resumed.cluster_labels, ref.cluster_labels
        )
        assert _history_rows(resumed.history) == _history_rows(ref.history)
        assert resumed.extras["events"] == ref.extras["events"]

    def test_async_resume(self, env_factory, tmp_path):
        def scenario(d, resume):
            return ScenarioConfig(
                staleness_decay=0.9,
                async_config=AsyncConfig(buffer_size=3, duration_range=(1, 3)),
                checkpoint=CheckpointConfig(directory=d, resume=resume),
            )

        env = env_factory()
        ref = self._run(env, scenario(tmp_path / "ref", False), 6)
        env.close()

        env = env_factory()
        self._run(env, scenario(tmp_path / "cut", False), 3)
        env.close()
        env = env_factory()
        resumed = self._run(env, scenario(tmp_path / "cut", True), 6)
        env.close()
        # The in-flight buffer crossed the checkpoint boundary intact.
        self._compare(ref, resumed)


# ----------------------------------------------------------------------
# Resume guards
# ----------------------------------------------------------------------
class TestResumeGuards:
    def _checkpointed(self, env_factory, tmp_path):
        env = env_factory()
        strategy = global_rounds(env)
        engine = RoundEngine(
            env,
            ScenarioConfig(
                checkpoint=CheckpointConfig(directory=tmp_path, resume=False)
            ),
        )
        engine.run(strategy, 1, RunHistory("fedavg", "synthetic", env.seed))
        env.close()
        return CheckpointConfig(directory=tmp_path, resume=True)

    def test_seed_mismatch_names_both_values(self, env_factory, tmp_path):
        ckpt = self._checkpointed(env_factory, tmp_path)
        env = env_factory(seed=3)
        strategy = global_rounds(env)
        engine = RoundEngine(env, ScenarioConfig(checkpoint=ckpt))
        with pytest.raises(
            CheckpointError, match=r"seed mismatch.*expects 3.*holds 2"
        ):
            engine.run(strategy, 2, RunHistory("fedavg", "synthetic", 3))
        env.close()

    def test_strategy_mismatch(self, env_factory, tmp_path):
        ckpt = self._checkpointed(env_factory, tmp_path)
        env = env_factory()
        try:
            with pytest.raises(CheckpointError, match="strategy mismatch"):
                make_algorithm("ifca", n_clusters=2).run(
                    env,
                    n_rounds=2,
                    scenario=ScenarioConfig(checkpoint=ckpt),
                )
        finally:
            env.close()

    def test_another_scenario_is_refused(self, env_factory, tmp_path):
        # Checkpoint settings are outside the scenario's dict; every
        # other knob must match the file's.
        ckpt = self._checkpointed(env_factory, tmp_path)
        env = env_factory()
        engine = RoundEngine(
            env,
            ScenarioConfig(failure_rate=0.5, client_fraction=0.5, checkpoint=ckpt),
        )
        with pytest.raises(
            CheckpointError,
            match=(
                r"scenario mismatch.*expects \{'client_fraction': 0\.5, "
                r"'failure_rate': 0\.5\}.*holds \{\}"
            ),
        ):
            engine.run(global_rounds(env), 2, RunHistory("fedavg", "synthetic", 2))
        env.close()

    def test_another_blas_thread_count_is_refused(
        self, env_factory, tmp_path, monkeypatch
    ):
        # OpenBLAS sums large GEMMs differently at another thread count,
        # so the continuation could not be bit-for-bit.
        monkeypatch.setattr(rounds, "blas_threads", lambda: 2)
        ckpt = self._checkpointed(env_factory, tmp_path)
        monkeypatch.setattr(rounds, "blas_threads", lambda: 1)
        env = env_factory()
        engine = RoundEngine(env, ScenarioConfig(checkpoint=ckpt))
        with pytest.raises(
            CheckpointError, match=r"blas_threads mismatch.*expects 1.*holds 2"
        ):
            engine.run(global_rounds(env), 2, RunHistory("fedavg", "synthetic", 2))
        env.close()

    def test_blas_threads_reads_the_live_count(self):
        # conftest.py pins OpenBLAS to one thread; another BLAS reads None.
        assert blas_threads() in (1, None)

    def test_version_3_file_is_refused(self, env_factory, tmp_path, monkeypatch):
        # An earlier build's files (version 3 held a FedAvg ``vector``
        # payload) are refused, not converted.
        ckpt = self._checkpointed(env_factory, tmp_path)
        header, arrays = load_checkpoint(ckpt.path)
        with monkeypatch.context() as patch:
            patch.setattr(checkpoint, "CHECKPOINT_VERSION", 3)
            save_checkpoint(ckpt.path, header, arrays)
        env = env_factory()
        engine = RoundEngine(env, ScenarioConfig(checkpoint=ckpt))
        with pytest.raises(
            CheckpointError,
            match=(
                "file has version 3, this build reads version "
                f"{CHECKPOINT_VERSION}"
            ),
        ):
            engine.run(global_rounds(env), 2, RunHistory("fedavg", "synthetic", 2))
        env.close()

    @pytest.mark.parametrize(
        "written, resuming, match",
        [
            (
                ("fedprox", {"mu": 0.5}),
                ("fedavg", {}),
                r"algorithm mismatch.*expects 'fedavg'.*holds 'fedprox'",
            ),
            (
                ("fedavg", {}),
                ("pacfl", {}),
                r"algorithm mismatch.*expects 'pacfl'.*holds 'fedavg'",
            ),
            (
                ("fedprox", {"mu": 0.5}),
                ("fedprox", {"mu": 0.1}),
                r"prox_mu mismatch.*expects 0\.1.*holds 0\.5",
            ),
        ],
        ids=["fedprox-to-fedavg", "fedavg-to-pacfl", "fedprox-mu"],
    )
    def test_another_algorithms_file_is_refused(
        self, env_factory, tmp_path, written, resuming, match
    ):
        """FedAvg, FedProx and PACFL share one strategy name, so the
        algorithm and FedProx's μ tell their files apart."""

        def run(name, kwargs, resume):
            env = env_factory()
            try:
                make_algorithm(name, **kwargs).run(
                    env,
                    n_rounds=2,
                    scenario=ScenarioConfig(
                        checkpoint=CheckpointConfig(
                            directory=tmp_path, resume=resume
                        )
                    ),
                )
            finally:
                env.close()

        run(*written, resume=False)
        with pytest.raises(CheckpointError, match=match):
            run(*resuming, resume=True)

    @pytest.mark.parametrize(
        "algorithm, key, written, resuming",
        [
            ("ifca", "n_clusters", 2, 3),
            ("cfl", "eps1", 0.4, 0.9),
            ("pacfl", "n_components", 3, 5),
            ("fedclust", "warmup_steps", 4, 8),
        ],
    )
    def test_other_algorithm_settings_are_refused(
        self, env_factory, tmp_path, algorithm, key, written, resuming
    ):
        """Each of an algorithm's settings is a key of the file's
        identity: IFCA resumed at another cluster count died mid-run with
        an IndexError, and the other three resumed silently."""

        def run(value, n_rounds, resume):
            env = env_factory()
            try:
                make_algorithm(algorithm, **{key: value}).run(
                    env,
                    n_rounds=n_rounds,
                    scenario=ScenarioConfig(
                        checkpoint=CheckpointConfig(
                            directory=tmp_path, resume=resume
                        )
                    ),
                )
            finally:
                env.close()

        run(written, 2, resume=False)
        with pytest.raises(
            CheckpointError,
            match=rf"{key} mismatch.*expects {resuming}.*holds {written}",
        ):
            run(resuming, 3, resume=True)

    def test_resume_without_file_starts_fresh(self, env_factory, tmp_path):
        # resume=True against an empty directory is a cold start, not an
        # error — the first checkpoint appears after round 1.
        env = env_factory()
        strategy = global_rounds(env)
        ckpt = CheckpointConfig(directory=tmp_path / "fresh", resume=True)
        engine = RoundEngine(env, ScenarioConfig(checkpoint=ckpt))
        history = RunHistory("fedavg", "synthetic", env.seed)
        engine.run(strategy, 1, history)
        env.close()
        assert ckpt.path.exists()
        assert history.n_rounds == 1

    def test_strategy_without_hooks_fails_loudly(self, env_factory, tmp_path):
        class Opaque(RoundStrategy):
            name = "opaque"

            def broadcast_for(self, engine, round_index, participants):
                return []

            def aggregate(self, engine, round_index, survivors):
                return float("nan")

            def evaluate(self, engine, round_index):
                return 0.0, np.zeros(8)

        env = env_factory()
        engine = RoundEngine(
            env,
            ScenarioConfig(
                checkpoint=CheckpointConfig(directory=tmp_path, resume=False)
            ),
        )
        with pytest.raises(NotImplementedError, match="opaque"):
            engine.run(Opaque(), 1, RunHistory("opaque", "synthetic", env.seed))
        env.close()


# ----------------------------------------------------------------------
# Resume properties: any legal scenario × algorithm × executor × cut
# ----------------------------------------------------------------------
#: Every algorithm at a size a 10-client run of a few rounds finishes in.
_ALGORITHMS = {
    "fedavg": {},
    "fedprox": {"mu": 0.1},
    "cfl": {"warmup_rounds": 1},
    "ifca": {"n_clusters": 2},
    "pacfl": {},
    "fedclust": {"warmup_steps": 4, "warmup_lr": 0.01},
    "local_only": {},
}

#: Engine attributes that are not run state: what it was built with,
#: and the run it serves (``checkpoint()``'s defaults).
_ENGINE_SETTINGS = {"env", "scenario", "phase", "_run_strategy", "_run_history"}
#: Per strategy class, its attributes that are not run state.
_STRATEGY_SETTINGS = {
    "ClusteredRounds": {"prox_mu"},
    "_IFCARounds": {"prox_mu", "algo"},
    "_CFLRounds": {"prox_mu", "algo"},
    "_FedClustRounds": {"prox_mu", "algo"},
    "_LocalRounds": {"store"},
}


@pytest.fixture(scope="module")
def ten_clients():
    """``legal_scenarios`` draws client ids 0–9."""
    return build_federation(
        "fmnist", n_clients=10, n_samples=300, seed=3, partition="label_cluster"
    )


@st.composite
def resume_cases(draw):
    """A legal scenario, an algorithm, an executor, a store and a cut
    round inside the horizon (FedClust's and PACFL's engine rounds start
    at 2)."""
    n_rounds = draw(st.integers(3, 5))
    return dict(
        algorithm=draw(st.sampled_from(sorted(_ALGORITHMS))),
        kwargs=None,
        scenario=draw(legal_scenarios()),
        executor=draw(st.sampled_from(["serial", "batched"])),
        store=draw(st.sampled_from(["dense", "sharded"])),
        n_rounds=n_rounds,
        cut=draw(st.integers(2, n_rounds - 1)),
    )


@contextmanager
def _watched(cut=None, path=None):
    """Record each engine round's ``(engine, strategy)``; at round
    ``cut`` the engine checkpoints itself to ``path``.  No strategy
    overrides ``on_round_end``."""
    seen = []

    def on_round_end(strategy, engine, outcome):
        seen.append((engine, strategy))
        if outcome.round_index == cut:
            engine.checkpoint(path)

    with mock.patch.object(RoundStrategy, "on_round_end", on_round_end):
        yield seen


def _env(federation, executor="serial", store="dense"):
    return FederatedEnv(
        federation,
        model_name="mlp",
        model_kwargs={"hidden": (8,)},
        train_cfg=TrainConfig(local_epochs=1, batch_size=16, lr=0.05, momentum=0.9),
        seed=1,
        executor=executor,
        store=StoreConfig(kind=store, shard_size=3),
    )


def _run(federation, case, cut=None, path=None, resume=False):
    """Run ``case`` on a fresh env; returns ``(result, engine, strategy)``
    with the env still open.  Draws whose FedClust clustering round gets
    fewer than two responders are rejected."""
    env = _env(federation, case["executor"], case["store"])
    scenario = case["scenario"]
    if resume:
        scenario = dataclasses.replace(
            scenario, checkpoint=CheckpointConfig(Path(path).parent, resume=True)
        )
    kwargs = case["kwargs"] or _ALGORITHMS[case["algorithm"]]
    try:
        with _watched(cut, path) as seen:
            result = make_algorithm(case["algorithm"], **kwargs).run(
                env, case["n_rounds"], scenario=scenario
            )
    except BaseException as exc:
        env.close()
        assume("responding clients" not in str(exc))
        raise
    engine, strategy = seen[-1]
    return result, engine, strategy


def _canon(value):
    """``value`` as plain data that compares NaN-safely and no longer
    aliases the run's live objects."""
    if isinstance(value, np.ndarray):
        return _canon(value.tolist())
    if isinstance(value, dict):
        return {k: _canon(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_canon(v) for v in value]
    if isinstance(value, float) and np.isnan(value):
        return "nan"
    return value


def _observed(engine, strategy, history, accuracy):
    """What a resumed run must reproduce: accuracies, server rows and
    labels, history (without wall-clock), events, the engine record,
    traffic and FedClust's onboarded newcomers."""
    if hasattr(strategy, "store"):
        rows, labels = strategy.store.rows(range(strategy.store.n_clients)), None
    else:
        rows, labels = strategy.matrix, strategy.labels
    tracker = engine.env.tracker
    return _canon(
        {
            "accuracy": accuracy,
            "rows": rows,
            "labels": labels,
            "history": [
                {k: v for k, v in dataclasses.asdict(r).items() if k != "wall_seconds"}
                for r in history.records
            ],
            "events": engine.events,
            "engine_record": engine.run_record(),
            "comm": tracker.by_phase() | {"total": tracker.totals()},
            "onboarded": {
                cid: (a.cluster, a.distances, a.margin)
                for cid, a in getattr(strategy, "onboarded", {}).items()
            },
        }
    )


def _result_observed(result, engine, strategy):
    accuracy = (result.final_accuracy, result.per_client_accuracy)
    return _observed(engine, strategy, result.history, accuracy)


_PROPERTY = dict(
    deadline=None,
    suppress_health_check=[HealthCheck.function_scoped_fixture, HealthCheck.too_slow],
)


class TestResumeProperties:
    """A run checkpointed at any cut and resumed equals the uninterrupted
    run, and a file is only resumed by the run that wrote it.

    Timings on a 2-CPU container at one BLAS thread: the fresh-resume
    property's 300 examples take ~30 s, the used-engine property's 150
    ~14 s and the refusal property's 100 ~3 s.
    """

    @settings(max_examples=300, **_PROPERTY)
    @given(case=resume_cases())
    def test_fresh_resume_equals_the_uninterrupted_run(self, ten_clients, case):
        with tempfile.TemporaryDirectory() as tmp:
            path = Path(tmp) / "checkpoint.bin"
            result, engine, strategy = _run(ten_clients, case, case["cut"], path)
            engine.env.close()
            want = _result_observed(result, engine, strategy)
            # A resume with no file starts fresh, which would pass vacuously.
            assert path.exists()
            result, engine, strategy = _run(ten_clients, case, path=path, resume=True)
            engine.env.close()
        assert _result_observed(result, engine, strategy) == want

    @settings(max_examples=150, **_PROPERTY)
    @given(case=resume_cases())
    def test_resume_into_a_used_engine(self, ten_clients, case):
        """The finished run's own engine and strategy, sent back to the
        cut, run on to the same end: a resume replaces what they hold."""
        with tempfile.TemporaryDirectory() as tmp:
            path = Path(tmp) / "checkpoint.bin"
            result, engine, strategy = _run(ten_clients, case, case["cut"], path)
            try:
                history = result.history
                want = _result_observed(result, engine, strategy)
                next_round, *_ = engine.resume(path, strategy, history)
                assert next_round == case["cut"] + 1
                accuracy = engine.run(
                    strategy, case["n_rounds"] - case["cut"], history, next_round
                )
            finally:
                engine.env.close()
        assert _observed(engine, strategy, history, accuracy) == want

    @settings(max_examples=100, **_PROPERTY)
    @given(case=resume_cases(), data=st.data())
    def test_another_run_is_refused(self, ten_clients, case, data):
        """A file is refused by a run of another algorithm, another
        FedProx μ or another scenario."""
        change = data.draw(st.sampled_from(["algorithm", "mu", "scenario"]))
        case = dict(case, n_rounds=2)
        other = dict(case, n_rounds=3)
        if change == "algorithm":
            other["algorithm"] = data.draw(
                st.sampled_from(sorted(set(_ALGORITHMS) - {case["algorithm"]}))
            )
        elif change == "mu":
            case["algorithm"] = other["algorithm"] = "fedprox"
            case["kwargs"], other["kwargs"] = {"mu": 0.1}, {"mu": 0.5}
        else:
            other["scenario"] = data.draw(legal_scenarios())
            assume(other["scenario"].to_dict() != case["scenario"].to_dict())
        with tempfile.TemporaryDirectory() as tmp:
            path = Path(tmp) / "checkpoint.bin"
            _, engine, _ = _run(ten_clients, case, 2, path)
            engine.env.close()
            assert path.exists()
            with pytest.raises(CheckpointError, match="mismatch"):
                _run(ten_clients, other, path=path, resume=True)


def _spy(owner, name):
    """Patch ``owner.name`` with a mock that records each call and runs
    the original."""
    return mock.patch.object(
        owner, name, autospec=True, side_effect=getattr(owner, name)
    )


@pytest.mark.parametrize("algorithm", ["fedclust", "pacfl"])
def test_a_finished_one_shot_run_resumes_without_clustering_again(
    ten_clients, algorithm, tmp_path
):
    """A FedClust or PACFL run resumed from its own finished file trains
    no client and charges no traffic, and equals the uninterrupted run,
    the fitted clustering and the onboarded newcomer included: what the
    clustering round fitted is declared state, so a resume skips the
    round instead of redoing it for the file to overwrite."""
    observed = []
    for resume in (False, True):
        env = _env(ten_clients)
        scenario = ScenarioConfig(
            arrivals={9: 2}, checkpoint=CheckpointConfig(tmp_path, resume=resume)
        )
        with (
            _spy(RoundEngine, "run") as engine_run,
            _spy(FederatedEnv, "run_updates") as trained,
            _spy(CommunicationTracker, "record_upload") as uploads,
            _spy(CommunicationTracker, "record_download") as downloads,
        ):
            result = make_algorithm(algorithm, **_ALGORITHMS[algorithm]).run(
                env, 3, scenario=scenario
            )
        env.close()
        engine, strategy = engine_run.call_args.args[:2]
        fitted = result.extras.get("fitted")
        observed.append(
            _result_observed(result, engine, strategy)
            | _canon(
                {
                    "fitted": fitted
                    and [fitted.weight_matrix, fitted.responders, fitted.labels]
                }
            )
        )
    assert (trained.call_count, uploads.call_count, downloads.call_count) == (0, 0, 0)
    assert observed[1] == observed[0]
    if algorithm == "fedclust":
        assert observed[0]["onboarded"].keys() == {9}


@pytest.mark.parametrize("algorithm", sorted(_ALGORITHMS))
@pytest.mark.parametrize(
    "knobs",
    [
        dict(
            client_fraction=0.8,
            failure_rate=0.2,
            straggler_rate=0.2,
            arrivals={9: 2},
            staleness_decay=0.5,
            compute_budget=(1, 3),
            departures={8: 3},
            trace={7: [1, 3]},
            corruption=CorruptionConfig(rate=0.2),
            robust_agg="trimmed_mean",
            trim_fraction=0.2,
            norm_bound=5.0,
            min_survivors=2,
            max_retries=1,
        ),
        dict(
            client_fraction=0.8,
            failure_rate=0.2,
            arrivals={9: 2},
            staleness_decay=0.5,
            compute_budget=(1, 3),
            departures={8: 3},
            trace={7: [1, 3]},
            async_config=AsyncConfig(buffer_size=3, max_concurrency=6),
            corruption=CorruptionConfig(rate=0.2),
            robust_agg="coordinate_median",
            norm_bound=5.0,
        ),
    ],
    ids=["sync", "async"],
)
def test_field_tables_cover_every_attribute(ten_clients, algorithm, knobs, tmp_path):
    """Every attribute of the engine and of each strategy class is run
    state a checkpoint declares or a setting listed above: an attribute
    added to either fails here until it is classified."""
    case = dict(
        algorithm=algorithm,
        kwargs=None,
        scenario=ScenarioConfig(**knobs, checkpoint=CheckpointConfig(tmp_path)),
        executor="serial",
        store="sharded",
        n_rounds=4,
    )
    _, engine, strategy = _run(ten_clients, case)
    engine.env.close()
    assert (tmp_path / "checkpoint.bin").exists()
    assert set(vars(engine)) == set(RoundEngine.resumable) | _ENGINE_SETTINGS
    declared = set(type(strategy).resumable)
    assert set(vars(strategy)) - declared == _STRATEGY_SETTINGS[type(strategy).__name__]
