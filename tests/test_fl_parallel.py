"""Parallel client executors: identical results across all backends."""

from __future__ import annotations

import numpy as np
import pytest

from repro.fl.aggregation import packed_weighted_average
from repro.fl.parallel import (
    ProcessClientExecutor,
    SerialClientExecutor,
    UpdateTask,
    make_executor,
)
from repro.fl.simulation import FederatedEnv


def _tasks(env):
    init = env.layout.pack(env.init_state())
    return [UpdateTask(cid, init) for cid in range(env.federation.n_clients)]


class TestExecutorEquivalence:
    @pytest.mark.slow
    def test_process_matches_serial(self, small_env):
        serial = SerialClientExecutor().run(small_env, _tasks(small_env), 1)
        proc_exec = ProcessClientExecutor(n_workers=2)
        try:
            processed = proc_exec.run(small_env, _tasks(small_env), 1)
        finally:
            proc_exec.close()
        for s, p in zip(serial, processed):
            np.testing.assert_allclose(s.flat, p.flat, rtol=1e-6, atol=1e-7)

    def test_serial_is_deterministic_across_calls(self, small_env):
        a = SerialClientExecutor().run(small_env, _tasks(small_env), 1)
        b = SerialClientExecutor().run(small_env, _tasks(small_env), 1)
        for ua, ub in zip(a, b):
            np.testing.assert_allclose(ua.flat, ub.flat, rtol=0, atol=0)

    def test_round_index_changes_stream(self, small_env):
        a = SerialClientExecutor().run(small_env, _tasks(small_env), 1)
        b = SerialClientExecutor().run(small_env, _tasks(small_env), 2)
        # Different round → different shuffling → (almost surely) different state.
        assert not np.allclose(a[0].flat, b[0].flat, rtol=1e-5, atol=1e-7)


class TestFlatTransportParity:
    """The flat transport changes no bits, whatever the executor.

    Each executor ships packed vectors (the process pool additionally
    wire-encodes them), so the guarantee under test is strict: the
    per-client flat updates AND the aggregated round result must be
    *byte-identical* across executor kinds.
    """

    @staticmethod
    def _round(env, executor, round_index=1):
        try:
            updates = executor.run(env, _tasks(env), round_index)
        finally:
            executor.close()
        vector = packed_weighted_average(
            np.stack([u.flat for u in updates]),
            [u.n_samples for u in updates],
        )
        return updates, vector

    def test_updates_carry_consistent_flat(self, small_env):
        updates, _ = self._round(small_env, SerialClientExecutor())
        for u in updates:
            assert u.flat.dtype == np.float64
            # The row is a packed model state: exact at the parameter dtypes.
            np.testing.assert_array_equal(u.flat, small_env.layout.round_trip(u.flat))

    @pytest.mark.slow
    def test_process_round_byte_identical(self, small_env):
        serial_updates, serial_vec = self._round(small_env, SerialClientExecutor())
        process_updates, process_vec = self._round(
            small_env, ProcessClientExecutor(n_workers=2)
        )
        for s, p in zip(serial_updates, process_updates):
            assert s.client_id == p.client_id
            assert s.mean_loss == p.mean_loss
            np.testing.assert_array_equal(s.flat, p.flat)
        np.testing.assert_array_equal(serial_vec, process_vec)

    @pytest.mark.slow
    def test_process_honors_train_cfg_set_after_fork(self, small_env):
        """Workers must use the round's config, not their forked snapshot.

        Regression test for the FedClust warm-up pattern: the pool forks
        on first use, and the parent later swaps ``env.train_cfg`` for a
        round.  The config now rides with each task, so the override must
        reach the workers (it used to be silently ignored — and worse,
        a pool forked *during* an override kept it forever).
        """
        import dataclasses

        tasks = _tasks(small_env)[:2]
        proc = ProcessClientExecutor(n_workers=2)
        try:
            proc.run(small_env, tasks, 1)  # pool forks with the original cfg
            override = dataclasses.replace(
                small_env.train_cfg, local_epochs=2, momentum=0.0
            )
            original = small_env.train_cfg
            small_env.train_cfg = override
            try:
                got = proc.run(small_env, tasks, 2)
                want = SerialClientExecutor().run(small_env, tasks, 2)
            finally:
                small_env.train_cfg = original
        finally:
            proc.close()
        for g, w in zip(got, want):
            np.testing.assert_array_equal(g.flat, w.flat)

    @pytest.mark.slow
    def test_process_prox_round_byte_identical(self, small_env):
        """FedProx's flat anchor must not perturb process-pool results."""
        init = small_env.layout.pack(small_env.init_state())
        tasks = [
            UpdateTask(cid, init, prox_mu=0.1)
            for cid in range(small_env.federation.n_clients)
        ]
        serial = SerialClientExecutor().run(small_env, tasks, 1)
        proc = ProcessClientExecutor(n_workers=2)
        try:
            processed = proc.run(small_env, tasks, 1)
        finally:
            proc.close()
        for s, p in zip(serial, processed):
            np.testing.assert_array_equal(s.flat, p.flat)


class TestEnvDispatch:
    def test_run_updates_rejects_duplicates(self, small_env):
        init = small_env.layout.pack(small_env.init_state())
        with pytest.raises(ValueError, match="duplicate"):
            small_env.run_updates(
                [UpdateTask(0, init), UpdateTask(0, init)], 1
            )

    def test_run_updates_rejects_bad_ids(self, small_env):
        init = small_env.layout.pack(small_env.init_state())
        with pytest.raises(ValueError, match="out of range"):
            small_env.run_updates([UpdateTask(99, init)], 1)

    def test_empty_tasks_ok(self, small_env):
        assert small_env.run_updates([], 1) == []


class TestFactory:
    def test_kinds(self):
        assert isinstance(make_executor("serial"), SerialClientExecutor)
        ex = make_executor("process", n_workers=2)
        assert isinstance(ex, ProcessClientExecutor)
        ex.close()

    def test_unknown_raises(self):
        options = r"\['batched', 'process', 'serial'\]"
        for kind in ("gpu", "thread"):
            message = f"unknown executor '{kind}'; options: {options}"
            with pytest.raises(ValueError, match=message):
                make_executor(kind)

    def test_invalid_workers(self):
        with pytest.raises(ValueError):
            ProcessClientExecutor(n_workers=0)


class TestEnvBasics:
    def test_init_state_is_copy(self, small_env):
        a = small_env.init_state()
        a_key = next(iter(a))
        a[a_key][...] = 1e9
        b = small_env.init_state()
        assert not np.allclose(b[a_key], 1e9)

    def test_make_model_deterministic(self, small_env):
        m1 = small_env.make_model()
        m2 = small_env.make_model()
        for (_, p1), (_, p2) in zip(m1.named_parameters(), m2.named_parameters()):
            np.testing.assert_array_equal(p1.data, p2.data)

    def test_final_layer_keys(self, small_env):
        assert small_env.final_layer == "classifier"
        assert small_env.final_layer_keys == ["classifier.weight", "classifier.bias"]

    def test_context_manager_closes(self, planted_federation, fast_train_cfg):
        with FederatedEnv(
            planted_federation,
            model_name="cnn_small",
            model_kwargs={"width": 4, "fc_dim": 16},
            train_cfg=fast_train_cfg,
            executor=ProcessClientExecutor(n_workers=2),
        ) as env:
            env.run_updates(_tasks(env)[:2], 1)
        # pool shut down without error
