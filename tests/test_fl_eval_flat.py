"""Grouped/fused evaluation on the flat plane vs the reference loop.

The contract under test (see ``repro.fl.eval_flat``): per-client
*accuracies* from the grouped path are bit-identical to the serial
per-client reference loop for every grouping shape; *losses* agree to
float64 round-off (same sum, different order); model training mode is
restored through the fused path; and the packed entry point never
materialises a state dict.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.algorithms.base import fedavg_round_flat
from repro.fl.eval_flat import (
    evaluate_grouped,
    evaluate_packed,
    fused_evaluate,
    group_by_identity,
    mean_local_accuracy_grouped,
    members_of_labels,
)
from repro.fl.evaluation import evaluate_model, mean_local_accuracy
from repro.nn.models import mlp
from repro.nn.state_flat import StateLayout, pack_state, pack_states, unpack_state
from repro.data.synthetic import make_dataset


@pytest.fixture
def model(rng):
    return mlp((1, 28, 28), 10, rng, hidden=(16,))


@pytest.fixture
def layout(model):
    return StateLayout.from_model(model)


@pytest.fixture
def datasets():
    """Four small sets with sizes that straddle batch boundaries."""
    pool = make_dataset("fmnist", 120, 3, noise_std=0.2)
    cuts = [(0, 17), (17, 47), (47, 52), (52, 120)]  # sizes 17, 30, 5, 68
    return [pool.subset(np.arange(lo, hi)) for lo, hi in cuts]


def _perturbed_states(model, rng, n):
    base = model.state_dict(copy=True)
    return [
        {
            k: v + rng.standard_normal(v.shape).astype(v.dtype) * 0.1
            for k, v in base.items()
        }
        for _ in range(n)
    ]


# ----------------------------------------------------------------------
# Module.load_flat
# ----------------------------------------------------------------------
class TestLoadFlat:
    def test_bit_identical_to_dict_load(self, model, layout, rng):
        vector = rng.standard_normal(layout.n_params)
        reference = mlp((1, 28, 28), 10, np.random.default_rng(1), hidden=(16,))
        reference.load_state_dict(unpack_state(vector, layout))
        model.load_flat(vector, layout)
        for (_, a), (_, b) in zip(
            model.named_parameters(), reference.named_parameters()
        ):
            np.testing.assert_array_equal(a.data, b.data)
            assert a.data.dtype == b.data.dtype

    def test_round_trip(self, model, layout):
        state = model.state_dict(copy=True)
        model.load_flat(pack_state(state, layout), layout)
        for k, v in model.state_dict().items():
            np.testing.assert_array_equal(v, state[k])

    def test_rejects_wrong_length(self, model, layout):
        with pytest.raises(ValueError, match="shape"):
            model.load_flat(np.zeros(layout.n_params + 1), layout)

    def test_rejects_foreign_layout(self, model, rng):
        other = mlp((1, 28, 28), 10, rng, hidden=(16, 8))
        foreign = StateLayout.from_model(other)
        with pytest.raises(KeyError, match="layout mismatch"):
            model.load_flat(np.zeros(foreign.n_params), foreign)


# ----------------------------------------------------------------------
# fused_evaluate: one model, many datasets, shared batches
# ----------------------------------------------------------------------
class TestFusedEvaluate:
    def test_matches_reference_per_dataset(self, model, datasets):
        fused = fused_evaluate(model, datasets, batch_size=512)
        for i, dataset in enumerate(datasets):
            ref = evaluate_model(model, dataset, batch_size=512)
            assert fused.accuracy[i] == ref.accuracy
            assert fused.n_correct[i] == ref.n_correct
            assert fused.n_samples[i] == ref.n_samples
            # Same sum, different order *and* accumulator width (the
            # reference loop averages within a batch in float32).
            assert fused.loss[i] == pytest.approx(ref.loss, rel=1e-6)

    @pytest.mark.parametrize("batch_size", [1, 7, 16, 64, 4096])
    def test_batch_boundaries(self, model, datasets, batch_size):
        """Set sizes (17, 30, 5, 68) are not multiples of any of these;
        batches span client boundaries and truncate at the tail."""
        fused = fused_evaluate(model, datasets, batch_size=batch_size)
        ref = fused_evaluate(model, datasets, batch_size=512)
        np.testing.assert_array_equal(fused.n_correct, ref.n_correct)
        np.testing.assert_allclose(fused.loss, ref.loss, rtol=1e-6)

    def test_single_dataset_matches_evaluate_model(self, model, datasets):
        fused = fused_evaluate(model, [datasets[3]], batch_size=32)
        ref = evaluate_model(model, datasets[3], batch_size=32)
        assert fused.accuracy[0] == ref.accuracy
        assert fused.mean_accuracy == ref.accuracy

    def test_restores_training_mode(self, model, datasets):
        model.train()
        fused_evaluate(model, datasets, batch_size=64)
        assert model.training
        model.eval()
        fused_evaluate(model, datasets, batch_size=64)
        assert not model.training

    def test_empty_dataset_rejected(self, model, datasets):
        empty = datasets[0].subset(np.array([], dtype=np.int64))
        with pytest.raises(ValueError, match="empty"):
            fused_evaluate(model, [datasets[0], empty])

    def test_no_datasets_rejected(self, model):
        with pytest.raises(ValueError, match="at least one"):
            fused_evaluate(model, [])

    @pytest.mark.parametrize("batch_size", [0, -1])
    def test_nonpositive_batch_size_rejected(self, model, datasets, batch_size):
        with pytest.raises(ValueError, match="batch_size"):
            fused_evaluate(model, datasets, batch_size=batch_size)


# ----------------------------------------------------------------------
# Grouping
# ----------------------------------------------------------------------
class TestGrouping:
    def test_identity_dedup_shared(self, model):
        state = model.state_dict()
        distinct, labels = group_by_identity([state] * 5)
        assert len(distinct) == 1
        np.testing.assert_array_equal(labels, np.zeros(5, dtype=np.int64))

    def test_identity_dedup_distinct(self, model, rng):
        states = _perturbed_states(model, rng, 3)
        distinct, labels = group_by_identity(states)
        assert len(distinct) == 3
        np.testing.assert_array_equal(labels, np.arange(3))

    def test_identity_dedup_mixed(self, model, rng):
        a, b = _perturbed_states(model, rng, 2)
        distinct, labels = group_by_identity([a, b, a, b, a])
        assert len(distinct) == 2
        np.testing.assert_array_equal(labels, [0, 1, 0, 1, 0])

    def test_members_of_labels_validates_range(self):
        with pytest.raises(ValueError, match="outside"):
            members_of_labels(np.array([0, 2]), 2)
        with pytest.raises(ValueError, match="1-D"):
            members_of_labels(np.zeros((2, 2), dtype=np.int64), 2)


# ----------------------------------------------------------------------
# Grouped evaluation vs the per-client reference loop — every grouping
# shape must be bit-identical on accuracies.
# ----------------------------------------------------------------------
class TestGroupedVsLoop:
    @pytest.fixture
    def setup(self, model, rng, datasets):
        states = _perturbed_states(model, rng, 3)
        return model, states, datasets

    def _reference(self, model, per_client_states, datasets):
        return mean_local_accuracy(model, per_client_states, datasets, batch_size=64)

    def test_all_same_state(self, setup):
        model, states, datasets = setup
        labels = np.zeros(len(datasets), dtype=np.int64)
        mean, accs = evaluate_grouped(model, [states[0]], labels, datasets, 64)
        ref_mean, ref_accs = self._reference(model, [states[0]] * 4, datasets)
        np.testing.assert_array_equal(accs, ref_accs)
        assert mean == ref_mean

    def test_one_state_per_client(self, setup):
        model, states, datasets = setup
        per_client = _perturbed_states(model, np.random.default_rng(9), 4)
        labels = np.arange(4, dtype=np.int64)
        mean, accs = evaluate_grouped(model, per_client, labels, datasets, 64)
        ref_mean, ref_accs = self._reference(model, per_client, datasets)
        np.testing.assert_array_equal(accs, ref_accs)
        assert mean == ref_mean

    def test_cluster_labels_with_empty_cluster(self, setup):
        """Labels use clusters {0, 2} of 3 — cluster 1 is never loaded."""
        model, states, datasets = setup
        labels = np.array([0, 2, 0, 2], dtype=np.int64)
        mean, accs = evaluate_grouped(model, states, labels, datasets, 64)
        ref_mean, ref_accs = self._reference(
            model, [states[g] for g in labels], datasets
        )
        np.testing.assert_array_equal(accs, ref_accs)
        assert mean == ref_mean

    def test_packed_rows_match(self, setup):
        model, states, datasets = setup

        class _Env:  # duck-typed FederatedEnv for evaluate_packed
            pass

        env = _Env()
        env.scratch_model = model
        env.layout = StateLayout.from_model(model)

        class _C:
            def __init__(self, test):
                self.test = test

        class _F:
            pass

        env.federation = _F()
        env.federation.clients = [_C(d) for d in datasets]
        labels = np.array([0, 1, 2, 1], dtype=np.int64)
        matrix, _ = pack_states(states, env.layout)
        mean, accs = evaluate_packed(env, matrix, labels, batch_size=64)
        ref_mean, ref_accs = self._reference(
            model, [states[g] for g in labels], datasets
        )
        np.testing.assert_array_equal(accs, ref_accs)
        assert mean == ref_mean
        # A single packed vector is accepted as shape (n_params,).
        one = pack_state(states[0], env.layout)
        mean1, accs1 = evaluate_packed(
            env, one, np.zeros(4, dtype=np.int64), batch_size=64
        )
        ref1_mean, ref1_accs = self._reference(model, [states[0]] * 4, datasets)
        np.testing.assert_array_equal(accs1, ref1_accs)

    def test_grouped_validation(self, setup):
        model, states, datasets = setup
        with pytest.raises(ValueError, match="labels"):
            evaluate_grouped(model, states, np.zeros(2, dtype=np.int64), datasets, 64)
        with pytest.raises(ValueError, match="outside"):
            evaluate_grouped(
                model, states, np.full(4, 7, dtype=np.int64), datasets, 64
            )

    def test_compat_signature_validation(self, model, datasets):
        with pytest.raises(ValueError, match="states"):
            mean_local_accuracy_grouped(model, [model.state_dict()], datasets)


# ----------------------------------------------------------------------
# Environment wiring: the tier-1 drift gate on a tiny federation.
# ----------------------------------------------------------------------
class TestEnvGroupedEval:
    def test_compat_view_bit_identical(self, small_env, rng):
        """env.mean_local_accuracy (fused) vs the serial reference loop —
        the fast gate that makes perf-path drift fail the suite."""
        states = _perturbed_states(small_env.scratch_model, rng, 3)
        m = small_env.federation.n_clients
        per_client = [states[i % 3] for i in range(m)]
        testsets = [c.test for c in small_env.federation.clients]
        got_mean, got = small_env.mean_local_accuracy(per_client)
        ref_mean, ref = mean_local_accuracy(
            small_env.scratch_model,
            per_client,
            testsets,
            batch_size=small_env.train_cfg.eval_batch_size,
        )
        np.testing.assert_array_equal(got, ref)
        assert got_mean == ref_mean

    def test_evaluate_assignment_bit_identical(self, small_env, rng):
        states = _perturbed_states(small_env.scratch_model, rng, 2)
        m = small_env.federation.n_clients
        labels = np.arange(m, dtype=np.int64) % 2
        testsets = [c.test for c in small_env.federation.clients]
        got_mean, got = small_env.evaluate_assignment(states, labels)
        ref_mean, ref = mean_local_accuracy(
            small_env.scratch_model,
            [states[g] for g in labels],
            testsets,
            batch_size=small_env.train_cfg.eval_batch_size,
        )
        np.testing.assert_array_equal(got, ref)
        assert got_mean == ref_mean

    def test_env_evaluate_packed(self, small_env, rng):
        states = _perturbed_states(small_env.scratch_model, rng, 2)
        m = small_env.federation.n_clients
        labels = np.arange(m, dtype=np.int64) % 2
        matrix, _ = pack_states(states, small_env.layout)
        got_mean, got = small_env.evaluate_packed(matrix, labels)
        ref_mean, ref = small_env.evaluate_assignment(states, labels)
        np.testing.assert_array_equal(got, ref)
        assert got_mean == ref_mean

    def test_packed_validation(self, small_env):
        m = small_env.federation.n_clients
        with pytest.raises(ValueError, match="columns"):
            small_env.evaluate_packed(
                np.zeros((2, 3)), np.zeros(m, dtype=np.int64)
            )


# ----------------------------------------------------------------------
# IFCA fused assignment: parity with the retired per-client probe loop
# ----------------------------------------------------------------------
class TestIFCAFusedAssign:
    def test_assignments_match_per_client_loop(self, small_env, rng):
        """The fused probe sums float64 per-sample NLLs where the old
        loop accumulated float32 per-batch means — losses agree to
        float32 round-off and, on the seeded config we ship, every
        client's argmin cluster comes out identical."""
        from repro.algorithms.ifca import IFCA

        env = small_env
        algo = IFCA(n_clusters=2)
        states = algo._initial_matrix(env)  # packed rows (flat plane)
        m = env.federation.n_clients
        fused_labels = algo._assign(env, states, np.arange(m))
        cap = algo.assignment_batches * env.train_cfg.batch_size
        losses = np.zeros((m, algo.n_clusters))
        for j, state in enumerate(states):
            env.scratch_model.load_flat(state, env.layout)
            for cid in range(m):
                train = env.federation.clients[cid].train
                probe = train if len(train) <= cap else train.subset(np.arange(cap))
                losses[cid, j] = evaluate_model(
                    env.scratch_model,
                    probe,
                    batch_size=env.train_cfg.eval_batch_size,
                ).loss
        np.testing.assert_array_equal(fused_labels, losses.argmin(axis=1))

        probes = [
            env.federation.clients[cid].train
            if len(env.federation.clients[cid].train) <= cap
            else env.federation.clients[cid].train.subset(np.arange(cap))
            for cid in range(m)
        ]
        for j, state in enumerate(states):
            env.scratch_model.load_flat(state, env.layout)
            fused = fused_evaluate(
                env.scratch_model, probes, batch_size=env.train_cfg.eval_batch_size
            )
            np.testing.assert_allclose(fused.loss, losses[:, j], rtol=1e-6)


# ----------------------------------------------------------------------
# CFL flat-plane deltas: parity with the retired dict path
# ----------------------------------------------------------------------
class TestCFLFlatDeltas:
    def test_split_decisions_match_dict_path(self, small_env):
        """Δ on the flat plane (float64 subtraction over the packed
        cohort) vs the dict path (float32 per-key subtraction, then
        flatten): norms agree to float32 round-off and — on the seeded
        config we ship — the bipartition and both split-criterion
        comparisons come out identical."""
        from repro.algorithms.cfl import CFL
        from repro.nn.state import flatten_state

        env = small_env
        members = np.arange(env.federation.n_clients)
        incoming = env.init_state()
        vector = env.layout.pack(incoming)
        _, _, updates = fedavg_round_flat(env, vector, members, round_index=1)

        flat_deltas = np.subtract(
            np.stack([u.flat for u in updates]), vector, dtype=np.float64
        )
        dict_deltas = np.stack(
            [
                flatten_state(
                    {
                        k: v - incoming[k]
                        for k, v in unpack_state(u.flat, env.layout).items()
                    }
                )
                for u in updates
            ]
        )
        np.testing.assert_allclose(flat_deltas, dict_deltas, rtol=1e-5, atol=1e-6)

        weights = np.array([u.n_samples for u in updates], dtype=np.float64)
        weights /= weights.sum()
        stats = {}
        for name, deltas in [("flat", flat_deltas), ("dict", dict_deltas)]:
            mean_norm = float(np.linalg.norm(weights @ deltas))
            max_norm = float(np.linalg.norm(deltas, axis=1).max())
            left, right = CFL._bipartition(deltas)
            stats[name] = (mean_norm, max_norm, left, right)

        f_mean, f_max, f_left, f_right = stats["flat"]
        d_mean, d_max, d_left, d_right = stats["dict"]
        assert f_mean == pytest.approx(d_mean, rel=1e-5)
        assert f_max == pytest.approx(d_max, rel=1e-5)
        np.testing.assert_array_equal(f_left, d_left)
        np.testing.assert_array_equal(f_right, d_right)
        # The two-threshold criterion itself (relative mode, shipped
        # defaults) decides the same way under either delta dtype.
        algo = CFL()
        for mean_norm, max_norm in [(f_mean, f_max), (d_mean, d_max)]:
            assert (mean_norm / max_norm < algo.eps1) == (
                d_mean / d_max < algo.eps1
            )
            assert (max_norm > algo.eps2 * f_max) == (d_max > algo.eps2 * d_max)
