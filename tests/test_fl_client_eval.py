"""Client local training and the evaluation protocol."""

from __future__ import annotations

import hashlib

import numpy as np
import pytest

from repro.data.synthetic import make_dataset
from repro.fl.client import local_train, run_client_update_flat
from repro.fl.config import TrainConfig
from repro.fl.evaluation import evaluate_model, mean_local_accuracy
from repro.nn.models import lenet5, mlp
from repro.nn.state_flat import StateLayout

#: (mean loss, sha256 of the packed final state) after four momentum-SGD
#: steps of the serial kernel; see TestLocalTrain.test_serial_kernel_pin.
_SERIAL_PINS = {
    "lenet5": (
        3.3232444524765015,
        "e075a5d5f9d9e2816ebbff2536020bf28304f96ed88ddfa33a2c7789f40d6392",
    ),
    "mlp": (
        2.4404436647892,
        "5ebee055773cd12913af5aed285e231d496932daf5dd0a1e25d30f1995766bf6",
    ),
}


@pytest.fixture
def tiny_dataset():
    return make_dataset("fmnist", 120, 3, noise_std=0.2)


@pytest.fixture
def model(rng):
    return mlp((1, 28, 28), 10, rng, hidden=(16,))


class TestLocalTrain:
    def test_reduces_loss(self, model, tiny_dataset, rng):
        cfg = TrainConfig(local_epochs=1, batch_size=32, lr=0.1, momentum=0.0)
        first, _ = local_train(model, tiny_dataset, cfg, np.random.default_rng(0))
        for _ in range(4):
            last, _ = local_train(model, tiny_dataset, cfg, np.random.default_rng(0))
        assert last < first

    def test_batch_count(self, model, tiny_dataset):
        cfg = TrainConfig(local_epochs=2, batch_size=40)
        _, n = local_train(model, tiny_dataset, cfg, np.random.default_rng(0))
        assert n == 2 * 3  # 120 samples / 40 per batch × 2 epochs

    def test_max_steps_cap(self, model, tiny_dataset):
        cfg = TrainConfig(local_epochs=10, batch_size=40, max_steps=5)
        _, n = local_train(model, tiny_dataset, cfg, np.random.default_rng(0))
        assert n == 5

    def test_max_batches_cap(self, model, tiny_dataset):
        cfg = TrainConfig(local_epochs=2, batch_size=10, max_batches=3)
        _, n = local_train(model, tiny_dataset, cfg, np.random.default_rng(0))
        assert n == 6  # 3 per epoch × 2

    def test_batch_size_shrinks_to_dataset(self, model, tiny_dataset):
        small = tiny_dataset.subset(np.arange(5))
        cfg = TrainConfig(local_epochs=1, batch_size=512)
        _, n = local_train(model, small, cfg, np.random.default_rng(0))
        assert n == 1

    def test_empty_dataset_raises(self, model, tiny_dataset):
        cfg = TrainConfig()
        with pytest.raises(ValueError, match="empty"):
            local_train(
                model, tiny_dataset.subset(np.array([], dtype=int)), cfg,
                np.random.default_rng(0),
            )

    def test_prox_pulls_toward_anchor(self, model, tiny_dataset):
        """With a strong (but stable, lr*mu < 1) proximal term, weights
        stay closer to the incoming state than free SGD drifts."""
        cfg = TrainConfig(local_epochs=1, batch_size=32, lr=0.05, momentum=0.0)
        start = model.state_dict()
        layout = StateLayout.from_state(start)
        local_train(model, tiny_dataset, cfg, np.random.default_rng(0), prox_mu=0.0)
        free_drift = sum(
            float(np.abs(model.state_dict()[k] - start[k]).sum()) for k in start
        )
        model.load_state_dict(start)
        local_train(
            model,
            tiny_dataset,
            cfg,
            np.random.default_rng(0),
            prox_mu=10.0,
            anchor_flat=layout.pack(start),
            layout=layout,
        )
        prox_drift = sum(
            float(np.abs(model.state_dict()[k] - start[k]).sum()) for k in start
        )
        assert prox_drift < free_drift

    @pytest.mark.parametrize("arch", sorted(_SERIAL_PINS))
    def test_serial_kernel_pin(self, arch):
        """The serial kernel trains conv and MLP models to the bit.

        The table-I pins run an MLP, so this is the one exact pin on
        conv training: any reordered float operation in the serial
        forward, backward or optimiser step changes the hash.
        """
        rng = np.random.default_rng(3)
        if arch == "lenet5":
            model = lenet5((3, 32, 32), 10, rng)
        else:
            model = mlp((3, 32, 32), 10, rng, hidden=(32,))
        data = make_dataset("cifar10", 64, 1)
        cfg = TrainConfig(local_epochs=1, batch_size=16, lr=0.05, momentum=0.9)
        loss, steps = local_train(model, data, cfg, np.random.default_rng(4))
        state = model.state_dict()
        digest = hashlib.sha256(
            StateLayout.from_state(state).pack(state).tobytes()
        ).hexdigest()
        assert steps == 4
        assert (loss, digest) == _SERIAL_PINS[arch]


class TestRunClientUpdate:
    def test_returns_new_state(self, model, tiny_dataset):
        cfg = TrainConfig(local_epochs=1, batch_size=32)
        layout = StateLayout.from_model(model)
        incoming = layout.pack(model.state_dict())
        update = run_client_update_flat(
            model, 3, tiny_dataset, incoming, layout, cfg, np.random.default_rng(0)
        )
        assert update.client_id == 3
        assert update.n_samples == len(tiny_dataset)
        assert update.n_batches > 0
        # State advanced away from the incoming state.
        assert not np.allclose(update.flat, incoming)

    def test_deterministic_given_rng(self, model, tiny_dataset):
        cfg = TrainConfig(local_epochs=1, batch_size=32)
        layout = StateLayout.from_model(model)
        incoming = layout.pack(model.state_dict())
        a = run_client_update_flat(
            model, 0, tiny_dataset, incoming, layout, cfg, np.random.default_rng(42)
        )
        b = run_client_update_flat(
            model, 0, tiny_dataset, incoming, layout, cfg, np.random.default_rng(42)
        )
        np.testing.assert_array_equal(a.flat, b.flat)


class TestEvaluation:
    def test_accuracy_bounds(self, model, tiny_dataset):
        result = evaluate_model(model, tiny_dataset)
        assert 0.0 <= result.accuracy <= 1.0
        assert result.n_samples == len(tiny_dataset)
        assert result.n_correct == int(result.accuracy * result.n_samples)

    def test_batched_equals_full(self, model, tiny_dataset):
        full = evaluate_model(model, tiny_dataset, batch_size=4096)
        batched = evaluate_model(model, tiny_dataset, batch_size=7)
        assert full.accuracy == batched.accuracy
        assert full.loss == pytest.approx(batched.loss, rel=1e-6)

    def test_restores_training_mode(self, model, tiny_dataset):
        model.train()
        evaluate_model(model, tiny_dataset)
        assert model.training
        model.eval()
        evaluate_model(model, tiny_dataset)
        assert not model.training

    def test_trained_model_beats_chance(self, model, tiny_dataset):
        cfg = TrainConfig(local_epochs=12, batch_size=32, lr=0.1, momentum=0.9)
        local_train(model, tiny_dataset, cfg, np.random.default_rng(0))
        result = evaluate_model(model, tiny_dataset)
        assert result.accuracy > 0.4  # train accuracy ≫ 10% chance

    def test_mean_local_accuracy(self, model, tiny_dataset, rng):
        half = len(tiny_dataset) // 2
        sets = [
            tiny_dataset.subset(np.arange(half)),
            tiny_dataset.subset(np.arange(half, len(tiny_dataset))),
        ]
        state = model.state_dict()
        mean, per_client = mean_local_accuracy(model, [state, state], sets)
        assert per_client.shape == (2,)
        assert mean == pytest.approx(per_client.mean())

    def test_mean_local_accuracy_validation(self, model, tiny_dataset):
        with pytest.raises(ValueError, match="states"):
            mean_local_accuracy(model, [model.state_dict()], [])
