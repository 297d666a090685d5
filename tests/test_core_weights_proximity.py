"""FedClust's partial-weight extraction and proximity construction."""

from __future__ import annotations

import numpy as np
import pytest
from scipy.spatial.distance import cdist

from repro.core.proximity import proximity_matrix
from repro.core.weights import (
    final_layer_keys,
    layer_index_keys,
    layer_keys,
    weight_matrix,
)
from repro.nn.models import lenet5, mlp


@pytest.fixture
def model(rng):
    return lenet5((1, 28, 28), 10, rng)


class TestKeySelection:
    def test_final_layer_keys(self, model):
        assert final_layer_keys(model) == ["classifier.weight", "classifier.bias"]

    def test_layer_keys(self, model):
        assert layer_keys(model, "conv1") == ["conv1.weight", "conv1.bias"]

    def test_layer_keys_unknown_raises(self, model):
        with pytest.raises(ValueError, match="not found"):
            layer_keys(model, "conv99")

    def test_layer_index_keys_match_paper_numbering(self, model):
        name1, keys1 = layer_index_keys(model, 1)
        assert name1 == "conv1"
        name5, keys5 = layer_index_keys(model, 5)
        assert name5 == "classifier"
        assert keys5 == final_layer_keys(model)

    def test_layer_index_out_of_range(self, model):
        with pytest.raises(ValueError, match="layer_index"):
            layer_index_keys(model, 6)
        with pytest.raises(ValueError, match="layer_index"):
            layer_index_keys(model, 0)


class TestWeightMatrix:
    def test_shape_and_content(self, model, rng):
        states = [model.state_dict() for _ in range(3)]
        states[1]["classifier.bias"] = states[1]["classifier.bias"] + 1.0
        w = weight_matrix(states, final_layer_keys(model))
        assert w.shape == (3, 84 * 10 + 10)
        # Row 1 differs from row 0 by exactly the bias bump.
        assert np.abs(w[1] - w[0]).sum() == pytest.approx(10.0, rel=1e-5)

    def test_empty_states_raise(self, model):
        with pytest.raises(ValueError, match="at least one"):
            weight_matrix([], final_layer_keys(model))

    def test_inconsistent_widths_raise(self, model, rng):
        other = mlp((1, 28, 28), 10, rng, hidden=(7,))
        with pytest.raises((ValueError, KeyError)):
            weight_matrix(
                [model.state_dict(), other.state_dict()],
                final_layer_keys(model),
            )


class TestProximity:
    def test_block_structure_survives(self, rng):
        w = np.vstack([rng.standard_normal((3, 8)) * 0.01,
                       rng.standard_normal((3, 8)) * 0.01 + 5.0])
        result = proximity_matrix(w)
        assert result.n_clients == 6
        within = result.matrix[:3, :3][np.triu_indices(3, 1)]
        between = result.matrix[:3, 3:]
        assert between.min() > within.max()

    def test_is_euclidean(self, rng):
        """The paper's proximity: Euclidean distance between uploads."""
        w = rng.standard_normal((5, 7))
        np.testing.assert_allclose(
            proximity_matrix(w).matrix, cdist(w, w), rtol=1e-8, atol=1e-10
        )

    def test_validation(self, rng):
        with pytest.raises(ValueError, match="at least 2"):
            proximity_matrix(rng.standard_normal((1, 4)))
        with pytest.raises(ValueError, match="\\(m, d\\)"):
            proximity_matrix(rng.standard_normal(4))
