"""Loss functions: values and gradients."""

from __future__ import annotations

import numpy as np
import pytest

from repro.nn.functional import softmax
from repro.nn.loss import CrossEntropyLoss

from helpers import numerical_grad_entries, sample_indices


class TestCrossEntropy:
    def test_uniform_logits_value(self):
        loss = CrossEntropyLoss()
        logits = np.zeros((4, 10))
        value = loss.forward(logits, np.array([0, 3, 5, 9]))
        assert value == pytest.approx(np.log(10.0))

    def test_perfect_prediction_near_zero(self):
        loss = CrossEntropyLoss()
        logits = np.full((2, 3), -50.0)
        logits[0, 1] = 50.0
        logits[1, 2] = 50.0
        assert loss.forward(logits, np.array([1, 2])) < 1e-8

    def test_gradient_formula(self, rng):
        loss = CrossEntropyLoss()
        logits = rng.standard_normal((6, 5))
        targets = rng.integers(0, 5, size=6)
        loss.forward(logits, targets)
        grad = loss.backward()
        expected = softmax(logits, axis=1)
        expected[np.arange(6), targets] -= 1.0
        expected /= 6
        np.testing.assert_allclose(grad, expected, rtol=1e-8)

    def test_gradient_numerically(self, rng):
        logits = rng.standard_normal((3, 4))
        targets = np.array([1, 0, 3])

        def f() -> float:
            return CrossEntropyLoss().forward(logits, targets)

        loss = CrossEntropyLoss()
        loss.forward(logits, targets)
        analytic = loss.backward()
        idx = sample_indices(logits.shape, rng, max_entries=12)
        numeric = numerical_grad_entries(f, logits, idx)
        np.testing.assert_allclose(
            np.array([analytic[i] for i in idx]), numeric, rtol=1e-5, atol=1e-8
        )

    def test_gradient_rows_sum_to_zero(self, rng):
        loss = CrossEntropyLoss()
        logits = rng.standard_normal((5, 7))
        loss.forward(logits, rng.integers(0, 7, size=5))
        np.testing.assert_allclose(loss.backward().sum(axis=1), 0.0, atol=1e-10)

    def test_shape_validation(self):
        loss = CrossEntropyLoss()
        with pytest.raises(ValueError, match="logits"):
            loss.forward(np.zeros(3), np.zeros(3, dtype=int))
        with pytest.raises(ValueError, match="targets"):
            loss.forward(np.zeros((2, 3)), np.zeros(3, dtype=int))

    def test_backward_before_forward_raises(self):
        with pytest.raises(RuntimeError):
            CrossEntropyLoss().backward()

    def test_extreme_logits_finite(self):
        loss = CrossEntropyLoss()
        logits = np.array([[1e4, -1e4], [-1e4, 1e4]])
        value = loss.forward(logits, np.array([0, 1]))
        assert np.isfinite(value)
        assert np.isfinite(loss.backward()).all()
