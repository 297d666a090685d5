"""Loss functions: values and gradients."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.nn.batched import BatchedCrossEntropyLoss
from repro.nn.functional import log_softmax, one_hot, softmax
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


# ----------------------------------------------------------------------
# The kept-exponentials losses against the formulas they replace
# ----------------------------------------------------------------------
def _logits(seed: int, shape: tuple, scale: float, dtype) -> np.ndarray:
    rng = np.random.default_rng(seed)
    return (rng.standard_normal(shape) * scale).astype(dtype)


def _reference_serial(logits, targets):
    """``log_softmax`` pick-and-mean, and ``(softmax - one_hot) / N``."""
    n, c = logits.shape
    value = float(-log_softmax(logits, axis=1)[np.arange(n), targets].mean())
    grad = softmax(logits, axis=1)
    grad -= one_hot(targets, c, dtype=grad.dtype)
    grad /= n
    return value, grad.astype(logits.dtype)


def _reference_batched(logits, targets, weights):
    """Weighted ``log_softmax`` picks, and ``(softmax - one_hot) × weights``."""
    log_probs = log_softmax(logits, axis=2)
    picked = np.take_along_axis(log_probs, targets[:, :, None], axis=2)[:, :, 0]
    grad = softmax(logits, axis=2)
    grad -= one_hot(
        targets.reshape(-1), logits.shape[2], dtype=grad.dtype
    ).reshape(grad.shape)
    grad *= weights[:, :, None]
    return -(picked * weights).sum(axis=1), grad.astype(logits.dtype, copy=False)


def _same_bytes(a: np.ndarray, b: np.ndarray) -> None:
    assert a.dtype == b.dtype and a.shape == b.shape
    assert a.tobytes() == b.tobytes()


_dtypes = st.sampled_from([np.float32, np.float64])
_scales = st.floats(0.1, 100.0)


class TestKeptExponentials:
    """Both losses keep the forward's exponentials and row sums for the
    backward; value and gradient must equal the recomputing formulas to
    the byte."""

    @given(
        n=st.integers(1, 64),
        c=st.integers(2, 12),
        dtype=_dtypes,
        scale=_scales,
        seed=st.integers(0, 2**32 - 1),
    )
    @settings(max_examples=1500, deadline=None)
    def test_serial_matches_reference(self, n, c, dtype, scale, seed):
        logits = _logits(seed, (n, c), scale, dtype)
        targets = np.random.default_rng(seed + 1).integers(0, c, n)
        ref_value, ref_grad = _reference_serial(logits, targets)
        loss = CrossEntropyLoss()
        value = loss.forward(logits, targets)
        assert np.float64(value).tobytes() == np.float64(ref_value).tobytes()
        _same_bytes(loss.backward(), ref_grad)

    @given(
        clients=st.integers(1, 4),
        width=st.integers(1, 64),
        c=st.integers(2, 12),
        dtype=_dtypes,
        scale=_scales,
        client_axis_last=st.booleans(),
        seed=st.integers(0, 2**32 - 1),
    )
    @settings(max_examples=1500, deadline=None)
    def test_batched_matches_reference(
        self, clients, width, c, dtype, scale, client_axis_last, seed
    ):
        rng = np.random.default_rng(seed + 1)
        logits = _logits(seed, (clients, width, c), scale, dtype)
        if client_axis_last:
            # A lockstep forward's einsum may hand back logits in another
            # memory order; the values and results must not depend on it.
            logits = np.ascontiguousarray(logits.transpose(1, 2, 0)).transpose(2, 0, 1)
        targets = rng.integers(0, c, (clients, width))
        # Ragged lockstep: client i has n_real[i] real rows, weighted
        # 1 / n_real, and zero-weight padding below them.
        n_real = rng.integers(1, width + 1, clients)
        weights = np.zeros((clients, width), dtype=np.float32)
        for i, m in enumerate(n_real):
            weights[i, :m] = 1.0 / m
        ref_losses, ref_grad = _reference_batched(logits, targets, weights)
        loss = BatchedCrossEntropyLoss()
        _same_bytes(loss.forward(logits, targets, weights), ref_losses)
        _same_bytes(loss.backward(), ref_grad)

    @pytest.mark.parametrize("bad", [-1, 4])
    def test_out_of_range_target_raises(self, bad):
        # A negative target would otherwise wrap around under indexing.
        logits = np.zeros((3, 4), dtype=np.float32)
        with pytest.raises(ValueError, match=r"\[0, 4\)"):
            CrossEntropyLoss().forward(logits, np.array([0, bad, 1]))
        with pytest.raises(ValueError, match=r"\[0, 4\)"):
            BatchedCrossEntropyLoss().forward(
                logits[None], np.array([[0, bad, 1]]), np.ones((1, 3), np.float32)
            )
