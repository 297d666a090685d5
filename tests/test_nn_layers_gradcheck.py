"""Numerical gradient checks for every layer.

These are the load-bearing tests of the nn substrate: a layer whose
backward pass disagrees with central differences would silently corrupt
every experiment built on top.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.nn.layers import Conv2d, Flatten, Linear, MaxPool2d, ReLU
from repro.nn.module import Sequential

from helpers import check_module_gradients, to_float64


def _x(rng: np.random.Generator, *shape: int) -> np.ndarray:
    return rng.standard_normal(shape)


class TestLinearGrad:
    def test_with_bias(self, rng):
        layer = to_float64(Linear(7, 5, rng))
        check_module_gradients(layer, _x(rng, 6, 7), rng)

    def test_without_bias(self, rng):
        layer = to_float64(Linear(4, 3, rng, bias=False))
        check_module_gradients(layer, _x(rng, 5, 4), rng)

    def test_single_sample(self, rng):
        layer = to_float64(Linear(3, 2, rng))
        check_module_gradients(layer, _x(rng, 1, 3), rng)


class TestConv2dGrad:
    def test_basic(self, rng):
        layer = to_float64(Conv2d(2, 3, 3, rng))
        check_module_gradients(layer, _x(rng, 2, 2, 6, 6), rng)

    def test_with_padding(self, rng):
        layer = to_float64(Conv2d(1, 2, 3, rng, padding=1))
        check_module_gradients(layer, _x(rng, 2, 1, 5, 5), rng)

    def test_with_stride(self, rng):
        layer = to_float64(Conv2d(2, 2, 3, rng, stride=2))
        check_module_gradients(layer, _x(rng, 2, 2, 7, 7), rng)

    def test_stride_and_padding(self, rng):
        layer = to_float64(Conv2d(1, 3, 5, rng, stride=2, padding=2))
        check_module_gradients(layer, _x(rng, 2, 1, 8, 8), rng)

    def test_no_bias(self, rng):
        layer = to_float64(Conv2d(2, 2, 3, rng, bias=False))
        check_module_gradients(layer, _x(rng, 1, 2, 5, 5), rng)

    def test_1x1_kernel(self, rng):
        layer = to_float64(Conv2d(3, 4, 1, rng))
        check_module_gradients(layer, _x(rng, 2, 3, 4, 4), rng)


class TestPoolGrad:
    def test_maxpool_nonoverlapping(self, rng):
        check_module_gradients(MaxPool2d(2), _x(rng, 2, 3, 6, 6), rng)

    def test_maxpool_overlapping(self, rng):
        # stride < kernel: overlapping windows must accumulate gradients.
        check_module_gradients(MaxPool2d(3, stride=1), _x(rng, 2, 2, 6, 6), rng)


class TestActivationGrad:
    def test_relu(self, rng):
        # Shift away from 0 to avoid the kink in the numerical check.
        x = _x(rng, 4, 6)
        x[np.abs(x) < 0.05] += 0.2
        check_module_gradients(ReLU(), x, rng)

    def test_flatten(self, rng):
        check_module_gradients(Flatten(), _x(rng, 3, 2, 4, 4), rng)


class TestStackedGrad:
    """A small conv net end to end: the composition must also check out."""

    def test_conv_stack(self, rng):
        model = Sequential(
            ("conv", Conv2d(1, 2, 3, rng, padding=1)),
            ("act", ReLU()),
            ("pool", MaxPool2d(2)),
            ("flat", Flatten()),
            ("fc", Linear(2 * 3 * 3, 4, rng)),
        )
        to_float64(model)
        check_module_gradients(model, _x(rng, 2, 1, 6, 6), rng)

    def test_mlp_stack(self, rng):
        model = Sequential(
            ("flat", Flatten()),
            ("fc1", Linear(12, 8, rng)),
            ("act", ReLU()),
            ("fc2", Linear(8, 3, rng)),
        )
        to_float64(model)
        check_module_gradients(model, _x(rng, 3, 3, 2, 2), rng)


class TestBackwardContract:
    def test_backward_before_forward_raises(self, rng):
        layer = Linear(3, 2, rng)
        with pytest.raises(RuntimeError, match="backward called before forward"):
            layer.backward(np.zeros((1, 2)))

    def test_conv_backward_before_forward_raises(self, rng):
        layer = Conv2d(1, 1, 3, rng)
        with pytest.raises(RuntimeError):
            layer.backward(np.zeros((1, 1, 2, 2)))

    def test_maxpool_double_backward_raises(self, rng):
        layer = MaxPool2d(2)
        x = rng.standard_normal((1, 1, 4, 4))
        layer.forward(x)
        layer.backward(np.ones((1, 1, 2, 2)))
        with pytest.raises(RuntimeError):
            layer.backward(np.ones((1, 1, 2, 2)))
