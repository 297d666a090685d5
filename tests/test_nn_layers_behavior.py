"""Layer behaviours beyond gradients: shapes and pooling/activation values."""

from __future__ import annotations

import numpy as np
import pytest

from repro.nn.layers import Conv2d, Linear, MaxPool2d, ReLU


class TestShapes:
    def test_conv_output_shape(self, rng):
        layer = Conv2d(3, 8, 5, rng, stride=2, padding=2)
        out = layer.forward(rng.standard_normal((4, 3, 32, 32)).astype(np.float32))
        assert out.shape == (4, 8, 16, 16)
        assert layer.output_shape(32, 32) == (16, 16)

    def test_conv_rejects_wrong_channels(self, rng):
        layer = Conv2d(3, 8, 3, rng)
        with pytest.raises(ValueError, match="expected"):
            layer.forward(np.zeros((1, 2, 8, 8), dtype=np.float32))

    def test_linear_rejects_wrong_width(self, rng):
        layer = Linear(4, 2, rng)
        with pytest.raises(ValueError, match="expected"):
            layer.forward(np.zeros((1, 5), dtype=np.float32))

    def test_pool_shapes(self, rng):
        x = rng.standard_normal((2, 3, 8, 8))
        assert MaxPool2d(2).forward(x).shape == (2, 3, 4, 4)
        assert MaxPool2d(4).forward(x).shape == (2, 3, 2, 2)
        assert MaxPool2d(3, stride=1).forward(x).shape == (2, 3, 6, 6)

    def test_pool_rejects_3d(self, rng):
        with pytest.raises(ValueError, match="N, C, H, W"):
            MaxPool2d(2).forward(rng.standard_normal((3, 8, 8)))


class TestPoolSemantics:
    def test_maxpool_values(self):
        x = np.arange(16, dtype=np.float64).reshape(1, 1, 4, 4)
        out = MaxPool2d(2).forward(x)
        np.testing.assert_allclose(out[0, 0], [[5, 7], [13, 15]])

    def test_maxpool_gradient_routing(self):
        x = np.arange(16, dtype=np.float64).reshape(1, 1, 4, 4)
        layer = MaxPool2d(2)
        layer.forward(x)
        grad = layer.backward(np.ones((1, 1, 2, 2)))
        # Gradient lands exactly on the four maxima.
        expected = np.zeros((4, 4))
        expected[1, 1] = expected[1, 3] = expected[3, 1] = expected[3, 3] = 1
        np.testing.assert_allclose(grad[0, 0], expected)


class TestActivations:
    def test_relu_clamps(self):
        out = ReLU().forward(np.array([-2.0, 0.0, 3.0]))
        np.testing.assert_allclose(out, [0.0, 0.0, 3.0])
