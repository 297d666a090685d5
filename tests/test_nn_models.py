"""Model zoo: shapes, layer counts, registry, layer selection helpers."""

from __future__ import annotations

import numpy as np
import pytest

from repro.nn.models import (
    available_models,
    build_model,
    cnn_small,
    final_linear_name,
    lenet5,
    minivgg,
    mlp,
    parameterized_layers,
    vgg16_style,
)


class TestLeNet5:
    def test_cifar_shape(self, rng):
        model = lenet5((3, 32, 32), 10, rng)
        out = model.forward(rng.standard_normal((2, 3, 32, 32)).astype(np.float32))
        assert out.shape == (2, 10)

    def test_mnist_shape_uses_padding(self, rng):
        model = lenet5((1, 28, 28), 10, rng)
        out = model.forward(rng.standard_normal((2, 1, 28, 28)).astype(np.float32))
        assert out.shape == (2, 10)

    def test_parameter_count_32(self, rng):
        # Classic LeNet-5 on 3x32x32/10 classes:
        # conv1 3*6*25+6, conv2 6*16*25+16, fc 400*120+120, 120*84+84, 84*10+10
        model = lenet5((3, 32, 32), 10, rng)
        expected = (3 * 6 * 25 + 6) + (6 * 16 * 25 + 16) + (400 * 120 + 120) + (
            120 * 84 + 84
        ) + (84 * 10 + 10)
        assert model.num_parameters() == expected

    def test_five_weighted_layers(self, rng):
        assert len(parameterized_layers(lenet5((1, 28, 28), 10, rng))) == 5


class TestOtherModels:
    def test_mlp_shapes(self, rng):
        model = mlp((1, 8, 8), 5, rng, hidden=(16,))
        out = model.forward(rng.standard_normal((3, 1, 8, 8)).astype(np.float32))
        assert out.shape == (3, 5)

    def test_cnn_small(self, rng):
        model = cnn_small((3, 16, 16), 10, rng, width=4, fc_dim=8)
        out = model.forward(rng.standard_normal((2, 3, 16, 16)).astype(np.float32))
        assert out.shape == (2, 10)

    def test_minivgg_custom_stages(self, rng):
        model = minivgg((1, 16, 16), 4, rng, stage_widths=((4,), (8,)), fc_dims=(16,))
        out = model.forward(rng.standard_normal((2, 1, 16, 16)).astype(np.float32))
        assert out.shape == (2, 4)

    def test_minivgg_too_many_pools_raises(self, rng):
        with pytest.raises(ValueError, match="too small"):
            minivgg((1, 4, 4), 4, rng, stage_widths=((4,), (4,), (4,), (4,)))

    def test_vgg16_style_has_16_weighted_layers(self, rng):
        model = vgg16_style((3, 32, 32), 10, rng)
        assert len(parameterized_layers(model)) == 16

    def test_vgg16_style_small_input_raises(self, rng):
        with pytest.raises(ValueError, match="32x32"):
            vgg16_style((3, 16, 16), 10, rng)

    def test_vgg16_forward(self, rng):
        model = vgg16_style((3, 32, 32), 10, rng, base_width=2, fc_width=8)
        out = model.forward(rng.standard_normal((1, 3, 32, 32)).astype(np.float32))
        assert out.shape == (1, 10)


class TestRegistry:
    def test_available(self):
        assert set(available_models()) == {
            "lenet5",
            "mlp",
            "cnn_small",
            "minivgg",
            "vgg16_style",
        }

    def test_build_by_name(self, rng):
        model = build_model("lenet5", (1, 28, 28), 10, rng)
        assert model.arch == "lenet5"
        assert model.input_shape == (1, 28, 28)
        assert model.n_classes == 10

    def test_unknown_raises(self, rng):
        options = r"\['cnn_small', 'lenet5', 'minivgg', 'mlp', 'vgg16_style'\]"
        for name in ("resnet", "resnet_tiny"):
            message = f"unknown model '{name}'; options: {options}"
            with pytest.raises(ValueError, match=message):
                build_model(name, (1, 28, 28), 10, rng)

    def test_deterministic_init(self):
        a = build_model("lenet5", (1, 28, 28), 10, np.random.default_rng(5))
        b = build_model("lenet5", (1, 28, 28), 10, np.random.default_rng(5))
        for (na, pa), (nb, pb) in zip(a.named_parameters(), b.named_parameters()):
            assert na == nb
            np.testing.assert_array_equal(pa.data, pb.data)


class TestLayerHelpers:
    def test_final_linear_name(self, rng):
        assert final_linear_name(lenet5((1, 28, 28), 10, rng)) == "classifier"
        assert final_linear_name(mlp((1, 4, 4), 3, rng)) == "classifier"

    def test_final_linear_no_linear_raises(self, rng):
        from repro.nn.layers import ReLU
        from repro.nn.module import Sequential

        with pytest.raises(ValueError, match="no Linear"):
            final_linear_name(Sequential(("act", ReLU())))

    def test_parameterized_layer_order(self, rng):
        model = lenet5((1, 28, 28), 10, rng)
        names = [n for n, _ in parameterized_layers(model)]
        assert names == ["conv1", "conv2", "fc1", "fc2", "classifier"]
