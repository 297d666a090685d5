"""Module system: registration, naming, state dicts, train/eval modes."""

from __future__ import annotations

import numpy as np
import pytest

from repro.data.synthetic import make_dataset
from repro.fl.client import local_train, run_client_update_flat
from repro.fl.config import TrainConfig
from repro.nn.batched import BatchedLinear, build_batched
from repro.nn.layers import Conv2d, Flatten, Linear, ReLU
from repro.nn.models import available_models, build_model, mlp
from repro.nn.module import Module, Sequential
from repro.nn.parameter import Parameter
from repro.nn.state_flat import StateLayout


class TestParameter:
    def test_grad_starts_zero(self, rng):
        p = Parameter(rng.standard_normal((3, 2)))
        assert p.grad.shape == (3, 2)
        assert not p.grad.any()

    def test_accumulate(self, rng):
        p = Parameter(np.zeros((2, 2)))
        p.accumulate_grad(np.ones((2, 2)))
        p.accumulate_grad(np.ones((2, 2)))
        np.testing.assert_allclose(p.grad, 2.0)

    def test_accumulate_shape_mismatch_raises(self):
        p = Parameter(np.zeros((2, 2)))
        with pytest.raises(ValueError, match="gradient shape"):
            p.accumulate_grad(np.ones((2, 3)))

    def test_copy_casts_dtype(self):
        p = Parameter(np.zeros((2,), dtype=np.float32))
        p.copy_(np.array([1.5, 2.5], dtype=np.float64))
        assert p.data.dtype == np.float32
        np.testing.assert_allclose(p.data, [1.5, 2.5])

    def test_copy_shape_mismatch_raises(self):
        p = Parameter(np.zeros((2,)))
        with pytest.raises(ValueError, match="cannot load"):
            p.copy_(np.zeros((3,)))

    def test_zero_grad_in_place(self):
        p = Parameter(np.zeros(3))
        buffer = p.grad
        p.grad += 5
        p.zero_grad()
        assert p.grad is buffer  # no reallocation
        assert not p.grad.any()


class TestModuleTree:
    def _model(self, rng) -> Sequential:
        return Sequential(
            ("fc1", Linear(4, 3, rng)),
            ("act", ReLU()),
            ("fc2", Linear(3, 2, rng)),
        )

    def test_named_parameters_qualified(self, rng):
        model = self._model(rng)
        names = [n for n, _ in model.named_parameters()]
        assert names == ["fc1.weight", "fc1.bias", "fc2.weight", "fc2.bias"]

    def test_finalize_names_stamps_parameters(self, rng):
        model = self._model(rng).finalize_names()
        assert model[0].weight.name == "fc1.weight"

    def test_num_parameters(self, rng):
        model = self._model(rng)
        assert model.num_parameters() == 4 * 3 + 3 + 3 * 2 + 2

    def test_zero_grad_recursive(self, rng):
        model = self._model(rng)
        for p in model.parameters():
            p.grad += 1.0
        model.zero_grad()
        assert all(not p.grad.any() for p in model.parameters())

    def test_state_dict_roundtrip(self, rng):
        model = self._model(rng)
        state = model.state_dict()
        for p in model.parameters():
            p.data[...] = 0
        model.load_state_dict(state)
        for name, p in model.named_parameters():
            np.testing.assert_array_equal(p.data, state[name])

    def test_state_dict_copy_semantics(self, rng):
        model = self._model(rng)
        state = model.state_dict(copy=True)
        model[0].weight.data += 99.0
        assert not np.allclose(state["fc1.weight"], model[0].weight.data)

    def test_load_state_dict_strict(self, rng):
        model = self._model(rng)
        state = model.state_dict()
        state.pop("fc2.bias")
        with pytest.raises(KeyError, match="missing"):
            model.load_state_dict(state)

    def test_load_state_dict_unexpected_key(self, rng):
        model = self._model(rng)
        state = model.state_dict()
        state["bogus"] = np.zeros(1)
        with pytest.raises(KeyError, match="unexpected"):
            model.load_state_dict(state)

    def test_train_eval_propagates(self, rng):
        # Conv2d's forward reads the flag: only training caches columns.
        model = Sequential(("conv", Conv2d(1, 1, 3, rng)), ("fc", Linear(2, 2, rng)))
        model.eval()
        assert not model.training
        assert not model["conv"].training
        model.train()
        assert model["conv"].training

    def test_sequential_indexing(self, rng):
        model = self._model(rng)
        assert isinstance(model[0], Linear)
        assert model["fc2"] is model[2]
        assert len(model) == 3

    def test_sequential_duplicate_name_raises(self, rng):
        with pytest.raises(ValueError, match="duplicate"):
            Sequential(("a", ReLU()), ("a", ReLU()))

    def test_sequential_rejects_non_module(self):
        with pytest.raises(TypeError):
            Sequential(("a", 42))  # type: ignore[arg-type]

    def test_forward_backward_chain(self, rng):
        model = self._model(rng)
        x = rng.standard_normal((5, 4)).astype(np.float32)
        out = model.forward(x)
        assert out.shape == (5, 2)
        grad = model.backward(np.ones_like(out))
        assert grad.shape == x.shape


class TestTrainingBackward:
    """``backward(grad, input_grad=False)``: what the trainers call."""

    @pytest.mark.parametrize("name", available_models())
    def test_parameter_grads_match_full_backward(self, name):
        rng = np.random.default_rng(0)
        model = build_model(name, (3, 32, 32), 10, rng)
        first = model[model.first_param_index]
        assert isinstance(first, (Conv2d, Linear))
        x = rng.standard_normal((4, 3, 32, 32)).astype(np.float32)
        probe = rng.standard_normal((4, 10)).astype(np.float32)
        returned, grads = [], []
        for input_grad in (True, False):
            model.zero_grad()
            model.forward(x)
            returned.append(model.backward(probe.copy(), input_grad=input_grad))
            grads.append([p.grad.copy() for p in model.parameters()])
        assert returned[0].shape == x.shape
        assert returned[1] is None
        for full, train in zip(*grads):
            np.testing.assert_array_equal(full, train)

    def test_stop_index_is_the_batched_mirrors(self):
        model = mlp((1, 4, 4), 3, np.random.default_rng(0), hidden=(8,))
        state = model.state_dict()
        layout = StateLayout.from_state(state)
        batched, _ = build_batched(model, layout, 2, layout.pack(state))
        assert model.first_param_index == batched.first_param_index == 1
        linears = [m for m in batched.layers if isinstance(m, BatchedLinear)]
        assert [m.needs_input_grad for m in linears] == [False, True]

    def test_parameter_free_chain_does_nothing(self, rng):
        model = Sequential(("flatten", Flatten()), ("act", ReLU()))
        assert model.first_param_index is None
        model.forward(rng.standard_normal((2, 3)))
        assert model.backward(np.ones((2, 3)), input_grad=False) is None


class TestFlatBuffer:
    """Every registered model's parameters and gradients are views into
    one buffer pair at their ``StateLayout`` offsets, whatever the model
    goes through; the optimiser, ``zero_grad`` and ``load_flat`` act on
    the whole buffer, so a detached tensor would silently stop training."""

    @staticmethod
    def _model(name: str) -> Sequential:
        return build_model(name, (3, 32, 32), 10, np.random.default_rng(0))

    @staticmethod
    def _assert_views(model: Sequential) -> None:
        layout = StateLayout.from_model(model)
        assert model.layout == layout
        flat = model.flat_param
        assert flat.data.shape == flat.grad.shape == (layout.n_params,)
        assert flat.data.dtype == flat.grad.dtype == layout.dtype
        assert not np.shares_memory(flat.data, flat.grad)
        params = model.parameters()
        assert len(params) == len(layout.keys)
        for param, lo, shape in zip(params, layout.offsets, layout.shapes):
            for view, whole in ((param.data, flat.data), (param.grad, flat.grad)):
                assert view.base is whole
                assert view.ctypes.data == whole.ctypes.data + lo * whole.itemsize
                assert view.shape == shape and view.flags.c_contiguous

    @staticmethod
    def _data(n: int = 16):
        return make_dataset("cifar10", n, 0)

    @pytest.mark.parametrize("name", available_models())
    def test_built_as_views(self, name):
        self._assert_views(self._model(name))

    @pytest.mark.parametrize("name", available_models())
    def test_views_survive_loads_and_modes(self, name):
        model = self._model(name)
        rng = np.random.default_rng(1)
        state = {k: rng.standard_normal(v.shape).astype(v.dtype)
                 for k, v in model.state_dict().items()}
        model.load_state_dict(state)
        self._assert_views(model)
        np.testing.assert_array_equal(model.flat_param.data, model.layout.pack(state))
        row = rng.standard_normal(model.layout.n_params)
        model.load_flat(row, model.layout)
        self._assert_views(model)
        np.testing.assert_array_equal(model.flat_param.data, row.astype(np.float32))
        model.eval()
        self._assert_views(model)
        model.train()
        self._assert_views(model)

    @pytest.mark.parametrize("name", available_models())
    @pytest.mark.parametrize("prox_mu", [0.0, 0.5])
    def test_views_survive_training(self, name, prox_mu):
        model = self._model(name)
        before = model.flat_param.data.copy()
        cfg = TrainConfig(local_epochs=1, batch_size=8, lr=0.05, momentum=0.9)
        local_train(
            model, self._data(), cfg, np.random.default_rng(2),
            prox_mu=prox_mu, anchor_flat=before,
        )
        self._assert_views(model)
        assert not np.array_equal(model.flat_param.data, before)
        model.zero_grad()
        assert not model.flat_param.grad.any()

    @pytest.mark.parametrize("name", available_models())
    def test_emitted_row_is_a_copy(self, name):
        model = self._model(name)
        layout = model.layout
        cfg = TrainConfig(local_epochs=1, batch_size=8, max_steps=1)
        update = run_client_update_flat(
            model, 0, self._data(), model.flat_param.data.copy(), layout, cfg,
            np.random.default_rng(3),
        )
        assert update.flat.dtype == layout.dtype
        np.testing.assert_array_equal(update.flat, model.flat_param.data)
        assert not np.shares_memory(update.flat, model.flat_param.data)
        assert not np.shares_memory(update.flat, model.flat_param.grad)
        self._assert_views(model)

    @pytest.mark.parametrize("name", available_models())
    def test_load_flat_rejects_bad_rows(self, name):
        model = self._model(name)
        layout = model.layout
        with pytest.raises(ValueError, match="shape"):
            model.load_flat(np.zeros(layout.n_params + 1), layout)
        other = mlp((3, 32, 32), 10, np.random.default_rng(0), hidden=(7,))
        with pytest.raises(KeyError, match="layout mismatch"):
            model.load_flat(np.zeros(other.layout.n_params), other.layout)
        self._assert_views(model)

    def test_plain_modules_have_no_buffer(self, rng):
        model = Sequential(("fc", Linear(3, 2, rng)))
        assert model.flat_param is None and model.layout is None
        with pytest.raises(TypeError, match="flatten_parameters"):
            model.load_flat(np.zeros(8), StateLayout.from_model(model))
        model.flatten_parameters()
        self._assert_views(model)


class TestCustomModule:
    def test_attribute_registration(self, rng):
        class Custom(Module):
            def __init__(self):
                super().__init__()
                self.w = Parameter(np.ones((2, 2)))
                self.inner = Linear(2, 2, rng)

            def forward(self, x):
                return self.inner.forward(x @ self.w.data)

        module = Custom()
        names = [n for n, _ in module.named_parameters()]
        assert names == ["w", "inner.weight", "inner.bias"]
        mods = dict(module.named_modules())
        assert "" in mods and "inner" in mods
