"""Optimisers: update rules, momentum, weight decay, proximal term."""

from __future__ import annotations

import numpy as np
import pytest

from repro.nn.optim import SGD, ProximalSGD
from repro.nn.parameter import Parameter
from repro.nn.state_flat import StateLayout


def _param(value) -> Parameter:
    return Parameter(np.array(value, dtype=np.float64))


def _layout(*params: Parameter) -> StateLayout:
    """The packed layout of ``params`` (one key each, in order)."""
    return StateLayout.from_state({f"p{i}": p.data for i, p in enumerate(params)})


class TestSGD:
    def test_vanilla_step(self):
        p = _param([1.0, 2.0])
        p.grad[:] = [0.5, -0.5]
        SGD([p], lr=0.1).step()
        np.testing.assert_allclose(p.data, [0.95, 2.05])

    def test_weight_decay(self):
        p = _param([2.0])
        p.grad[:] = [0.0]
        SGD([p], lr=0.1, weight_decay=0.5).step()
        # grad_eff = 0 + 0.5*2 = 1; step = -0.1
        np.testing.assert_allclose(p.data, [1.9])

    def test_momentum_accumulates(self):
        p = _param([0.0])
        opt = SGD([p], lr=1.0, momentum=0.5)
        p.grad[:] = [1.0]
        opt.step()  # v=1, p=-1
        np.testing.assert_allclose(p.data, [-1.0])
        p.grad[:] = [1.0]
        opt.step()  # v=1.5, p=-2.5
        np.testing.assert_allclose(p.data, [-2.5])

    def test_in_place_update(self):
        p = _param([1.0])
        buffer = p.data
        p.grad[:] = [1.0]
        SGD([p], lr=0.1).step()
        assert p.data is buffer

    def test_validation(self):
        with pytest.raises(ValueError, match="empty"):
            SGD([], lr=0.1)
        with pytest.raises(ValueError, match="lr"):
            SGD([_param([0.0])], lr=0.0)
        with pytest.raises(ValueError, match="momentum"):
            SGD([_param([0.0])], lr=0.1, momentum=-1)


class TestProximalSGD:
    def test_proximal_pull_toward_anchor(self):
        p = _param([2.0])
        opt = ProximalSGD([p], lr=0.1, mu=1.0)
        opt.set_anchor_flat(np.array([0.0]), _layout(p))
        p.grad[:] = [0.0]
        opt.step()
        # grad_eff = mu*(w - anchor) = 2 → step -0.2
        np.testing.assert_allclose(p.data, [1.8])

    def test_anchor_at_params(self):
        p = _param([3.0])
        opt = ProximalSGD([p], lr=0.1, mu=10.0)
        opt.set_anchor_flat(p.data, _layout(p))
        p.grad[:] = [1.0]
        opt.step()
        # At the anchor the proximal term vanishes: pure gradient step.
        np.testing.assert_allclose(p.data, [2.9])

    def test_mu_zero_equals_sgd(self, rng):
        value = rng.standard_normal(4)
        grad = rng.standard_normal(4)
        p1, p2 = _param(value), _param(value)
        p1.grad[:] = grad
        p2.grad[:] = grad
        SGD([p1], lr=0.05).step()
        opt = ProximalSGD([p2], lr=0.05, mu=0.0)
        opt.step()
        np.testing.assert_allclose(p1.data, p2.data)

    def test_step_without_anchor_raises(self):
        opt = ProximalSGD([_param([0.0])], lr=0.1, mu=0.5)
        with pytest.raises(RuntimeError, match="set_anchor"):
            opt.step()

    def test_anchor_validation(self):
        p = _param([0.0, 1.0])
        opt = ProximalSGD([p], lr=0.1, mu=0.5)
        with pytest.raises(ValueError, match="mismatches"):
            opt.set_anchor_flat(np.zeros(3), _layout(_param([0.0, 1.0, 2.0])))
        with pytest.raises(ValueError, match="entries"):
            opt.set_anchor_flat(np.zeros(4), _layout(p, p))

    def test_anchor_is_copied(self):
        p = _param([1.0])
        anchor = np.array([0.5])
        opt = ProximalSGD([p], lr=0.1, mu=1.0)
        opt.set_anchor_flat(anchor, _layout(p))
        anchor[:] = 100.0  # mutating the caller's array must not matter
        p.grad[:] = [0.0]
        opt.step()
        np.testing.assert_allclose(p.data, [0.95])

    def test_momentum_with_prox(self):
        p = _param([1.0])
        opt = ProximalSGD([p], lr=0.1, mu=1.0, momentum=0.5)
        opt.set_anchor_flat(np.array([0.0]), _layout(p))
        p.grad[:] = [0.0]
        opt.step()  # g_eff=1, v=1, p=0.9
        np.testing.assert_allclose(p.data, [0.9])
        p.grad[:] = [0.0]
        opt.step()  # g_eff=0.9, v=0.5+0.9=1.4, p=0.76
        np.testing.assert_allclose(p.data, [0.76])
