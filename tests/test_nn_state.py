"""State-dict helpers."""

from __future__ import annotations

from collections import OrderedDict

import numpy as np
import pytest

from repro.nn.state import (
    check_same_keys,
    flatten_state,
    state_axpy,
    state_zeros_like,
)


def _state(rng) -> OrderedDict:
    return OrderedDict(
        [("a", rng.standard_normal((2, 3))), ("b", rng.standard_normal(4))]
    )


class TestArithmetic:
    def test_axpy(self, rng):
        a, b = _state(rng), _state(rng)
        acc = OrderedDict((k, v.copy()) for k, v in a.items())
        state_axpy(acc, b, 0.5)
        np.testing.assert_allclose(acc["a"], a["a"] + 0.5 * b["a"])

    def test_zeros_like(self, rng):
        z = state_zeros_like(_state(rng))
        assert all(not v.any() for v in z.values())

    def test_key_mismatch_raises(self, rng):
        a = _state(rng)
        b = OrderedDict([("a", a["a"])])
        with pytest.raises(KeyError):
            check_same_keys([a, b])


class TestFlatten:
    def test_key_subset_order(self, rng):
        a = _state(rng)
        flat = flatten_state(a, keys=["b"])
        np.testing.assert_allclose(flat, a["b"].ravel())

    def test_missing_key_raises(self, rng):
        with pytest.raises(KeyError, match="not in state"):
            flatten_state(_state(rng), keys=["zzz"])

    def test_empty_selection_raises(self, rng):
        with pytest.raises(ValueError, match="no keys"):
            flatten_state(_state(rng), keys=[])
