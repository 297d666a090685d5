"""Flat parameter plane: layout, pack/unpack, and the packed kernels.

The invariants under test are the ones the hot paths rely on (see the
``repro.nn.state_flat`` module docstring): packing is an exact bijection
onto the float64 plane, key subsets are column runs, and the packed
aggregation kernel matches the per-key reference loop.
"""

from __future__ import annotations

from collections import OrderedDict

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.fl.aggregation import packed_weighted_average, weighted_average_dict
from repro.fl.communication import (
    decode_flat_payload,
    encode_flat_payload,
    flat_payload_nbytes,
    params_in_layout,
)
from repro.nn.models import lenet5
from repro.nn.optim import ProximalSGD
from repro.nn.state import flatten_state
from repro.nn.state_flat import (
    StateLayout,
    pack_state,
    pack_states,
    unpack_keys,
    unpack_state,
)
from repro.core.weights import packed_weight_matrix, weight_matrix


def _mixed_state(rng: np.random.Generator) -> "OrderedDict[str, np.ndarray]":
    """A template with mixed dtypes, shapes and a scalar-free layout."""
    return OrderedDict(
        [
            ("conv.weight", rng.standard_normal((4, 3, 3, 3)).astype(np.float32)),
            ("conv.bias", rng.standard_normal(4).astype(np.float32)),
            ("norm.gamma", rng.standard_normal(4).astype(np.float64)),
            ("fc.weight", rng.standard_normal((5, 16)).astype(np.float32)),
            ("fc.bias", rng.standard_normal(5).astype(np.float64)),
        ]
    )


def _like(template, rng):
    return OrderedDict(
        (k, rng.standard_normal(v.shape).astype(v.dtype))
        for k, v in template.items()
    )


class TestLayout:
    def test_offsets_tile_the_plane(self, rng):
        layout = StateLayout.from_state(_mixed_state(rng))
        assert layout.offsets[0] == 0
        assert layout.n_params == sum(v.size for v in _mixed_state(rng).values())
        for key in layout.keys:
            s = layout.slice_of(key)
            assert s.stop - s.start == layout.size_of(key)
        # ranges are adjacent and exhaustive
        stops = [layout.slice_of(k).stop for k in layout.keys]
        starts = [layout.slice_of(k).start for k in layout.keys]
        assert starts == [0, *stops[:-1]]
        assert stops[-1] == layout.n_params

    def test_unknown_key_raises(self, rng):
        layout = StateLayout.from_state(_mixed_state(rng))
        with pytest.raises(KeyError, match="nope"):
            layout.slice_of("nope")

    def test_columns_contiguous_is_slice(self, rng):
        layout = StateLayout.from_state(_mixed_state(rng))
        cols = layout.columns(["fc.weight", "fc.bias"])
        assert isinstance(cols, slice)
        assert cols.stop == layout.n_params  # final-layer keys sit last

    def test_columns_gap_is_index_array(self, rng):
        layout = StateLayout.from_state(_mixed_state(rng))
        cols = layout.columns(["conv.bias", "fc.bias"])
        assert isinstance(cols, np.ndarray)
        expected = np.concatenate(
            [
                np.arange(s.start, s.stop)
                for s in (layout.slice_of("conv.bias"), layout.slice_of("fc.bias"))
            ]
        )
        np.testing.assert_array_equal(cols, expected)

    def test_wire_dtype_widest(self, rng):
        mixed = StateLayout.from_state(_mixed_state(rng))
        assert mixed.wire_dtype == np.dtype(np.float64)
        f32_only = StateLayout.from_state(
            OrderedDict(a=np.zeros(3, np.float32), b=np.zeros(2, np.float32))
        )
        assert f32_only.wire_dtype == np.dtype(np.float32)

    def test_rejects_non_float(self):
        with pytest.raises(TypeError, match="losslessly"):
            StateLayout.from_state(OrderedDict(a=np.zeros(3, np.int64)))

    def test_from_model_matches_from_state(self, rng):
        model = lenet5((1, 28, 28), 10, rng)
        a = StateLayout.from_model(model)
        b = StateLayout.from_state(model.state_dict())
        assert a == b
        assert a.n_params == model.num_parameters()

    def test_picklable(self, rng):
        import pickle

        layout = StateLayout.from_state(_mixed_state(rng))
        clone = pickle.loads(pickle.dumps(layout))
        assert clone == layout
        assert clone.slice_of("fc.bias") == layout.slice_of("fc.bias")


class TestPackUnpack:
    def test_round_trip_exact(self, rng):
        state = _mixed_state(rng)
        layout = StateLayout.from_state(state)
        back = unpack_state(pack_state(state, layout), layout)
        assert list(back) == list(state)
        for k in state:
            assert back[k].dtype == state[k].dtype
            assert back[k].shape == state[k].shape
            np.testing.assert_array_equal(back[k], state[k])
            assert back[k].flags["C_CONTIGUOUS"]

    def test_non_contiguous_inputs(self, rng):
        base = rng.standard_normal((8, 6)).astype(np.float32)
        state = OrderedDict(
            [
                ("strided", base[::2]),            # row-strided view
                ("transposed", base.T),            # F-ordered view
                ("reversed", base[0, ::-1]),       # negative stride
            ]
        )
        layout = StateLayout.from_state(state)
        back = unpack_state(pack_state(state, layout), layout)
        for k in state:
            np.testing.assert_array_equal(back[k], np.ascontiguousarray(state[k]))

    def test_pack_matches_flatten_state(self, rng):
        # flatten_state is the pre-existing, well-tested oracle.
        state = _mixed_state(rng)
        layout = StateLayout.from_state(state)
        np.testing.assert_array_equal(
            pack_state(state, layout), flatten_state(state)
        )

    def test_key_order_mismatch_raises(self, rng):
        state = _mixed_state(rng)
        layout = StateLayout.from_state(state)
        reordered = OrderedDict(reversed(list(state.items())))
        with pytest.raises(KeyError):
            pack_state(reordered, layout)

    def test_equal_size_shape_mismatch_raises(self, rng):
        """A transposed same-size tensor must be rejected, not scrambled."""
        state = _mixed_state(rng)
        layout = StateLayout.from_state(state)
        bad = OrderedDict(state)
        bad["fc.weight"] = np.ascontiguousarray(state["fc.weight"].T)
        with pytest.raises(ValueError, match="shape"):
            pack_state(bad, layout)
        with pytest.raises(ValueError, match="shape"):
            pack_states([state, bad])

    def test_pack_states_cohort(self, rng):
        template = _mixed_state(rng)
        states = [_like(template, rng) for _ in range(5)]
        matrix, layout = pack_states(states)
        assert matrix.shape == (5, layout.n_params)
        assert matrix.dtype == np.float64
        assert matrix.flags["C_CONTIGUOUS"]
        for i, s in enumerate(states):
            np.testing.assert_array_equal(matrix[i], flatten_state(s))

    def test_unpack_wrong_length(self, rng):
        layout = StateLayout.from_state(_mixed_state(rng))
        with pytest.raises(ValueError, match="expected"):
            unpack_state(np.zeros(layout.n_params + 1), layout)

    def test_unpack_keys_partial(self, rng):
        state = _mixed_state(rng)
        layout = StateLayout.from_state(state)
        keys = ["fc.weight", "fc.bias"]
        vec = pack_state(state, layout)[layout.columns(keys)]
        part = unpack_keys(vec, layout, keys)
        assert list(part) == keys
        for k in keys:
            assert part[k].dtype == state[k].dtype
            np.testing.assert_array_equal(part[k], state[k])

    @settings(max_examples=30, deadline=None)
    @given(
        sizes=st.lists(st.integers(min_value=1, max_value=12), min_size=1, max_size=6),
        dtype_bits=st.lists(st.sampled_from([16, 32, 64]), min_size=6, max_size=6),
        seed=st.integers(min_value=0, max_value=2**31 - 1),
    )
    def test_round_trip_property(self, sizes, dtype_bits, seed):
        """pack ∘ unpack is the identity for any float state."""
        rng = np.random.default_rng(seed)
        dtypes = {16: np.float16, 32: np.float32, 64: np.float64}
        state = OrderedDict(
            (
                f"k{i}",
                rng.standard_normal(n).astype(dtypes[dtype_bits[i % 6]]),
            )
            for i, n in enumerate(sizes)
        )
        layout = StateLayout.from_state(state)
        back = unpack_state(pack_state(state, layout), layout)
        assert list(back) == list(state)
        for k in state:
            assert back[k].dtype == state[k].dtype
            np.testing.assert_array_equal(back[k], state[k])


class TestPackedWeightedAverage:
    def test_matches_legacy_loop(self, rng):
        """GEMV vs the per-key reference loop: equal to float64 round-off."""
        template = _mixed_state(rng)
        states = [_like(template, rng) for _ in range(8)]
        weights = rng.integers(1, 50, size=8)
        legacy = weighted_average_dict(states, weights)
        matrix, layout = pack_states(states)
        packed = unpack_state(packed_weighted_average(matrix, weights), layout)
        for k in legacy:
            np.testing.assert_allclose(
                packed[k].astype(np.float64),
                legacy[k].astype(np.float64),
                rtol=1e-12,
                atol=1e-12,
            )

    def test_weight_normalisation_identical(self, rng):
        template = _mixed_state(rng)
        matrix, _ = pack_states([_like(template, rng) for _ in range(3)])
        np.testing.assert_array_equal(
            packed_weighted_average(matrix, [2, 2, 2]),
            packed_weighted_average(matrix, [1, 1, 1]),
        )

    def test_packed_validation(self, rng):
        X = rng.standard_normal((3, 10))
        with pytest.raises(ValueError, match="weights"):
            packed_weighted_average(X, [1.0])
        with pytest.raises(ValueError, match="non-negative"):
            packed_weighted_average(X, [1.0, -1.0, 1.0])
        with pytest.raises(ValueError, match="positive"):
            packed_weighted_average(X, [0.0, 0.0, 0.0])
        with pytest.raises(ValueError, match="zero states"):
            packed_weighted_average(np.empty((0, 10)), [])
        with pytest.raises(ValueError, match=r"\(n, p\)"):
            packed_weighted_average(np.zeros(10), [1.0])


class TestPackedWeightMatrix:
    def test_matches_dict_weight_matrix(self, rng):
        template = _mixed_state(rng)
        states = [_like(template, rng) for _ in range(6)]
        matrix, layout = pack_states(states)
        for keys in (
            ["fc.weight", "fc.bias"],
            ["conv.weight"],
            ["conv.bias", "fc.bias"],          # non-contiguous selection
            ["fc.bias", "fc.weight"],          # selection order respected
        ):
            np.testing.assert_array_equal(
                packed_weight_matrix(matrix, layout, keys),
                weight_matrix(states, keys),
            )

    def test_contiguous_selection_is_view(self, rng):
        template = _mixed_state(rng)
        states = [_like(template, rng) for _ in range(4)]
        matrix, layout = pack_states(states)
        w = packed_weight_matrix(matrix, layout, ["fc.weight", "fc.bias"])
        assert np.shares_memory(w, matrix)  # zero-copy column slice

    def test_shape_validation(self, rng):
        layout = StateLayout.from_state(_mixed_state(rng))
        with pytest.raises(ValueError, match="packed cohort"):
            packed_weight_matrix(np.zeros((2, 3)), layout, ["fc.bias"])


class TestFlatPayload:
    def test_params_in_layout(self, rng):
        state = _mixed_state(rng)
        layout = StateLayout.from_state(state)
        assert params_in_layout(layout) == layout.n_params
        assert params_in_layout(layout, ["fc.weight", "fc.bias"]) == (
            state["fc.weight"].size + state["fc.bias"].size
        )

    def test_encode_decode_round_trip_float32_model(self, rng):
        model = lenet5((1, 28, 28), 10, rng)
        layout = StateLayout.from_model(model)
        vec = pack_state(model.state_dict(), layout)
        buf = encode_flat_payload(vec, layout)
        assert len(buf) == flat_payload_nbytes(layout)
        assert layout.wire_dtype == np.dtype(np.float32)  # half of float64
        np.testing.assert_array_equal(decode_flat_payload(buf, layout), vec)

    def test_encode_decode_mixed_dtypes_use_float64(self, rng):
        state = _mixed_state(rng)
        layout = StateLayout.from_state(state)
        vec = pack_state(state, layout)
        buf = encode_flat_payload(vec, layout)
        assert layout.wire_dtype == np.dtype(np.float64)
        np.testing.assert_array_equal(decode_flat_payload(buf, layout), vec)

    def test_length_validation(self, rng):
        layout = StateLayout.from_state(_mixed_state(rng))
        with pytest.raises(ValueError, match="expected"):
            encode_flat_payload(np.zeros(3), layout)
        with pytest.raises(ValueError, match="expected"):
            decode_flat_payload(b"\0" * 8, layout)


class TestFlatProxAnchor:
    def test_set_anchor_flat_matches_from_params(self, rng):
        model = lenet5((1, 28, 28), 10, rng)
        layout = StateLayout.from_model(model)
        vec = pack_state(model.state_dict(), layout)

        loaded = [p.data.copy() for p in model.parameters()]
        opt_b = ProximalSGD(model.parameters(), lr=0.1, mu=0.5)
        opt_b.set_anchor_flat(vec, layout)

        assert len(loaded) == len(opt_b._anchor)
        for a, b, p in zip(loaded, opt_b._anchor, model.parameters()):
            assert b.dtype == p.data.dtype
            np.testing.assert_array_equal(a, b)

    def test_set_anchor_flat_validates(self, rng):
        model = lenet5((1, 28, 28), 10, rng)
        layout = StateLayout.from_model(model)
        opt = ProximalSGD(model.parameters()[:2], lr=0.1, mu=0.5)
        with pytest.raises(ValueError, match="entries"):
            opt.set_anchor_flat(np.zeros(layout.n_params), layout)
