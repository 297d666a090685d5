"""Client-state stores: quantisation contract, sharding, tiered folds.

The invariants under test are the ones the population-scale path rests
on (see the ``repro.fl.store`` module docstring): a stored row reads
back as exactly ``layout.round_trip(row)`` for any float64 input, dense
and sharded stores are bit-interchangeable, checkpoints restore across
kinds, and tiered aggregation with a single edge is bit-identical to
the flat GEMV the seed pins run on.
"""

from __future__ import annotations

from collections import OrderedDict

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.fl.aggregation import packed_weighted_average
from repro.fl.store import (
    DenseStore,
    ShardedStore,
    StoreConfig,
    make_store,
    tiered_weighted_average,
)
from repro.nn.state_flat import StateLayout


def _mixed_layout() -> StateLayout:
    """Mixed f32/f64 layout — round_trip is lossy per segment."""
    rng = np.random.default_rng(0)
    state = OrderedDict(
        [
            ("conv.weight", rng.standard_normal((3, 2, 2)).astype(np.float32)),
            ("conv.bias", rng.standard_normal(3).astype(np.float64)),
            ("fc.weight", rng.standard_normal((4, 5)).astype(np.float32)),
            ("fc.bias", rng.standard_normal(4).astype(np.float64)),
        ]
    )
    return StateLayout.from_state(state)


def _f32_layout(p: int = 24) -> StateLayout:
    """Single-dtype float32 layout — wire dtype is float32."""
    state = OrderedDict(
        [("w", np.zeros(p, dtype=np.float32))]
    )
    return StateLayout.from_state(state)


def _base_row(layout: StateLayout, seed: int = 1) -> np.ndarray:
    return np.random.default_rng(seed).standard_normal(layout.n_params)


_MIXED_P = _mixed_layout().n_params


def _row_strategy(p: int):
    return st.lists(
        st.floats(
            min_value=-1e6,
            max_value=1e6,
            allow_nan=False,
            allow_infinity=False,
        ),
        min_size=p,
        max_size=p,
    ).map(lambda xs: np.array(xs, dtype=np.float64))


class TestStoreConfig:
    def test_rejects_unknown_kind(self):
        with pytest.raises(ValueError, match="unknown store kind"):
            StoreConfig(kind="mmap")

    def test_rejects_bad_shard_size(self):
        with pytest.raises(ValueError, match="shard_size"):
            StoreConfig(kind="sharded", shard_size=0)

    def test_rejects_negative_edge_size(self):
        with pytest.raises(ValueError, match="edge_size"):
            StoreConfig(edge_size=-1)

    def test_rejects_path_on_dense(self):
        with pytest.raises(ValueError, match="sharded"):
            StoreConfig(kind="dense", path="/tmp/x")

    def test_describe_round_trips(self):
        cfg = StoreConfig(kind="sharded", shard_size=17, edge_size=4)
        assert StoreConfig(**cfg.describe()) == cfg


class TestQuantisationContract:
    """``get`` must return exactly ``layout.round_trip(row)`` — the
    bit-identity bridge between the store and the historical dict path."""

    @settings(max_examples=30, deadline=None)
    @given(row=_row_strategy(_MIXED_P), kind=st.sampled_from(["dense", "sharded"]))
    def test_get_is_round_trip(self, row, kind):
        layout = _mixed_layout()
        store = make_store(
            StoreConfig(kind=kind, shard_size=3), 5, layout, _base_row(layout)
        )
        store.set(2, row)
        got = store.get(2)
        assert got.dtype == np.float64
        np.testing.assert_array_equal(got, layout.round_trip(row))

    @settings(max_examples=30, deadline=None)
    @given(row=_row_strategy(24))
    def test_f32_wire_quantisation_bound(self, row):
        layout = _f32_layout()
        assert layout.wire_dtype == np.float32
        store = DenseStore(4, layout, np.zeros(24))
        store.set(0, row)
        got = store.get(0)
        np.testing.assert_array_equal(got, row.astype(np.float32))
        # one float32 rounding step, never more
        assert np.allclose(got, row, rtol=2.0**-23, atol=1e-38)

    def test_get_returns_fresh_rows(self):
        layout = _mixed_layout()
        store = ShardedStore(4, layout, _base_row(layout), shard_size=2)
        before = store.get(1)
        store.get(1)[:] = 0.0
        np.testing.assert_array_equal(store.get(1), before)
        # virgin reads alias the shared base internally; mutation of the
        # returned row must never leak back into other clients
        np.testing.assert_array_equal(store.get(0), before)

    def test_rejects_out_of_range_ids(self):
        layout = _f32_layout()
        store = DenseStore(3, layout, np.zeros(24))
        with pytest.raises(IndexError):
            store.get(3)
        with pytest.raises(IndexError):
            store.set(-1, np.zeros(24))


class TestDenseShardedEquivalence:
    @settings(max_examples=25, deadline=None)
    @given(
        writes=st.lists(
            st.tuples(st.integers(0, 10), st.integers(0, 2**31 - 1)),
            max_size=12,
        ),
        shard_size=st.integers(1, 13),
    )
    def test_same_contents_under_any_write_sequence(self, writes, shard_size):
        layout = _mixed_layout()
        base = _base_row(layout)
        dense = DenseStore(11, layout, base)
        sharded = ShardedStore(11, layout, base, shard_size=shard_size)
        for cid, seed in writes:
            row = np.random.default_rng(seed).standard_normal(layout.n_params)
            dense.set(cid, row)
            sharded.set(cid, row)
        ids = np.arange(11)
        np.testing.assert_array_equal(dense.rows(ids), sharded.rows(ids))

    def test_sharded_is_lazy(self):
        layout = _mixed_layout()
        store = ShardedStore(64, layout, _base_row(layout), shard_size=8)
        base_only = store.resident_bytes()
        # reads never materialise
        store.get(17)
        store.rows(range(20))
        assert store.n_resident_shards == 0
        assert store.resident_bytes() == base_only
        # one write materialises exactly one shard
        store.set(17, np.ones(layout.n_params))
        assert store.n_resident_shards == 1
        assert store.resident_bytes() > base_only


class TestTieredAggregation:
    @settings(max_examples=30, deadline=None)
    @given(
        n=st.integers(1, 9),
        seed=st.integers(0, 2**31 - 1),
        edge_size=st.integers(0, 12),
    )
    def test_single_edge_is_bit_identical_to_flat(self, n, seed, edge_size):
        rng = np.random.default_rng(seed)
        matrix = rng.standard_normal((n, 7))
        weights = rng.uniform(0.5, 4.0, n)
        flat = packed_weighted_average(matrix, weights)
        if edge_size <= 0 or edge_size >= n:
            np.testing.assert_array_equal(
                tiered_weighted_average(matrix, weights, edge_size), flat
            )
        else:
            np.testing.assert_allclose(
                tiered_weighted_average(matrix, weights, edge_size),
                flat,
                rtol=1e-12,
                atol=1e-12,
            )

    def test_multi_edge_fold_order_is_deterministic(self):
        rng = np.random.default_rng(5)
        matrix = rng.standard_normal((10, 6))
        weights = rng.uniform(0.1, 2.0, 10)
        a = tiered_weighted_average(matrix, weights, 3)
        b = tiered_weighted_average(matrix, weights, 3)
        np.testing.assert_array_equal(a, b)

    def test_rejects_non_matrix(self):
        with pytest.raises(ValueError, match="packed cohort"):
            tiered_weighted_average(np.zeros(4), [1.0], 0)


class TestCheckpointRestore:
    def _filled(self, store, seeds):
        for cid, seed in seeds:
            store.set(
                cid,
                np.random.default_rng(seed).standard_normal(
                    store.layout.n_params
                ),
            )
        return store

    @pytest.mark.parametrize("src_kind", ["dense", "sharded"])
    @pytest.mark.parametrize("dst_kind", ["dense", "sharded"])
    def test_cross_kind_round_trip(self, src_kind, dst_kind):
        layout = _mixed_layout()
        base = _base_row(layout)
        src = self._filled(
            make_store(StoreConfig(kind=src_kind, shard_size=3), 10, layout, base),
            [(0, 7), (4, 8), (9, 9)],
        )
        meta, arrays = src.checkpoint_payload()
        dst = make_store(StoreConfig(kind=dst_kind, shard_size=4), 10, layout, base)
        dst.restore_from(meta, arrays)
        ids = np.arange(10)
        np.testing.assert_array_equal(dst.rows(ids), src.rows(ids))

    def test_same_geometry_restore_preserves_sparsity(self):
        layout = _mixed_layout()
        base = _base_row(layout)
        src = self._filled(
            ShardedStore(40, layout, base, shard_size=8), [(3, 1), (30, 2)]
        )
        meta, arrays = src.checkpoint_payload()
        dst = ShardedStore(40, layout, base, shard_size=8)
        dst.restore_from(meta, arrays)
        assert dst.n_resident_shards == src.n_resident_shards == 2
        np.testing.assert_array_equal(
            dst.rows(np.arange(40)), src.rows(np.arange(40))
        )

    def test_restore_rejects_wrong_population(self):
        layout = _f32_layout()
        store = DenseStore(4, layout, np.zeros(24))
        with pytest.raises(ValueError, match="shape"):
            store.restore_from(
                {"kind": "dense"}, {"states": np.zeros((5, 24), np.float32)}
            )

    def test_restore_rejects_population_mismatch_sharded(self):
        layout = _f32_layout()
        store = ShardedStore(4, layout, np.zeros(24), shard_size=2)
        with pytest.raises(ValueError, match="population"):
            store.restore_from(
                {
                    "kind": "sharded",
                    "shard_size": 2,
                    "n_clients": 8,
                    "shards": [],
                },
                {"base": np.zeros(24, np.float32)},
            )


class TestMemmapShards:
    def test_memmap_round_trip(self, tmp_path):
        layout = _mixed_layout()
        base = _base_row(layout)
        store = ShardedStore(
            20, layout, base, shard_size=4, path=str(tmp_path / "shards")
        )
        row = np.random.default_rng(11).standard_normal(layout.n_params)
        store.set(13, row)
        np.testing.assert_array_equal(store.get(13), layout.round_trip(row))
        # exactly the touched shard exists on disk
        files = sorted(f.name for f in (tmp_path / "shards").iterdir())
        assert files == ["shard_000003.npy"]
        # untouched neighbours in the same shard still read as base
        np.testing.assert_array_equal(store.get(12), layout.round_trip(base))

    def test_memmap_checkpoint_restore(self, tmp_path):
        layout = _f32_layout()
        src = ShardedStore(9, layout, np.zeros(24), shard_size=3)
        src.set(7, np.full(24, 2.5))
        meta, arrays = src.checkpoint_payload()
        dst = ShardedStore(
            9, layout, np.zeros(24), shard_size=3, path=str(tmp_path)
        )
        dst.restore_from(meta, arrays)
        np.testing.assert_array_equal(dst.rows(np.arange(9)), src.rows(np.arange(9)))
