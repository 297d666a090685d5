"""Client-state stores: row contract, sharding, checkpoints.

The invariants under test are the ones the population-scale path rests
on (see the ``repro.fl.store`` module docstring): a stored row reads
back as exactly ``layout.round_trip(row)`` at the layout dtype for any
float64 input, dense and sharded stores are bit-interchangeable, and
checkpoints restore across kinds to exactly the file's rows.
"""

from __future__ import annotations

from collections import OrderedDict

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.fl.store import (
    DenseStore,
    ShardedStore,
    StoreConfig,
    StoreRows,
    make_store,
)
from repro.nn.state_flat import StateLayout


def _layout() -> StateLayout:
    """Multi-key float32 layout — round_trip rounds float64 rows."""
    rng = np.random.default_rng(0)
    state = OrderedDict(
        [
            ("conv.weight", rng.standard_normal((3, 2, 2)).astype(np.float32)),
            ("conv.bias", rng.standard_normal(3).astype(np.float32)),
            ("fc.weight", rng.standard_normal((4, 5)).astype(np.float32)),
            ("fc.bias", rng.standard_normal(4).astype(np.float32)),
        ]
    )
    return StateLayout.from_state(state)


def _f32_layout(p: int = 24) -> StateLayout:
    """Single-key float32 layout."""
    state = OrderedDict(
        [("w", np.zeros(p, dtype=np.float32))]
    )
    return StateLayout.from_state(state)


def _base_row(layout: StateLayout, seed: int = 1) -> np.ndarray:
    return np.random.default_rng(seed).standard_normal(layout.n_params)


_P = _layout().n_params


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

    def test_rejects_path_on_dense(self):
        with pytest.raises(ValueError, match="sharded"):
            StoreConfig(kind="dense", path="/tmp/x")

    def test_describe_round_trips(self):
        cfg = StoreConfig(kind="sharded", shard_size=17)
        assert StoreConfig(**cfg.describe()) == cfg


class TestQuantisationContract:
    """``get`` must return exactly ``layout.round_trip(row)`` — the
    bit-identity bridge between the store and the historical dict path."""

    @settings(max_examples=30, deadline=None)
    @given(row=_row_strategy(_P), kind=st.sampled_from(["dense", "sharded"]))
    def test_get_is_round_trip(self, row, kind):
        layout = _layout()
        store = make_store(
            StoreConfig(kind=kind, shard_size=3), 5, layout, _base_row(layout)
        )
        store.set(2, row)
        got = store.get(2)
        assert got.dtype == layout.dtype == np.float32
        np.testing.assert_array_equal(got, layout.round_trip(row))

    @settings(max_examples=30, deadline=None)
    @given(row=_row_strategy(24))
    def test_f32_wire_quantisation_bound(self, row):
        layout = _f32_layout()
        assert layout.dtype == np.float32
        store = DenseStore(4, layout, np.zeros(24))
        store.set(0, row)
        got = store.get(0)
        np.testing.assert_array_equal(got, row.astype(np.float32))
        # one float32 rounding step, never more
        assert np.allclose(got, row, rtol=2.0**-23, atol=1e-38)

    def test_get_returns_fresh_rows(self):
        layout = _layout()
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
        layout = _layout()
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
        layout = _layout()
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
        layout = _layout()
        base = _base_row(layout)
        src = self._filled(
            make_store(StoreConfig(kind=src_kind, shard_size=3), 10, layout, base),
            [(0, 7), (4, 8), (9, 9)],
        )
        dst = make_store(StoreConfig(kind=dst_kind, shard_size=4), 10, layout, base)
        dst.restore(src.contents())
        ids = np.arange(10)
        np.testing.assert_array_equal(dst.rows(ids), src.rows(ids))

    @pytest.mark.parametrize(
        "src_cfg, dst_cfg",
        [
            (StoreConfig(kind="sharded", shard_size=3), StoreConfig(kind="dense")),
            (
                StoreConfig(kind="sharded", shard_size=2),
                StoreConfig(kind="sharded", shard_size=4),
            ),
            (StoreConfig(kind="dense"), StoreConfig(kind="sharded", shard_size=4)),
        ],
        ids=["dense-from-sharded", "sharded-from-resharded", "sharded-from-dense"],
    )
    def test_restore_drops_rows_written_before(self, src_cfg, dst_cfg):
        """A restore leaves exactly the file's rows: a client the store
        wrote before, whose row in the file is the base, reads the base."""
        layout = _layout()
        base = _base_row(layout)
        src = self._filled(make_store(src_cfg, 10, layout, base), [(0, 7), (4, 8)])
        dst = self._filled(make_store(dst_cfg, 10, layout, base), [(5, 3), (4, 1)])
        dst.restore(src.contents())
        np.testing.assert_array_equal(dst.get(5), layout.round_trip(base))
        ids = np.arange(10)
        np.testing.assert_array_equal(dst.rows(ids), src.rows(ids))

    def test_same_geometry_restore_preserves_sparsity(self):
        layout = _layout()
        base = _base_row(layout)
        src = self._filled(
            ShardedStore(40, layout, base, shard_size=8), [(3, 1), (30, 2)]
        )
        dst = ShardedStore(40, layout, base, shard_size=8)
        dst.restore(src.contents())
        assert dst.n_resident_shards == src.n_resident_shards == 2
        np.testing.assert_array_equal(
            dst.rows(np.arange(40)), src.rows(np.arange(40))
        )

    def test_restore_rejects_wrong_population(self):
        layout = _f32_layout()
        store = DenseStore(4, layout, np.zeros(24))
        with pytest.raises(ValueError, match="shape"):
            store.restore(
                StoreRows(
                    np.zeros(24, np.float32),
                    {cid: np.zeros(24, np.float32) for cid in range(5)},
                )
            )

    def test_restore_rejects_population_mismatch_sharded(self):
        layout = _f32_layout()
        store = ShardedStore(4, layout, np.zeros(24), shard_size=2)
        with pytest.raises(ValueError, match="population"):
            store.restore(
                StoreRows(np.zeros(24, np.float32), {7: np.zeros(24, np.float32)})
            )


class TestMemmapShards:
    def test_memmap_round_trip(self, tmp_path):
        layout = _layout()
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
        dst = ShardedStore(
            9, layout, np.zeros(24), shard_size=3, path=str(tmp_path)
        )
        dst.restore(src.contents())
        np.testing.assert_array_equal(dst.rows(np.arange(9)), src.rows(np.arange(9)))
