"""ArrayDataset container."""

from __future__ import annotations

import numpy as np
import pytest

from repro.data.dataset import ArrayDataset


def _dataset(n=20, n_classes=4, seed=0) -> ArrayDataset:
    rng = np.random.default_rng(seed)
    return ArrayDataset(
        rng.standard_normal((n, 1, 4, 4)).astype(np.float32),
        rng.integers(0, n_classes, size=n),
        n_classes,
        "toy",
    )


class TestValidation:
    def test_wrong_ndim(self):
        with pytest.raises(ValueError, match="N, C, H, W"):
            ArrayDataset(np.zeros((3, 4)), np.zeros(3, dtype=int), 2)

    def test_label_length_mismatch(self):
        with pytest.raises(ValueError, match="labels shape"):
            ArrayDataset(np.zeros((3, 1, 2, 2)), np.zeros(4, dtype=int), 2)

    def test_label_out_of_range(self):
        with pytest.raises(ValueError, match="labels must lie"):
            ArrayDataset(np.zeros((2, 1, 2, 2)), np.array([0, 5]), 2)

    def test_dtype_coercion(self):
        ds = ArrayDataset(
            np.zeros((2, 1, 2, 2), dtype=np.float64), np.array([0, 1]), 2
        )
        assert ds.images.dtype == np.float32
        assert ds.labels.dtype == np.int64


class TestOperations:
    def test_len_and_shape(self):
        ds = _dataset(15)
        assert len(ds) == 15
        assert ds.input_shape == (1, 4, 4)

    def test_subset_copies(self):
        ds = _dataset()
        sub = ds.subset(np.array([0, 2, 4]))
        sub.images[0] = 99.0
        assert ds.images[0, 0, 0, 0] != 99.0
        assert len(sub) == 3
        assert sub.name == "toy"

    def test_split_sizes(self, rng):
        ds = _dataset(10)
        train, test = ds.split(0.3, rng)
        assert len(train) == 7 and len(test) == 3

    def test_split_disjoint_and_complete(self, rng):
        ds = _dataset(10)
        # Stamp a recognisable value per row to track identity.
        for i in range(10):
            ds.images[i, 0, 0, 0] = float(i)
        train, test = ds.split(0.2, rng)
        seen = sorted(
            [int(x) for x in train.images[:, 0, 0, 0]]
            + [int(x) for x in test.images[:, 0, 0, 0]]
        )
        assert seen == list(range(10))

    def test_split_always_leaves_both_sides(self, rng):
        ds = _dataset(2)
        train, test = ds.split(0.01, rng)
        assert len(train) == 1 and len(test) == 1

    def test_split_single_sample_raises(self, rng):
        with pytest.raises(ValueError, match="at least 2"):
            _dataset(1).split(0.5, rng)

    def test_split_fraction_validation(self, rng):
        with pytest.raises(ValueError, match="test_fraction"):
            _dataset().split(0.0, rng)
