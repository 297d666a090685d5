"""Cluster-quality metrics."""

from __future__ import annotations

import numpy as np
import pytest

from repro.cluster.distance import pairwise_euclidean
from repro.cluster.metrics import (
    adjusted_rand_index,
    contingency_table,
    group_separability,
    silhouette_score,
)


class TestContingency:
    def test_counts(self):
        table = contingency_table(np.array([0, 0, 1, 1]), np.array([1, 1, 0, 1]))
        np.testing.assert_array_equal(table, [[0, 2], [1, 1]])

    def test_length_mismatch(self):
        with pytest.raises(ValueError, match="length"):
            contingency_table(np.zeros(3), np.zeros(4))


class TestARI:
    def test_identical_partitions(self):
        labels = np.array([0, 0, 1, 1, 2])
        assert adjusted_rand_index(labels, labels) == pytest.approx(1.0)

    def test_permutation_invariance(self):
        a = np.array([0, 0, 1, 1, 2, 2])
        b = np.array([2, 2, 0, 0, 1, 1])  # same partition, renamed
        assert adjusted_rand_index(a, b) == pytest.approx(1.0)

    def test_independent_partitions_near_zero(self, rng):
        a = rng.integers(0, 3, size=2000)
        b = rng.integers(0, 3, size=2000)
        assert abs(adjusted_rand_index(a, b)) < 0.05

    def test_known_value(self):
        # Classic example: ARI of this pair is 0.24242...
        a = np.array([0, 0, 0, 1, 1, 1])
        b = np.array([0, 0, 1, 1, 2, 2])
        assert adjusted_rand_index(a, b) == pytest.approx(0.2424, abs=1e-3)

    def test_trivial_partitions(self):
        ones = np.zeros(5, dtype=int)
        assert adjusted_rand_index(ones, ones) == 1.0


class TestSilhouette:
    def test_well_separated_near_one(self, rng):
        points = np.vstack(
            [rng.standard_normal((8, 2)) * 0.05, rng.standard_normal((8, 2)) * 0.05 + 50]
        )
        labels = np.repeat([0, 1], 8)
        score = silhouette_score(pairwise_euclidean(points), labels)
        assert score > 0.95

    def test_random_labels_near_zero(self, rng):
        points = rng.standard_normal((40, 2))
        labels = rng.integers(0, 2, size=40)
        score = silhouette_score(pairwise_euclidean(points), labels)
        assert abs(score) < 0.35

    def test_single_cluster_raises(self, rng):
        d = pairwise_euclidean(rng.standard_normal((5, 2)))
        with pytest.raises(ValueError, match="at least 2"):
            silhouette_score(d, np.zeros(5, dtype=int))

    def test_all_singletons_raises(self, rng):
        d = pairwise_euclidean(rng.standard_normal((4, 2)))
        with pytest.raises(ValueError, match="singleton"):
            silhouette_score(d, np.arange(4))


class TestSeparability:
    def test_block_structure_large(self, rng):
        points = np.vstack(
            [rng.standard_normal((6, 2)), rng.standard_normal((6, 2)) + 100]
        )
        groups = np.repeat([0, 1], 6)
        assert group_separability(pairwise_euclidean(points), groups) > 10

    def test_no_structure_near_one(self, rng):
        d = pairwise_euclidean(rng.standard_normal((20, 5)))
        groups = np.tile([0, 1], 10)
        assert group_separability(d, groups) == pytest.approx(1.0, abs=0.3)

    def test_single_group_nan(self, rng):
        d = pairwise_euclidean(rng.standard_normal((4, 2)))
        assert np.isnan(group_separability(d, np.zeros(4, dtype=int)))

    def test_all_singletons_inf(self, rng):
        d = pairwise_euclidean(rng.standard_normal((4, 2)))
        assert group_separability(d, np.arange(4)) == float("inf")
