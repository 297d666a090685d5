"""Hierarchical clustering, cross-validated against scipy."""

from __future__ import annotations

import numpy as np
import pytest
from scipy.cluster.hierarchy import cophenet, fcluster
from scipy.cluster.hierarchy import linkage as scipy_linkage
from scipy.spatial.distance import squareform

from repro.cluster.distance import pairwise_euclidean
from repro.cluster.hierarchy import (
    LINKAGE_METHODS,
    auto_cut_gap,
    canonical_labels,
    cophenetic_matrix,
    cut_by_k,
    linkage,
    merge_heights,
)
from repro.cluster.metrics import adjusted_rand_index


def _planted(rng, centers, per=6, spread=0.2):
    points = np.vstack(
        [c + spread * rng.standard_normal((per, len(c))) for c in centers]
    )
    truth = np.repeat(np.arange(len(centers)), per)
    return points, truth


class TestAgainstScipy:
    @pytest.mark.parametrize("method", LINKAGE_METHODS)
    def test_cophenetic_matrix_matches(self, method, rng):
        for _ in range(3):
            x = rng.standard_normal((11, 4))
            d = pairwise_euclidean(x)
            ours = cophenetic_matrix(linkage(d, method))
            theirs = squareform(
                cophenet(scipy_linkage(squareform(d, checks=False), method=method))
            )
            np.testing.assert_allclose(ours, theirs, rtol=1e-8, atol=1e-10)

    @pytest.mark.parametrize("method", LINKAGE_METHODS)
    def test_cut_by_k_matches_fcluster(self, method, rng):
        x = rng.standard_normal((10, 3))
        d = pairwise_euclidean(x)
        z_ours = linkage(d, method)
        z_scipy = scipy_linkage(squareform(d, checks=False), method=method)
        for k in (2, 3, 5):
            ours = cut_by_k(z_ours, k)
            theirs = canonical_labels(fcluster(z_scipy, k, criterion="maxclust"))
            assert adjusted_rand_index(ours, theirs) == pytest.approx(1.0)

    def test_heights_ascend_for_monotonic_linkages(self, rng):
        x = rng.standard_normal((12, 3))
        d = pairwise_euclidean(x)
        for method in ("single", "complete", "average", "ward"):
            heights = merge_heights(linkage(d, method))
            assert (np.diff(heights) >= -1e-10).all()


class TestCuts:
    def test_cut_by_k_extremes(self, rng):
        d = pairwise_euclidean(rng.standard_normal((6, 2)))
        z = linkage(d, "average")
        assert cut_by_k(z, 1).max() == 0
        assert len(np.unique(cut_by_k(z, 6))) == 6

    def test_cut_by_k_validation(self, rng):
        z = linkage(pairwise_euclidean(rng.standard_normal((4, 2))), "average")
        with pytest.raises(ValueError, match="k must be"):
            cut_by_k(z, 0)
        with pytest.raises(ValueError, match="k must be"):
            cut_by_k(z, 5)


class TestAutoGap:
    @pytest.mark.parametrize("n_groups", [2, 3, 4])
    def test_recovers_planted_k(self, n_groups, rng):
        centers = [np.array([20.0 * i, 0.0]) for i in range(n_groups)]
        points, truth = _planted(rng, centers)
        labels = auto_cut_gap(linkage(pairwise_euclidean(points), "average"))
        assert len(np.unique(labels)) == n_groups
        assert adjusted_rand_index(truth, labels) == pytest.approx(1.0)

    def test_max_clusters_bound(self, rng):
        centers = [np.array([30.0 * i, 0.0]) for i in range(4)]
        points, _ = _planted(rng, centers)
        labels = auto_cut_gap(
            linkage(pairwise_euclidean(points), "average"), max_clusters=2
        )
        assert len(np.unique(labels)) <= 2

    def test_min_gap_ratio_declares_homogeneous(self, rng):
        # Pure noise: the guard should collapse to one cluster.
        d = pairwise_euclidean(rng.standard_normal((10, 2)))
        labels = auto_cut_gap(linkage(d, "average"), min_gap_ratio=0.9)
        assert len(np.unique(labels)) == 1

    def test_two_points(self):
        d = np.array([[0.0, 1.0], [1.0, 0.0]])
        labels = auto_cut_gap(linkage(d, "average"))
        assert len(labels) == 2


class TestStructure:
    def test_linkage_matrix_format(self, rng):
        d = pairwise_euclidean(rng.standard_normal((7, 3)))
        z = linkage(d, "complete")
        assert z.shape == (6, 4)
        # Sizes column ends with the full set.
        assert z[-1, 3] == 7
        # Child ids are valid.
        assert (z[:, :2] >= 0).all() and (z[:, :2] < 2 * 7 - 1).all()

    def test_canonical_labels(self):
        np.testing.assert_array_equal(
            canonical_labels(np.array([9, 4, 9, 7])), [0, 1, 0, 2]
        )

    def test_single_point_raises(self):
        with pytest.raises(ValueError, match="at least 2"):
            linkage(np.zeros((1, 1)), "average")

    def test_unknown_method_raises(self, rng):
        d = pairwise_euclidean(rng.standard_normal((4, 2)))
        with pytest.raises(ValueError, match="unknown linkage"):
            linkage(d, "centroid")

    def test_tied_distances_deterministic(self):
        # Four equidistant-ish points with exact ties.
        d = np.array(
            [
                [0.0, 1.0, 2.0, 2.0],
                [1.0, 0.0, 2.0, 2.0],
                [2.0, 2.0, 0.0, 1.0],
                [2.0, 2.0, 1.0, 0.0],
            ]
        )
        z1 = linkage(d, "average")
        z2 = linkage(d, "average")
        np.testing.assert_array_equal(z1, z2)
        labels = cut_by_k(z1, 2)
        np.testing.assert_array_equal(labels, [0, 0, 1, 1])
