"""FedClust's one-shot clustering step and cut strategies."""

from __future__ import annotations

import numpy as np
import pytest

from repro.cluster.distance import pairwise_euclidean
from repro.cluster.metrics import adjusted_rand_index
from repro.core.clustering import (
    ClusteringConfig,
    cluster_clients,
    silhouette_cut,
)
from repro.cluster.hierarchy import linkage


def _blocks(rng, sizes, gap=30.0, spread=0.5):
    points, truth = [], []
    for g, size in enumerate(sizes):
        points.append(rng.standard_normal((size, 3)) * spread + g * gap)
        truth.extend([g] * size)
    return pairwise_euclidean(np.vstack(points)), np.array(truth)


class TestConfig:
    def test_defaults(self):
        cfg = ClusteringConfig()
        assert cfg.linkage_method == "average"
        assert cfg.cut == "auto"

    def test_bad_linkage(self):
        with pytest.raises(ValueError, match="linkage"):
            ClusteringConfig(linkage_method="centroid")

    def test_bad_cut(self):
        for cut in ("elbow", "k", "distance"):
            with pytest.raises(ValueError, match="cut"):
                ClusteringConfig(cut=cut)

    @pytest.mark.parametrize("cut", ["auto", "silhouette"])
    @pytest.mark.parametrize("max_clusters", [0, -2])
    def test_max_clusters_below_one_is_rejected_when_built(self, cut, max_clusters):
        """Unchecked, the silhouette cut read 0 as "no cap" and -2 as one
        cluster, and the auto cut raised only once a cut ran (for
        FedClust, after every client's warm-up)."""
        with pytest.raises(ValueError, match="max_clusters must be >= 1"):
            ClusteringConfig(cut=cut, max_clusters=max_clusters)


class TestCuts:
    def test_auto_recovers_planted(self, rng):
        d, truth = _blocks(rng, [5, 5, 5])
        result = cluster_clients(d)
        assert result.n_clusters == 3
        assert adjusted_rand_index(truth, result.labels) == 1.0

    def test_silhouette_recovers_planted(self, rng):
        d, truth = _blocks(rng, [6, 4, 5])
        result = cluster_clients(d, ClusteringConfig(cut="silhouette"))
        assert adjusted_rand_index(truth, result.labels) == 1.0

    def test_max_clusters_bound(self, rng):
        d, _ = _blocks(rng, [4, 4, 4, 4])
        result = cluster_clients(
            d, ClusteringConfig(cut="silhouette", max_clusters=2)
        )
        assert result.n_clusters <= 2

    def test_min_gap_ratio_guard(self, rng):
        d = pairwise_euclidean(rng.standard_normal((12, 3)))
        result = cluster_clients(d, ClusteringConfig(min_gap_ratio=0.9))
        assert result.n_clusters == 1

    def test_silhouette_cut_unclusterable_fallback(self):
        d = np.zeros((4, 4))  # all points coincide
        z = linkage(d, "average")
        labels = silhouette_cut(d, z)
        assert len(np.unique(labels)) >= 1  # no crash on degenerate input

    def test_silhouette_tolerance_prefers_finer_on_flat_structure(self, rng):
        """Four crisp sub-blocks arranged as two super-blocks: with zero
        tolerance the cut may stop at the coarse 2-way split; with the
        default tolerance it must go at least as fine."""
        sub = [
            rng.standard_normal((4, 3)) * 0.2 + offset
            for offset in ([0, 0, 0], [8, 0, 0], [100, 0, 0], [108, 0, 0])
        ]
        d = pairwise_euclidean(np.vstack(sub))
        z = linkage(d, "average")
        coarse = silhouette_cut(d, z, tolerance=0.0)
        fine = silhouette_cut(d, z, tolerance=0.25)
        assert len(np.unique(fine)) >= len(np.unique(coarse))

    def test_silhouette_tolerance_keeps_crisp_structure_exact(self, rng):
        d, truth = _blocks(rng, [6, 6], gap=50.0, spread=0.3)
        labels = silhouette_cut(d, linkage(d, "average"), tolerance=0.05)
        from repro.cluster.metrics import adjusted_rand_index

        assert adjusted_rand_index(truth, labels) == 1.0

    def test_silhouette_negative_tolerance_raises(self, rng):
        d, _ = _blocks(rng, [3, 3])
        with pytest.raises(ValueError, match="tolerance"):
            silhouette_cut(d, linkage(d, "average"), tolerance=-0.1)


class TestResult:
    def test_members_and_sizes(self, rng):
        d, truth = _blocks(rng, [4, 6])
        result = cluster_clients(d)
        sizes = result.sizes()
        assert sorted(sizes.tolist()) == [4, 6]
        assert sum(len(result.members_of(g)) for g in range(result.n_clusters)) == 10

    def test_members_of_validation(self, rng):
        d, _ = _blocks(rng, [4, 4])
        result = cluster_clients(d)
        with pytest.raises(ValueError):
            result.members_of(99)

    def test_linkage_matrix_shape(self, rng):
        d, _ = _blocks(rng, [3, 3])
        result = cluster_clients(d)
        assert result.linkage_matrix.shape == (5, 4)
