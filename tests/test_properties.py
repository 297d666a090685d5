"""Property-based tests (hypothesis) on core data structures and invariants."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from repro.cluster.distance import (
    pairwise_cosine_similarity,
    pairwise_euclidean,
    validate_distance_matrix,
)
from repro.cluster.hierarchy import cut_by_k, linkage, merge_heights
from repro.cluster.metrics import (
    adjusted_rand_index,
    normalized_mutual_information,
    purity,
)
from repro.data.partition import check_partition, dirichlet_partition, iid_partition
from repro.fl.aggregation import packed_weighted_average
from repro.nn.functional import one_hot, softmax

# ---------------------------------------------------------------------------
# Strategies
# ---------------------------------------------------------------------------

finite_matrix = lambda rows, cols: arrays(  # noqa: E731
    np.float64,
    (rows, cols),
    elements=st.floats(-50, 50, allow_nan=False, allow_infinity=False),
)

label_arrays = st.lists(st.integers(0, 4), min_size=2, max_size=40).map(np.array)


class TestDistanceProperties:
    @given(x=st.integers(3, 12).flatmap(lambda n: finite_matrix(n, 4)))
    @settings(max_examples=40, deadline=None)
    def test_euclidean_is_valid_distance_matrix(self, x):
        d = pairwise_euclidean(x)
        validate_distance_matrix(d)  # symmetric, non-negative, zero diagonal

    @given(x=st.integers(3, 10).flatmap(lambda n: finite_matrix(n, 3)))
    @settings(max_examples=40, deadline=None)
    def test_triangle_inequality(self, x):
        d = pairwise_euclidean(x)
        n = d.shape[0]
        for i in range(n):
            for j in range(n):
                for k in range(n):
                    assert d[i, j] <= d[i, k] + d[k, j] + 1e-8

    @given(x=st.integers(2, 8).flatmap(lambda n: finite_matrix(n, 5)))
    @settings(max_examples=40, deadline=None)
    def test_cosine_similarity_bounded(self, x):
        sim = pairwise_cosine_similarity(x)
        assert (sim >= -1.0 - 1e-12).all() and (sim <= 1.0 + 1e-12).all()

    @given(
        x=st.integers(3, 10).flatmap(lambda n: finite_matrix(n, 4)),
        scale=st.floats(0.1, 10.0),
    )
    @settings(max_examples=30, deadline=None)
    def test_euclidean_homogeneity(self, x, scale):
        np.testing.assert_allclose(
            pairwise_euclidean(x * scale),
            scale * pairwise_euclidean(x),
            rtol=1e-7,
            atol=1e-8,
        )


class TestHierarchyProperties:
    @given(x=st.integers(4, 12).flatmap(lambda n: finite_matrix(n, 3)))
    @settings(max_examples=30, deadline=None)
    def test_average_linkage_monotone_heights(self, x):
        d = pairwise_euclidean(x)
        heights = merge_heights(linkage(d, "average"))
        assert (np.diff(heights) >= -1e-9).all()

    @given(
        x=st.integers(4, 10).flatmap(lambda n: finite_matrix(n, 3)),
        k=st.integers(1, 4),
    )
    @settings(max_examples=30, deadline=None)
    def test_cut_by_k_gives_k_clusters(self, x, k):
        d = pairwise_euclidean(x)
        n = d.shape[0]
        k = min(k, n)
        labels = cut_by_k(linkage(d, "complete"), k)
        # Duplicate points can merge at height 0 but cut_by_k still honours k.
        assert len(np.unique(labels)) == k
        assert labels.shape == (n,)


class TestMetricProperties:
    @given(labels=label_arrays)
    @settings(max_examples=40, deadline=None)
    def test_ari_nmi_purity_perfect_on_self(self, labels):
        assert adjusted_rand_index(labels, labels) == pytest.approx(1.0)
        assert normalized_mutual_information(labels, labels) == pytest.approx(1.0)
        assert purity(labels, labels) == 1.0

    @given(labels=label_arrays, offset=st.integers(1, 7))
    @settings(max_examples=40, deadline=None)
    def test_relabelling_invariance(self, labels, offset):
        renamed = (labels + offset) % 11  # injective rename of label ids
        assert adjusted_rand_index(labels, renamed) == pytest.approx(1.0)
        assert normalized_mutual_information(labels, renamed) == pytest.approx(1.0)

    @given(a=label_arrays, b=label_arrays)
    @settings(max_examples=40, deadline=None)
    def test_symmetry_and_bounds(self, a, b):
        n = min(len(a), len(b))
        a, b = a[:n], b[:n]
        ari_ab = adjusted_rand_index(a, b)
        ari_ba = adjusted_rand_index(b, a)
        assert ari_ab == pytest.approx(ari_ba)
        assert -1.0 <= ari_ab <= 1.0
        nmi = normalized_mutual_information(a, b)
        assert 0.0 <= nmi <= 1.0


class TestPartitionProperties:
    @given(
        n=st.integers(40, 200),
        n_clients=st.integers(2, 6),
        alpha=st.floats(0.05, 10.0),
        seed=st.integers(0, 1000),
    )
    @settings(max_examples=25, deadline=None)
    def test_dirichlet_partition_invariants(self, n, n_clients, alpha, seed):
        rng = np.random.default_rng(seed)
        labels = rng.integers(0, 5, size=n)
        parts = dirichlet_partition(labels, n_clients, alpha, seed, min_samples=1)
        check_partition(parts, n)
        assert sum(len(p) for p in parts) <= n
        assert all(len(p) >= 1 for p in parts)

    @given(n=st.integers(10, 100), n_clients=st.integers(1, 8), seed=st.integers(0, 99))
    @settings(max_examples=25, deadline=None)
    def test_iid_partition_covers(self, n, n_clients, seed):
        labels = np.zeros(n, dtype=int)
        parts = iid_partition(labels, n_clients, seed)
        check_partition(parts, n, require_cover=True)


class TestAggregationProperties:
    @staticmethod
    def _rows(values):
        return np.array([np.full(3, float(v)) for v in values])

    @given(values=st.lists(st.floats(-10, 10), min_size=1, max_size=6))
    @settings(max_examples=40, deadline=None)
    def test_average_within_convex_hull(self, values):
        out = packed_weighted_average(self._rows(values), np.ones(len(values)))
        assert min(values) - 1e-9 <= float(out[0]) <= max(values) + 1e-9

    @given(
        value=st.floats(-10, 10),
        n=st.integers(1, 5),
        weights=st.lists(st.floats(0.1, 10), min_size=5, max_size=5),
    )
    @settings(max_examples=40, deadline=None)
    def test_identical_states_are_fixed_point(self, value, n, weights):
        out = packed_weighted_average(self._rows([value] * n), weights[:n])
        np.testing.assert_allclose(out, value, rtol=1e-9, atol=1e-9)


class TestFunctionalProperties:
    @given(
        logits=arrays(
            np.float64,
            (3, 6),
            elements=st.floats(-200, 200, allow_nan=False),
        )
    )
    @settings(max_examples=40, deadline=None)
    def test_softmax_simplex(self, logits):
        s = softmax(logits)
        assert (s >= 0).all()
        np.testing.assert_allclose(s.sum(axis=1), 1.0, rtol=1e-9)

    @given(labels=st.lists(st.integers(0, 9), min_size=1, max_size=30))
    @settings(max_examples=40, deadline=None)
    def test_one_hot_rows(self, labels):
        arr = np.array(labels)
        oh = one_hot(arr, 10)
        np.testing.assert_allclose(oh.sum(axis=1), 1.0)
        assert (oh.argmax(axis=1) == arr).all()
