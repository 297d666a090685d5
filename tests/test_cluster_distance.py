"""Pairwise distance kernels, cross-checked against scipy."""

from __future__ import annotations

import numpy as np
import pytest
from scipy.spatial.distance import cdist, pdist

from repro.cluster.distance import (
    condensed_from_square,
    pairwise_cosine_distance,
    pairwise_cosine_similarity,
    pairwise_euclidean,
    pairwise_sqeuclidean,
    square_from_condensed,
    validate_distance_matrix,
)


class TestAgainstScipy:
    def test_euclidean(self, rng):
        x = rng.standard_normal((12, 7))
        np.testing.assert_allclose(
            pairwise_euclidean(x), cdist(x, x), rtol=1e-8, atol=1e-10
        )

    def test_sqeuclidean(self, rng):
        x = rng.standard_normal((9, 4))
        np.testing.assert_allclose(
            pairwise_sqeuclidean(x), cdist(x, x, "sqeuclidean"), rtol=1e-8, atol=1e-9
        )

    def test_cosine(self, rng):
        x = rng.standard_normal((10, 6))
        np.testing.assert_allclose(
            pairwise_cosine_distance(x), cdist(x, x, "cosine"), rtol=1e-8, atol=1e-10
        )


class TestInvariants:
    def test_symmetry_and_zero_diagonal(self, rng):
        d = pairwise_euclidean(rng.standard_normal((8, 3)))
        np.testing.assert_allclose(d, d.T)
        np.testing.assert_allclose(np.diag(d), 0.0)

    def test_nonnegative_despite_rounding(self, rng):
        # Nearly-identical rows stress the Gram-expansion cancellation.
        x = np.repeat(rng.standard_normal((1, 5)), 6, axis=0)
        x += 1e-9 * rng.standard_normal(x.shape)
        assert (pairwise_sqeuclidean(x) >= 0).all()

    def test_cosine_zero_rows(self):
        x = np.array([[0.0, 0.0], [1.0, 0.0]])
        sim = pairwise_cosine_similarity(x)
        assert sim[0, 1] == 0.0
        assert np.isfinite(sim).all()

    def test_cosine_bounded(self, rng):
        sim = pairwise_cosine_similarity(rng.standard_normal((10, 3)))
        assert (sim <= 1.0).all() and (sim >= -1.0).all()


class TestCondensed:
    def test_roundtrip(self, rng):
        d = pairwise_euclidean(rng.standard_normal((7, 3)))
        condensed = condensed_from_square(d)
        np.testing.assert_allclose(square_from_condensed(condensed, 7), d)

    def test_matches_scipy_pdist(self, rng):
        x = rng.standard_normal((7, 3))
        np.testing.assert_allclose(
            condensed_from_square(pairwise_euclidean(x)), pdist(x), rtol=1e-8
        )

    def test_wrong_length_raises(self):
        with pytest.raises(ValueError, match="condensed length"):
            square_from_condensed(np.zeros(5), 4)


class TestValidation:
    def test_rejects_asymmetric(self):
        d = np.array([[0.0, 1.0], [2.0, 0.0]])
        with pytest.raises(ValueError, match="symmetric"):
            validate_distance_matrix(d)

    def test_rejects_negative(self):
        d = np.array([[0.0, -1.0], [-1.0, 0.0]])
        with pytest.raises(ValueError, match="negative"):
            validate_distance_matrix(d)

    def test_rejects_nonzero_diagonal(self):
        d = np.array([[1.0, 2.0], [2.0, 1.0]])
        with pytest.raises(ValueError, match="diagonal"):
            validate_distance_matrix(d)

    def test_rejects_nonsquare(self):
        with pytest.raises(ValueError, match="square"):
            validate_distance_matrix(np.zeros((2, 3)))

    def test_nan_entry_names_the_offending_pair(self):
        d = np.zeros((4, 4))
        d[1, 3] = d[3, 1] = np.nan
        with pytest.raises(ValueError, match=r"non-finite entry d\[1, 3\]"):
            validate_distance_matrix(d)

    def test_inf_entry_names_the_offending_pair(self):
        d = np.zeros((3, 3))
        d[0, 2] = d[2, 0] = np.inf
        with pytest.raises(ValueError, match=r"non-finite entry d\[0, 2\] = inf"):
            validate_distance_matrix(d)

    def test_finiteness_is_checked_before_symmetry(self):
        # A NaN also breaks the symmetry check; the error must still
        # point at the corrupt entry, not the downstream symptom.
        d = np.zeros((3, 3))
        d[0, 1] = np.nan  # asymmetric AND non-finite
        with pytest.raises(ValueError, match="non-finite entry"):
            validate_distance_matrix(d)

    def test_exactifies_small_violations(self):
        d = np.array([[0.0, 1.0], [1.0 + 1e-12, 0.0]])
        out = validate_distance_matrix(d)
        np.testing.assert_allclose(out, out.T)
