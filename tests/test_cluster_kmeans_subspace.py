"""Subspace utilities (the PACFL substrate)."""

from __future__ import annotations

import numpy as np
import pytest

from repro.cluster.subspace import (
    data_subspace,
    pairwise_subspace_distances,
    principal_angles,
    subspace_distance,
)


class TestSubspace:
    def test_orthonormal_basis(self, rng):
        x = rng.standard_normal((20, 8))
        u = data_subspace(x, 3)
        assert u.shape == (8, 3)
        np.testing.assert_allclose(u.T @ u, np.eye(3), atol=1e-10)

    def test_p_capped_at_rank_bound(self, rng):
        x = rng.standard_normal((2, 8))
        u = data_subspace(x, 5)
        assert u.shape[1] == 2

    def test_identical_subspace_zero_distance(self, rng):
        x = rng.standard_normal((15, 6))
        u = data_subspace(x, 2)
        assert subspace_distance(u, u) == pytest.approx(0.0, abs=1e-8)

    def test_orthogonal_subspaces_max_angle(self):
        u = np.eye(4)[:, :2]
        v = np.eye(4)[:, 2:]
        angles = principal_angles(u, v)
        np.testing.assert_allclose(angles, np.pi / 2, atol=1e-10)
        assert subspace_distance(u, v) == pytest.approx(np.pi, abs=1e-8)

    def test_rotation_within_span_is_free(self, rng):
        u = np.linalg.qr(rng.standard_normal((6, 2)))[0]
        rotation = np.linalg.qr(rng.standard_normal((2, 2)))[0]
        assert subspace_distance(u, u @ rotation) == pytest.approx(0.0, abs=1e-6)

    def test_angles_sorted_and_bounded(self, rng):
        u = np.linalg.qr(rng.standard_normal((8, 3)))[0]
        v = np.linalg.qr(rng.standard_normal((8, 3)))[0]
        angles = principal_angles(u, v)
        assert (np.diff(angles) >= -1e-12).all()
        assert (angles >= 0).all() and (angles <= np.pi / 2 + 1e-12).all()

    def test_ambient_mismatch_raises(self, rng):
        with pytest.raises(ValueError, match="ambient"):
            principal_angles(np.eye(3)[:, :1], np.eye(4)[:, :1])

    def test_pairwise_matrix(self, rng):
        bases = [np.linalg.qr(rng.standard_normal((6, 2)))[0] for _ in range(4)]
        d = pairwise_subspace_distances(bases)
        assert d.shape == (4, 4)
        np.testing.assert_allclose(d, d.T)
        np.testing.assert_allclose(np.diag(d), 0.0, atol=1e-8)

    def test_distribution_signal(self, rng):
        """Clients with the same class mix have closer data subspaces —
        the PACFL premise."""
        from repro.data.synthetic import SPECS, generate_dataset

        spec = SPECS["fmnist_like"]
        same_a = generate_dataset(spec, 60, 1, labels=np.repeat([0, 1, 2], 20))
        same_b = generate_dataset(spec, 60, 2, labels=np.repeat([0, 1, 2], 20))
        other = generate_dataset(spec, 60, 3, labels=np.repeat([7, 8, 9], 20))
        u = [
            data_subspace(ds.images.reshape(60, -1), 3)
            for ds in (same_a, same_b, other)
        ]
        assert subspace_distance(u[0], u[1]) < subspace_distance(u[0], u[2])
