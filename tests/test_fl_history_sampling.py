"""Run histories and client sampling."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.fl.history import RoundRecord, RunHistory
from repro.fl.sampling import full_participation, sample_from, uniform_sample


def _record(i, acc=0.5, up=100, down=100):
    return RoundRecord(
        round_index=i,
        mean_train_loss=1.0 / i,
        mean_local_accuracy=acc,
        n_participants=4,
        n_clusters=1,
        uploaded_params=up * i,
        downloaded_params=down * i,
    )


class TestRunHistory:
    def test_append_and_curves(self):
        history = RunHistory("fedavg", "fmnist_like", 0)
        for i in range(1, 4):
            history.append(_record(i, acc=0.2 * i))
        assert history.n_rounds == 3
        np.testing.assert_allclose(history.accuracy_curve(), [0.2, 0.4, 0.6])
        assert history.final_accuracy == pytest.approx(0.6)
        assert history.best_accuracy == pytest.approx(0.6)

    def test_append_out_of_order_raises(self):
        history = RunHistory("fedavg", "fmnist_like", 0)
        history.append(_record(2))
        with pytest.raises(ValueError, match="not after"):
            history.append(_record(2))

    def test_empty_history_nan(self):
        history = RunHistory("fedavg", "fmnist_like", 0)
        assert np.isnan(history.final_accuracy)

    def test_rounds_to_accuracy(self):
        history = RunHistory("x", "y", 0)
        for i, acc in enumerate([0.3, 0.5, 0.9], start=1):
            history.append(_record(i, acc=acc))
        assert history.rounds_to_accuracy(0.5) == 2
        assert history.rounds_to_accuracy(0.95) is None

    def test_to_dict_jsonable(self):
        from repro.utils.serialization import to_jsonable

        history = RunHistory("x", "y", 0)
        history.append(_record(1))
        payload = to_jsonable(history.to_dict())
        assert payload["n_rounds"] == 1


class TestSampling:
    def test_full_participation(self):
        np.testing.assert_array_equal(full_participation(5), np.arange(5))

    def test_uniform_sample_size(self, rng):
        picked = uniform_sample(10, 0.3, rng)
        assert len(picked) == 3
        assert len(np.unique(picked)) == 3
        assert (np.diff(picked) > 0).all()  # sorted

    def test_min_clients_floor(self, rng):
        picked = uniform_sample(10, 0.01, rng, min_clients=2)
        assert len(picked) == 2

    def test_fraction_one_can_pick_all(self, rng):
        assert len(uniform_sample(7, 1.0, rng)) == 7

    def test_validation(self, rng):
        with pytest.raises(ValueError):
            uniform_sample(0, 0.5, rng)
        with pytest.raises(ValueError):
            uniform_sample(5, 0.0, rng)
        with pytest.raises(ValueError):
            uniform_sample(5, 1.5, rng)

    def test_min_clients_above_population_raises(self, rng):
        """A floor above the population is a config error, not a silent
        clamp to full participation."""
        with pytest.raises(ValueError, match="min_clients"):
            uniform_sample(5, 0.5, rng, min_clients=6)

    def test_min_clients_equal_population_is_full(self, rng):
        np.testing.assert_array_equal(
            uniform_sample(5, 0.2, rng, min_clients=5), np.arange(5)
        )

    @settings(deadline=None, max_examples=60)
    @given(
        n_clients=st.integers(1, 64),
        fraction=st.floats(0.01, 1.0),
        min_clients=st.integers(1, 64),
        seed=st.integers(0, 2**31 - 1),
    )
    def test_uniform_sample_properties(self, n_clients, fraction, min_clients, seed):
        """Sorted unique in-range ids, deterministic in the generator
        state, exact pick count — or a ValueError for an impossible floor."""
        if min_clients > n_clients:
            with pytest.raises(ValueError, match="min_clients"):
                uniform_sample(
                    n_clients, fraction, np.random.default_rng(seed), min_clients
                )
            return
        picked = uniform_sample(
            n_clients, fraction, np.random.default_rng(seed), min_clients
        )
        again = uniform_sample(
            n_clients, fraction, np.random.default_rng(seed), min_clients
        )
        np.testing.assert_array_equal(picked, again)
        expected = min(
            n_clients, max(min_clients, int(round(fraction * n_clients)))
        )
        assert len(picked) == expected
        assert len(np.unique(picked)) == len(picked)
        assert (np.diff(picked) > 0).all() if len(picked) > 1 else True
        assert picked.min() >= 0 and picked.max() < n_clients

    @settings(deadline=None, max_examples=30)
    @given(
        n_clients=st.integers(1, 64),
        fraction=st.floats(0.01, 1.0),
        seed=st.integers(0, 2**31 - 1),
    )
    def test_sample_from_full_population_matches_uniform(
        self, n_clients, fraction, seed
    ):
        """With every client eligible, the subset sampler reduces to
        uniform_sample — same draw from the same generator state."""
        a = uniform_sample(n_clients, fraction, np.random.default_rng(seed))
        b = sample_from(
            np.arange(n_clients), fraction, np.random.default_rng(seed)
        )
        np.testing.assert_array_equal(a, b)

    def test_sample_from_subset_stays_in_subset(self, rng):
        eligible = np.array([2, 5, 7, 11, 13])
        picked = sample_from(eligible, 0.6, rng)
        assert set(picked) <= set(eligible.tolist())
        assert len(picked) == 3
        assert (np.diff(picked) > 0).all()
