"""Client participation sampling."""

from __future__ import annotations

import numpy as np

from repro.utils.validation import check_fraction, check_positive

__all__ = ["uniform_sample", "sample_from"]


def uniform_sample(
    n_clients: int,
    fraction: float,
    rng: np.random.Generator,
    min_clients: int = 1,
) -> np.ndarray:
    """Sample ``max(min_clients, round(fraction * n))`` clients uniformly.

    FedAvg's client fraction ``C``; returned ids are sorted for
    deterministic downstream iteration.  ``min_clients`` is a floor, not
    a clamp target: asking for a floor above the population is a
    configuration error and raises instead of silently degrading to
    full participation.
    """
    check_positive("n_clients", n_clients)
    check_fraction("fraction", fraction)
    check_positive("min_clients", min_clients)
    if min_clients > n_clients:
        raise ValueError(
            f"min_clients ({min_clients}) exceeds n_clients ({n_clients})"
        )
    n_pick = max(min_clients, int(round(fraction * n_clients)))
    n_pick = min(n_pick, n_clients)
    return np.sort(rng.choice(n_clients, size=n_pick, replace=False))


def sample_from(
    eligible: np.ndarray,
    fraction: float,
    rng: np.random.Generator,
    min_clients: int = 1,
) -> np.ndarray:
    """:func:`uniform_sample` over an explicit id subset.

    Used by the round engine when arrival events make only part of the
    federation eligible; with every client eligible it reduces to
    ``uniform_sample`` (same draw, same ordering).  One deliberate
    difference: a ``min_clients`` floor above the *eligible* subset is
    clamped to the subset, not raised — eligibility shrinking mid-run is
    runtime dynamics, not a configuration error (the engine validates
    the floor against the full federation up front).
    """
    eligible = np.asarray(eligible)
    check_positive("n_eligible", eligible.size)
    check_fraction("fraction", fraction)
    check_positive("min_clients", min_clients)
    n_pick = max(min_clients, int(round(fraction * eligible.size)))
    n_pick = min(n_pick, eligible.size)
    return np.sort(rng.choice(eligible, size=n_pick, replace=False))
