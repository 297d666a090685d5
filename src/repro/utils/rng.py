"""Seeded random-number-generator utilities.

Every stochastic component in the library (data generation, partitioning,
client sampling, weight initialisation, minibatch shuffling) draws from a
:class:`numpy.random.Generator` that is derived deterministically from a
single experiment seed.  This module centralises that derivation so that

* the same experiment seed always reproduces the same run, and
* independent components receive *statistically independent* streams
  (via :class:`numpy.random.SeedSequence` spawning) instead of sharing or
  reusing one generator.

The helpers here are intentionally tiny; they exist so that the rest of the
codebase never calls ``np.random.default_rng`` with ad-hoc integer
arithmetic on seeds (a classic source of accidentally-correlated streams).
"""

from __future__ import annotations

import numpy as np

__all__ = [
    "RETRY_EPOCH_STRIDE",
    "STREAM_TAGS",
    "make_rng",
    "spawn_rngs",
    "rng_for",
]

#: The first key of every :func:`rng_for` stream derived from a run's
#: seed, in one table: two streams that shared a tag would be silently
#: correlated.  The values are load-bearing (seeded pins were drawn from
#: them), so a new stream takes an unused value and none is renumbered.
STREAM_TAGS: dict[str, int] = {
    "model_init": 0,  # FederatedEnv's initial model
    "client_update": 1,  # local training, every executor
    "server": 2,  # per-round participant sampling
    "ifca_init": 7,  # IFCA's k initial models
    "newcomer": 9,  # FedClust's newcomer warm-up
    "failure": 13,
    "straggler": 17,
    "budget": 19,
    "duration": 23,  # async training durations
    "corruption": 29,
}

#: Retry attempt ``a`` of round ``r`` draws on the epoch
#: ``r + RETRY_EPOCH_STRIDE * a``; a run's rounds stay below the stride
#: so that no retry epoch is also a real round.
RETRY_EPOCH_STRIDE = 1_000_000


def make_rng(seed: int | np.random.Generator | None) -> np.random.Generator:
    """Return a :class:`numpy.random.Generator` for ``seed``.

    Accepts an ``int`` seed, an existing generator (returned unchanged, so
    call-sites can be written generically), or ``None`` for OS entropy.
    """
    if isinstance(seed, np.random.Generator):
        return seed
    return np.random.default_rng(seed)


def spawn_rngs(seed: int | None, n: int) -> list[np.random.Generator]:
    """Spawn ``n`` statistically independent generators from ``seed``.

    Uses :class:`numpy.random.SeedSequence` spawning, which guarantees
    non-overlapping streams — unlike ``default_rng(seed + i)``, which can
    collide across experiments that use nearby base seeds.
    """
    if n < 0:
        raise ValueError(f"n must be non-negative, got {n}")
    root = np.random.SeedSequence(seed)
    return [np.random.default_rng(s) for s in root.spawn(n)]


def rng_for(base_seed: int, *key: int) -> np.random.Generator:
    """Stateless derived generator for an integer key tuple.

    ``rng_for(seed, round, client)`` always returns the same stream for
    the same arguments, with no shared mutable state — this is what makes
    the parallel client executors bit-identical to the serial one: each
    (round, client) pair owns an independent, order-free stream.
    """
    parts = (int(base_seed),) + tuple(int(k) for k in key)
    return np.random.default_rng(np.random.SeedSequence(parts))
