"""Local-only training — the no-collaboration reference point.

Every client trains its own model on its own data and never
communicates.  Not in the paper's Table I, but the standard sanity
anchor for clustered-FL results: a clustered method is only interesting
where it beats *both* the single global model (FedAvg) and pure
personalisation (this baseline).  Under severe label skew with tiny
local datasets, local-only overfits; clustering wins by pooling
same-distribution clients.

Runs through the shared round engine like everything else — scenario
policy (participation, failures, stragglers) composes here too: a
client that fails or misses the deadline simply keeps last round's
weights — but with ``charges_communication = False``, so the engine
skips the per-round traffic accounting (nothing crosses the network).

Per-client weights live in the environment's client-state store
(:mod:`repro.fl.store`): the default dense store is bit-identical to
the historical per-client dict list, and ``--store sharded`` keeps
resident memory proportional to the clients actually touched — the
population-scale path, since this is the one algorithm whose state is
O(population) rather than O(clusters).
"""

from __future__ import annotations

import numpy as np

from repro.algorithms.base import FLAlgorithm, RunResult, survivor_mean_loss
from repro.fl.client import ClientUpdate
from repro.fl.history import RunHistory
from repro.fl.parallel import UpdateTask
from repro.fl.rounds import RoundEngine, RoundStrategy, ScenarioConfig
from repro.fl.simulation import FederatedEnv
from repro.fl.store import StoreRows
from repro.nn.state_flat import unpack_state

__all__ = ["LocalOnly"]


class _LocalRounds(RoundStrategy):
    """Each client trains its own persistent state; no aggregation."""

    name = "local_only"
    charges_communication = False
    resumable = ("rows",)
    rows: StoreRows

    def __init__(self, env: FederatedEnv) -> None:
        # Every client starts from the shared init (fair comparison) and
        # keeps its own weights forever after, in the environment's
        # client-state store — rows rest at the layout dtype, exactly
        # what the historical per-client dict list held after an unpack.
        self.store = env.make_store()

    def broadcast_for(
        self, engine: RoundEngine, round_index: int, participants: np.ndarray
    ) -> list[UpdateTask]:
        # Only the cohort's rows are copied out: the long tail of
        # unsampled clients stays at rest in the store.
        return [
            UpdateTask(int(cid), flat=self.store.get(int(cid)))
            for cid in participants
        ]

    def aggregate(
        self, engine: RoundEngine, round_index: int, survivors: list[ClientUpdate]
    ) -> float:
        if not survivors:
            return float("nan")
        for update in survivors:
            self.store.set(update.client_id, update.flat)
        return survivor_mean_loss(survivors)

    def evaluate(
        self, engine: RoundEngine, round_index: int
    ) -> tuple[float, np.ndarray]:
        # Worst case for grouped eval — every client has its own model,
        # so identity-dedup finds m singleton groups and evaluation
        # degenerates to the per-client loop.  O(population): the
        # population-scale bench overrides this hook.
        layout = engine.env.layout
        return engine.env.mean_local_accuracy(
            [
                unpack_state(self.store.get(cid), layout)
                for cid in range(self.store.n_clients)
            ]
        )

    def current_n_clusters(self) -> int:
        return self.store.n_clients  # every client is its own island

    @property
    def rows(self) -> StoreRows:
        """The store's contents, as a checkpoint holds them; assigning
        them refills the store (any kind from any kind)."""
        return self.store.contents()

    @rows.setter
    def rows(self, contents: StoreRows) -> None:
        self.store.restore(contents)


class LocalOnly(FLAlgorithm):
    """Per-client isolated training (zero communication)."""

    name = "local_only"

    def run(
        self,
        env: FederatedEnv,
        n_rounds: int,
        eval_every: int = 1,
        scenario: ScenarioConfig | None = None,
    ) -> RunResult:
        history = RunHistory(self.name, env.federation.dataset_name, env.seed)
        strategy = _LocalRounds(env)
        engine = RoundEngine(env, scenario)
        accuracy = engine.run(strategy, n_rounds, history, eval_every=eval_every)
        return RunResult.from_engine(
            engine,
            history,
            accuracy,
            np.arange(env.federation.n_clients, dtype=np.int64),
        )
