"""FedAvg (McMahan et al., AISTATS 2017) — the reference baseline.

One global model; every round the participants train it locally and the
server averages the results weighted by local sample count (Eq. 1 of the
FedClust paper).  Under severe label skew the single global model fits
no client's distribution well — the failure mode every clustered method
in Table I is built to fix.

The per-round lifecycle lives in :class:`repro.fl.rounds.RoundEngine`;
FedAvg is the engine driving a one-row
:class:`repro.algorithms.base.ClusteredRounds` (every client labelled 0).
Partial participation (the fraction ``C``) is
``ScenarioConfig(client_fraction=...)``, as for every algorithm.
"""

from __future__ import annotations

import numpy as np

from repro.algorithms.base import ClusteredRounds, FLAlgorithm, RunResult
from repro.fl.history import RunHistory
from repro.fl.rounds import RoundEngine, ScenarioConfig
from repro.fl.simulation import FederatedEnv

__all__ = ["FedAvg"]


class FedAvg(FLAlgorithm):
    """Single-global-model federated averaging."""

    name = "fedavg"

    #: Proximal coefficient; 0 for FedAvg, overridden by FedProx.
    prox_mu: float = 0.0

    def run(
        self,
        env: FederatedEnv,
        n_rounds: int,
        eval_every: int = 1,
        scenario: ScenarioConfig | None = None,
    ) -> RunResult:
        history = RunHistory(self.name, env.federation.dataset_name, env.seed)
        # The global model lives as one packed row for the whole run:
        # broadcast payload, aggregation result and evaluation input are
        # all the same buffer — no state dict on the round loop.
        strategy = ClusteredRounds(
            env.layout.pack(env.init_state())[None],
            np.zeros(env.federation.n_clients, dtype=np.int64),
            prox_mu=self.prox_mu,
        )
        engine = RoundEngine(env, scenario)
        accuracy = engine.run(strategy, n_rounds, history, eval_every=eval_every)
        return RunResult.from_engine(
            engine,
            history,
            accuracy,
            strategy.labels,
            # The schedule that actually happened (dispatches minus
            # seeded drops/deadline misses) — replayable through
            # ``ScenarioConfig(trace=...)``.
            realized_trace=engine.realized_trace(),
        )
