"""FedAvg (McMahan et al., AISTATS 2017) — the reference baseline.

One global model; every round the participants train it locally and the
server averages the results weighted by local sample count (Eq. 1 of the
FedClust paper).  Under severe label skew the single global model fits
no client's distribution well — the failure mode every clustered method
in Table I is built to fix.

The per-round lifecycle lives in :class:`repro.fl.rounds.RoundEngine`;
FedAvg is the engine driving :class:`repro.algorithms.base.GlobalModelRounds`.
Partial participation (the fraction ``C``) is
``ScenarioConfig(client_fraction=...)``, as for every algorithm.
"""

from __future__ import annotations

import numpy as np

from repro.algorithms.base import FLAlgorithm, GlobalModelRounds, RunResult
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
        if n_rounds < 1:
            raise ValueError(f"n_rounds must be >= 1, got {n_rounds}")
        history = RunHistory(self.name, env.federation.dataset_name, env.seed)
        # The global model lives as one packed row for the whole run:
        # broadcast payload, aggregation result and evaluation input are
        # all the same buffer — no state dict on the round loop.
        strategy = GlobalModelRounds(
            env.layout.pack(env.init_state()), prox_mu=self.prox_mu
        )
        engine = RoundEngine(env, self._scenario(scenario))
        mean_acc, per_client = engine.run(
            strategy, n_rounds, history, eval_every=eval_every
        )
        m = env.federation.n_clients
        return RunResult(
            history=history,
            final_accuracy=mean_acc,
            accuracy_std=float(np.std(per_client)),
            per_client_accuracy=per_client,
            cluster_labels=np.zeros(m, dtype=np.int64),
            comm=env.tracker.by_phase() | {"total": env.tracker.snapshot()},
            extras={
                "drop_log": engine.drop_log,
                "straggler_log": engine.straggler_log,
                "stale_log": engine.stale_log,
                "departure_log": engine.departure_log,
                "quarantine_log": engine.quarantine_log,
                # The schedule that actually happened (dispatches minus
                # seeded drops/deadline misses) — replayable through
                # ``ScenarioConfig(trace=...)``.
                "realized_trace": engine.realized_trace(),
                "engine_record": engine.run_record(),
            },
        )
