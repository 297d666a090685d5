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

from repro.algorithms.base import ClusteredRounds, FLAlgorithm, global_state
from repro.fl.rounds import RoundEngine
from repro.fl.simulation import FederatedEnv

__all__ = ["FedAvg"]


class FedAvg(FLAlgorithm):
    """Single-global-model federated averaging."""

    name = "fedavg"

    #: Proximal coefficient; 0 for FedAvg, overridden by FedProx.
    prox_mu: float = 0.0

    def strategy(self, env: FederatedEnv) -> ClusteredRounds:
        # The global model lives as one packed row for the whole run:
        # broadcast payload, aggregation result and evaluation input are
        # all the same buffer — no state dict on the round loop.
        return ClusteredRounds(*global_state(env), prox_mu=self.prox_mu)

    def extras(self, engine: RoundEngine, strategy: ClusteredRounds) -> dict:
        # The schedule that actually happened (dispatches minus seeded
        # drops/deadline misses) — replayable through
        # ``ScenarioConfig(trace=...)``.
        return {"realized_trace": engine.realized_trace()}
