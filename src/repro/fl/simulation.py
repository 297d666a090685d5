"""Federated environment: the shared machinery every algorithm drives.

A :class:`FederatedEnv` binds together a federation (the data side), a
model architecture, a training configuration, a communication tracker,
and a client executor.  Algorithms (in :mod:`repro.algorithms` and
:mod:`repro.core`) are strategy objects that call into the environment:

* :meth:`FederatedEnv.init_state` — the initial global model,
* :meth:`FederatedEnv.run_updates` — dispatch local training for a set of
  (client, incoming packed row) tasks through the configured executor,
* :meth:`FederatedEnv.evaluate_assignment` /
  :meth:`FederatedEnv.evaluate_packed` /
  :meth:`FederatedEnv.mean_local_accuracy` — the Table-I metric.

Evaluation runs on the fused path (:mod:`repro.fl.eval_flat`): clients
are grouped by the model that serves them, each distinct model is loaded
once, and the group's test splits share forward batches.
:meth:`FederatedEnv.mean_local_accuracy` takes one state dict per
client (``local_only``'s per-client models) — it deduplicates the list
by object identity and routes through the same fused kernels, with
per-client accuracies bit-identical to the serial reference loop
(:func:`repro.fl.evaluation.mean_local_accuracy`).

Everything stochastic derives from the environment seed via stateless
:func:`repro.utils.rng.rng_for` keys, so any algorithm run on an
environment is reproducible regardless of executor kind.
"""

from __future__ import annotations

from typing import Mapping, Sequence

import numpy as np

from repro.data.federation import Federation
from repro.fl.client import ClientUpdate
from repro.fl.communication import CommunicationTracker
from repro.fl.config import TrainConfig
from repro.fl.eval_flat import (
    evaluate_grouped,
    evaluate_packed,
    mean_local_accuracy_grouped,
)
from repro.fl.parallel import SerialClientExecutor, UpdateTask, make_executor
from repro.fl.store import ClientStateStore, StoreConfig, make_store
from repro.nn.models import build_model, final_linear_name
from repro.nn.module import Sequential
from repro.nn.state_flat import StateLayout
from repro.utils.rng import STREAM_TAGS, rng_for

__all__ = ["FederatedEnv"]

_MODEL_INIT_TAG = STREAM_TAGS["model_init"]
_SERVER_TAG = STREAM_TAGS["server"]


class FederatedEnv:
    """Execution context for federated algorithms.

    Parameters
    ----------
    federation:
        Per-client datasets (see :func:`repro.data.build_federation`).
    model_name, model_kwargs:
        Architecture from :func:`repro.nn.build_model`; LeNet-5 is the
        paper's Table-I model.
    train_cfg:
        Local-training hyper-parameters.
    seed:
        Master seed; model init, client streams and server randomness all
        derive from it independently.
    executor:
        Client executor, or an executor kind name for
        :func:`repro.fl.parallel.make_executor` (``"serial"`` default;
        ``"process"`` for a worker pool, ``"batched"`` for
        lockstep cohort training on the flat plane).
    tracker:
        Communication tracker (new one by default).
    store:
        Client-state store policy (see :mod:`repro.fl.store`): a
        :class:`~repro.fl.store.StoreConfig`, a kind name (``"dense"``
        / ``"sharded"``), or ``None`` for the default dense config —
        the configuration every seeded bit-identity pin runs on.
        Algorithms that keep per-client state (``local_only``) build
        their store via :meth:`make_store`.
    """

    def __init__(
        self,
        federation: Federation,
        model_name: str = "lenet5",
        model_kwargs: dict | None = None,
        train_cfg: TrainConfig | None = None,
        seed: int = 0,
        executor=None,
        tracker: CommunicationTracker | None = None,
        store: "StoreConfig | str | None" = None,
    ) -> None:
        self.federation = federation
        self.model_name = model_name
        self.model_kwargs = dict(model_kwargs or {})
        self.train_cfg = train_cfg or TrainConfig()
        self.seed = int(seed)
        if isinstance(executor, str):
            executor = make_executor(executor)
        self.executor = executor or SerialClientExecutor()
        self.tracker = tracker or CommunicationTracker()
        if isinstance(store, str):
            store = StoreConfig(kind=store)
        self.store_config = store or StoreConfig()
        self.scratch_model = self.make_model()
        self._init_state = self.scratch_model.state_dict(copy=True)
        #: Flat-plane layout shared by executors, aggregation and
        #: clustering for this architecture (see repro.nn.state_flat).
        self.layout = StateLayout.from_state(self._init_state)
        self.n_params = self.scratch_model.num_parameters()
        self.final_layer = final_linear_name(self.scratch_model)
        self.final_layer_keys = [
            name
            for name, _ in self.scratch_model.named_parameters()
            if name.startswith(self.final_layer + ".")
        ]

    # ------------------------------------------------------------------
    # Construction helpers
    # ------------------------------------------------------------------
    def make_model(self) -> Sequential:
        """Fresh model with the environment's deterministic init weights."""
        return build_model(
            self.model_name,
            self.federation.input_shape,
            self.federation.n_classes,
            rng_for(self.seed, _MODEL_INIT_TAG),
            **self.model_kwargs,
        )

    def init_state(self) -> dict[str, np.ndarray]:
        """Copy of the initial global model state."""
        return {k: v.copy() for k, v in self._init_state.items()}

    def make_store(self) -> ClientStateStore:
        """Per-client state store under this environment's config.

        Every client starts at the initial global model; the store keeps
        rows at the layout's wire dtype (see :mod:`repro.fl.store`), so
        ``get`` returns exactly what the historical dict path held after
        an unpack — the default dense config is bit-identical to the
        pre-store per-client state lists.
        """
        return make_store(
            self.store_config,
            self.federation.n_clients,
            self.layout,
            self.layout.pack(self._init_state),
        )

    def server_rng(self, round_index: int) -> np.random.Generator:
        """Server-side randomness for a round (client sampling etc.)."""
        return rng_for(self.seed, _SERVER_TAG, round_index)

    # ------------------------------------------------------------------
    # Client work
    # ------------------------------------------------------------------
    def run_updates(
        self, tasks: Sequence[UpdateTask], round_index: int
    ) -> list[ClientUpdate]:
        """Execute local training for ``tasks`` via the executor."""
        if not tasks:
            return []
        ids = [t.client_id for t in tasks]
        if len(set(ids)) != len(ids):
            raise ValueError(f"duplicate client ids in round {round_index}: {ids}")
        bad = [i for i in ids if not 0 <= i < self.federation.n_clients]
        if bad:
            raise ValueError(f"client ids out of range: {bad}")
        return self.executor.run(self, tasks, round_index)

    # ------------------------------------------------------------------
    # Evaluation
    # ------------------------------------------------------------------
    def mean_local_accuracy(
        self, states_per_client: Sequence[Mapping[str, np.ndarray]]
    ) -> tuple[float, np.ndarray]:
        """Table-I metric: mean over clients of local-test accuracy.

        The per-client list is deduplicated by object identity, each
        distinct state is loaded once, and clients sharing a state share
        forward batches.  Accuracies are bit-identical to the serial
        per-client loop.
        """
        testsets = [c.test for c in self.federation.clients]
        return mean_local_accuracy_grouped(
            self.scratch_model,
            states_per_client,
            testsets,
            batch_size=self.train_cfg.eval_batch_size,
        )

    def evaluate_assignment(
        self,
        cluster_states: Sequence[Mapping[str, np.ndarray]],
        labels: np.ndarray,
    ) -> tuple[float, np.ndarray]:
        """Table-I metric when client ``i`` is served
        ``cluster_states[labels[i]]`` — one load per cluster, fused
        forwards per cluster cohort."""
        testsets = [c.test for c in self.federation.clients]
        return evaluate_grouped(
            self.scratch_model,
            cluster_states,
            labels,
            testsets,
            batch_size=self.train_cfg.eval_batch_size,
        )

    def evaluate_packed(
        self, matrix: np.ndarray, labels: np.ndarray
    ) -> tuple[float, np.ndarray]:
        """Table-I metric straight from packed rows: ``matrix[labels[i]]``
        (on this environment's layout) serves client ``i``; no state
        dicts are materialised."""
        return evaluate_packed(self, matrix, labels)

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------
    def close(self) -> None:
        """Release executor resources (process pools, gather buffers)."""
        self.executor.close()

    def __enter__(self) -> "FederatedEnv":
        return self

    def __exit__(self, *exc: object) -> None:
        self.close()
