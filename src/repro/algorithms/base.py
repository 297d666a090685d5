"""Algorithm interface and shared round machinery.

Every method in the paper's Table I — FedAvg, FedProx, CFL, IFCA, PACFL
and FedClust — is a strategy object with a single entry point,
``run(env, n_rounds)``.  Since the round-engine refactor the per-round
lifecycle (participant selection, broadcast, dispatch, failure and
straggler injection, aggregation over survivors, evaluation cadence,
history logging) lives once in :class:`repro.fl.rounds.RoundEngine`;
this module contributes the building blocks the algorithms plug into it:

* :class:`GlobalModelRounds` — the single-global-model strategy
  (FedAvg/FedProx);
* :class:`ClusteredRounds` — per-cluster FedAvg over a packed
  ``(n_clusters, n_params)`` matrix, used by the one-shot methods
  (FedClust, PACFL) after clustering;
* :func:`fedavg_round_flat` — the one-round primitive, kept as the
  reference kernel for tests and the engine-overhead benchmark.

Client state crosses every hook as packed float64 rows: task payloads,
``ClientUpdate.flat`` and the strategies' server rows.
"""

from __future__ import annotations

import abc
from dataclasses import dataclass, field
from typing import Mapping, Sequence

import numpy as np

from repro.fl.aggregation import packed_weighted_average
from repro.fl.client import ClientUpdate
from repro.fl.defense import robust_weighted_average
from repro.fl.history import RunHistory
from repro.fl.parallel import UpdateTask
from repro.fl.rounds import (
    RoundEngine,
    RoundStrategy,
    ScenarioConfig,
    aggregation_weights,
)
from repro.fl.simulation import FederatedEnv
from repro.fl.store import tiered_weighted_average

__all__ = [
    "RunResult",
    "FLAlgorithm",
    "GlobalModelRounds",
    "ClusteredRounds",
    "fedavg_round_flat",
    "cohort_matrix",
    "survivor_mean_loss",
    "survivor_weighted_average",
    "tasks_for_groups",
]


def tasks_for_groups(
    n_clients: int,
    participants: np.ndarray,
    groups: Sequence[tuple[np.ndarray, Sequence[int]]],
) -> list[UpdateTask]:
    """Broadcast tasks for participating members of packed-row groups.

    ``groups`` is ``(row, members)`` per server model.  Each group's
    participants share the row *object* as their payload — the invariant
    executors rely on to encode a broadcast once and the batched
    executor relies on to form one lockstep cohort per group.  Task
    order is group-major, members ascending: the order the historical
    per-cluster dispatch produced, which keeps per-cluster aggregation
    summation bit-identical.
    """
    present = np.zeros(n_clients, dtype=bool)
    present[participants] = True
    tasks: list[UpdateTask] = []
    for row, members in groups:
        tasks.extend(
            UpdateTask(int(cid), flat=row) for cid in members if present[cid]
        )
    return tasks


def cohort_matrix(env: FederatedEnv, updates: Sequence) -> np.ndarray:
    """A round's client updates' ``flat`` rows as one ``(m, n_params)``
    matrix.

    Consecutive full rows, in order, of one C-contiguous float64 plane
    (a batched cohort's emit plane) come back as a read-only view of it;
    any other list is stacked into a fresh matrix.  Callers only read
    the result, and the flag makes a write into rows that other updates
    share raise.

    ``env`` is unused; it stays so the benchmark tracer's row counter,
    which reads the updates as the second argument, keeps its binding.
    """
    rows = [u.flat for u in updates]
    plane = rows[0].base if rows else None
    if (
        isinstance(plane, np.ndarray)
        and plane.ndim == 2
        and plane.dtype == np.float64
        and plane.flags.c_contiguous
    ):
        step = plane.strides[0]
        first, offset = divmod(rows[0].ctypes.data - plane.ctypes.data, step)
        if not offset and all(
            row.base is plane
            and row.shape == plane.shape[1:]
            and row.flags.c_contiguous
            and row.ctypes.data == plane.ctypes.data + (first + k) * step
            for k, row in enumerate(rows)
        ):
            view = plane[first : first + len(rows)]
            view.flags.writeable = False
            return view
    return np.stack(rows)


def survivor_mean_loss(survivors: Sequence[ClientUpdate]) -> float:
    """Mean train loss over the survivors that actually trained.

    A zero-budget client reports a fabricated ``0.0`` loss over zero
    batches; averaging it in would bias the round statistic toward zero
    (``compute_budget=(0, 0)`` would log perfect convergence while the
    model never moves).  NaN when nobody took a step.
    """
    losses = [u.mean_loss for u in survivors if u.n_batches > 0]
    return float(np.mean(losses)) if losses else float("nan")


def survivor_weighted_average(
    env: FederatedEnv,
    updates: Sequence[ClientUpdate],
    robust_agg: str = "none",
    trim_fraction: float = 0.1,
) -> np.ndarray | None:
    """FedAvg rule over a round's survivors, scenario-middleware aware.

    The staleness-aware aggregation primitive every strategy shares:
    weights come from :func:`repro.fl.rounds.aggregation_weights`
    (sample counts by default; steps-taken under compute budgets;
    discounted for stale arrivals) and renormalise over whatever subset
    was passed in.  Zero-weight updates — e.g. a zero-budget client that
    took no step — are excluded from the average entirely, so they
    provably contribute nothing; returns ``None`` when no positive
    weight remains (the caller keeps its model, as for a dark round).

    ``robust_agg``/``trim_fraction`` select the aggregation rule at
    this choke point (see
    :func:`repro.fl.defense.robust_weighted_average`); strategies
    splat ``engine.robust_kwargs`` here so the scenario's policy
    reaches every call site.  Under ``"none"`` — and the default
    scenario — every weight is the sample count, so the result is
    bit-identical to the historical
    ``packed_weighted_average(cohort, [u.n_samples ...])`` call.

    When the environment's store config enables tiered aggregation
    (``edge_size > 0``) and the rule is the plain weighted average, the
    GEMV is split across edge aggregators
    (:func:`repro.fl.store.tiered_weighted_average`); a single edge —
    and the default ``edge_size = 0`` — is bit-identical to the flat
    kernel, so every seeded pin runs unchanged.
    """
    if not updates:
        return None
    weights = aggregation_weights(updates)
    keep = weights > 0.0
    if not keep.any():
        return None
    if keep.all():
        live, live_weights = updates, weights
    else:
        live = [u for u, k in zip(updates, keep) if k]
        live_weights = weights[keep]
    store_config = getattr(env, "store_config", None)
    if robust_agg == "none" and store_config is not None and store_config.edge_size > 0:
        return tiered_weighted_average(
            cohort_matrix(env, live), live_weights, store_config.edge_size
        )
    return robust_weighted_average(
        cohort_matrix(env, live), live_weights, robust_agg, trim_fraction
    )


@dataclass
class RunResult:
    """End-of-run artefacts shared by all algorithms.

    ``final_accuracy``/``accuracy_std`` are the Table-I statistics *within*
    a run (mean/std over clients); the cross-seed std the paper reports is
    computed by the experiment driver over several ``RunResult``s.
    """

    history: RunHistory
    final_accuracy: float
    accuracy_std: float
    per_client_accuracy: np.ndarray
    cluster_labels: np.ndarray | None = None
    comm: dict = field(default_factory=dict)
    extras: dict = field(default_factory=dict)

    @property
    def n_clusters(self) -> int:
        if self.cluster_labels is None:
            return 1
        return int(np.max(self.cluster_labels)) + 1

    @classmethod
    def from_engine(
        cls,
        engine: RoundEngine,
        history: RunHistory,
        accuracy: tuple[float, np.ndarray],
        cluster_labels: np.ndarray | None,
        **extras,
    ) -> "RunResult":
        """The result of a run that ``engine`` drove.

        ``accuracy`` is the last evaluation ``(mean, per-client)``, as
        :meth:`RoundEngine.run` returns it.  Traffic comes from the
        environment's tracker (by phase, plus the total), and
        ``extras`` gain the engine's ``engine_record`` and ``events``.
        """
        mean_acc, per_client = accuracy
        tracker = engine.env.tracker
        return cls(
            history=history,
            final_accuracy=mean_acc,
            accuracy_std=float(np.std(per_client)),
            per_client_accuracy=per_client,
            cluster_labels=cluster_labels,
            comm=tracker.by_phase() | {"total": tracker.snapshot()},
            extras=extras
            | {"engine_record": engine.run_record(), "events": engine.events},
        )


class FLAlgorithm(abc.ABC):
    """A federated training strategy."""

    #: Registry/reporting name; subclasses override.
    name: str = "abstract"

    @abc.abstractmethod
    def run(
        self,
        env: FederatedEnv,
        n_rounds: int,
        eval_every: int = 1,
        scenario: ScenarioConfig | None = None,
    ) -> RunResult:
        """Train for ``n_rounds`` communication rounds on ``env``.

        ``eval_every`` throttles the (per-client) evaluation pass; the
        final round is always evaluated.  ``scenario`` sets the
        system-heterogeneity policy (participation fraction, failures,
        stragglers, arrivals); ``None`` is the paper-scale default —
        every client, every round.
        """

    def _scenario(self, scenario: ScenarioConfig | None) -> ScenarioConfig:
        """Resolve the effective scenario (default: full participation)."""
        return scenario if scenario is not None else ScenarioConfig()

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"{type(self).__name__}(name={self.name!r})"


# ----------------------------------------------------------------------
# Shared strategies
# ----------------------------------------------------------------------
class GlobalModelRounds(RoundStrategy):
    """One global model as a packed row: FedAvg's (and FedProx's) round.

    The broadcast payload, the aggregation result and the evaluation
    input are all the same buffer — no state dict on the round loop.
    """

    name = "global"

    def __init__(self, vector: np.ndarray, prox_mu: float = 0.0) -> None:
        self.vector = np.asarray(vector, dtype=np.float64)
        self.prox_mu = prox_mu

    def broadcast_for(
        self, engine: RoundEngine, round_index: int, participants: np.ndarray
    ) -> list[UpdateTask]:
        return [
            UpdateTask(int(cid), flat=self.vector, prox_mu=self.prox_mu)
            for cid in participants
        ]

    def aggregate(
        self, engine: RoundEngine, round_index: int, survivors: list[ClientUpdate]
    ) -> float:
        if not survivors:
            return float("nan")
        env = engine.env
        # One GEMV over the survivors' packed rows (read in place when
        # they are one batched cohort's); weights renormalise over
        # whoever made the deadline (plus any stale arrivals, at their
        # discounted weight).
        new_vector = survivor_weighted_average(
            env, survivors, **engine.robust_kwargs
        )
        if new_vector is not None:
            self.vector = env.layout.round_trip(new_vector)
        return survivor_mean_loss(survivors)

    def evaluate(
        self, engine: RoundEngine, round_index: int
    ) -> tuple[float, np.ndarray]:
        env = engine.env
        # Grouped eval: the one global model is loaded once and every
        # client's test split shares the fused batches.
        return env.evaluate_packed(
            self.vector,
            np.zeros(env.federation.n_clients, dtype=np.int64),
        )

    def checkpoint_payload(
        self, engine: RoundEngine
    ) -> tuple[dict, dict[str, np.ndarray]]:
        # The vector is always a round_trip result (or the packed
        # initial state), so the wire dtype stores it exactly.
        wire = engine.env.layout.wire_dtype
        return {"prox_mu": float(self.prox_mu)}, {
            "vector": self.vector.astype(wire)
        }

    def restore_payload(
        self, engine: RoundEngine, meta: Mapping, arrays: Mapping[str, np.ndarray]
    ) -> None:
        self.vector = arrays["vector"].astype(np.float64)
        self.prox_mu = float(meta["prox_mu"])


class ClusteredRounds(RoundStrategy):
    """Per-cluster FedAvg over one packed ``(n_clusters, n_params)`` matrix.

    Broadcasts are row payloads (each cluster's participants share the
    row object, so executors encode it once and the batched executor
    trains the cluster as one lockstep cohort), aggregation writes rows
    back, and evaluation consumes the matrix directly.  A cluster with
    no surviving participants this round keeps its model.
    """

    name = "clustered"

    def __init__(self, matrix: np.ndarray, labels: np.ndarray) -> None:
        self.matrix = np.ascontiguousarray(matrix, dtype=np.float64)
        self.labels = np.asarray(labels).copy()
        self._rebuild_members()

    def _rebuild_members(self) -> None:
        self.members_of = [
            np.flatnonzero(self.labels == g) for g in range(len(self.matrix))
        ]

    def set_label(self, client_id: int, cluster: int) -> None:
        """Re-route one client (newcomer onboarding, straggler rescue)."""
        if not 0 <= cluster < len(self.matrix):
            raise ValueError(
                f"cluster {cluster} outside [0, {len(self.matrix)})"
            )
        self.labels[client_id] = cluster
        self._rebuild_members()

    def broadcast_for(
        self, engine: RoundEngine, round_index: int, participants: np.ndarray
    ) -> list[UpdateTask]:
        return tasks_for_groups(
            engine.env.federation.n_clients,
            participants,
            [(self.matrix[g], members) for g, members in enumerate(self.members_of)],
        )

    def aggregate(
        self, engine: RoundEngine, round_index: int, survivors: list[ClientUpdate]
    ) -> float:
        if not survivors:
            return float("nan")
        env = engine.env
        losses = []
        for g in range(len(self.matrix)):
            mine = [u for u in survivors if self.labels[u.client_id] == g]
            if not mine:
                continue  # cluster went dark this round: keep its model
            new_vector = survivor_weighted_average(
                env, mine, **engine.robust_kwargs
            )
            if new_vector is None:
                continue  # only zero-weight work arrived: keep its model
            self.matrix[g] = env.layout.round_trip(new_vector)
            cluster_loss = survivor_mean_loss(mine)
            if not np.isnan(cluster_loss):
                losses.append(cluster_loss)
        return float(np.mean(losses)) if losses else float("nan")

    def evaluate(
        self, engine: RoundEngine, round_index: int
    ) -> tuple[float, np.ndarray]:
        return engine.env.evaluate_packed(self.matrix, self.labels)

    def current_n_clusters(self) -> int:
        return len(self.matrix)

    def checkpoint_payload(
        self, engine: RoundEngine
    ) -> tuple[dict, dict[str, np.ndarray]]:
        # Every row is a round_trip result (or a packed initial state):
        # exact at the wire dtype.
        wire = engine.env.layout.wire_dtype
        return {}, {
            "matrix": self.matrix.astype(wire),
            "labels": self.labels.astype(np.int64),
        }

    def restore_payload(
        self, engine: RoundEngine, meta: Mapping, arrays: Mapping[str, np.ndarray]
    ) -> None:
        self.matrix = np.ascontiguousarray(arrays["matrix"], dtype=np.float64)
        self.labels = arrays["labels"].astype(np.int64)
        self._rebuild_members()


# ----------------------------------------------------------------------
# One-round primitives (reference kernels; the engine composes these
# same pieces with scenario middleware in between)
# ----------------------------------------------------------------------
def fedavg_round_flat(
    env: FederatedEnv,
    vector: np.ndarray,
    members: Sequence[int],
    round_index: int,
    prox_mu: float = 0.0,
    phase: str = "training",
) -> tuple[np.ndarray, float, list]:
    """One FedAvg round entirely on the flat plane.

    ``vector`` is the packed broadcast state (one float64 row on the
    environment's layout); every member receives it as its task payload
    — no state dict exists at any point of the round.  Returns
    ``(aggregated_vector, mean_train_loss, updates)`` where the
    aggregated vector is rounded through the parameter dtypes
    (:meth:`repro.nn.state_flat.StateLayout.round_trip`), so carrying it
    into the next round is bit-identical to the dict path's
    unpack → load → repack cycle.  Traffic: every member downloads the
    full model and uploads its full update.
    """
    if len(members) == 0:
        raise ValueError("fedavg_round_flat needs at least one member")
    vector = np.asarray(vector, dtype=np.float64)
    tasks = [
        UpdateTask(int(cid), flat=vector, prox_mu=prox_mu) for cid in members
    ]
    env.tracker.record_download(env.n_params * len(members), phase)
    updates = env.run_updates(tasks, round_index)
    env.tracker.record_upload(env.n_params * len(members), phase)
    # Aggregate on the flat plane: one GEMV over the updates' packed
    # rows instead of a per-key loop over state dicts.
    new_vector = packed_weighted_average(
        cohort_matrix(env, updates), [u.n_samples for u in updates]
    )
    mean_loss = float(np.mean([u.mean_loss for u in updates]))
    return env.layout.round_trip(new_vector), mean_loss, updates
