"""Algorithm interface and shared round machinery.

Every method in the paper's Table I — FedAvg, FedProx, CFL, IFCA, PACFL
and FedClust — is a strategy object with a single entry point,
``run(env, n_rounds)``.  Since the round-engine refactor the per-round
lifecycle (participant selection, broadcast, dispatch, failure and
straggler injection, aggregation over survivors, evaluation cadence,
history logging) lives once in :class:`repro.fl.rounds.RoundEngine`;
this module contributes the building blocks the algorithms plug into it:

* :class:`ClusteredRounds` — per-cluster FedAvg over a packed
  ``(n_clusters, n_params)`` matrix plus one cluster label per client,
  the server state of every algorithm whose clients share models:
  FedAvg and FedProx are its one-row case, IFCA and CFL subclass it to
  re-label or split clusters, and FedClust and PACFL use it after their
  clustering round (``local_only`` keeps per-client rows in a store);
* :func:`fedavg_round_flat` — the one-round primitive, kept as the
  reference kernel for tests and the engine-overhead benchmark.

Client state crosses every hook as packed rows at the layout dtype:
task payloads, ``ClientUpdate.flat`` and the strategies' server rows.
Aggregation accumulates in float64 and
:meth:`repro.nn.state_flat.StateLayout.round_trip` rounds each fold
back to a row.
"""

from __future__ import annotations

import abc
from dataclasses import dataclass, field
from typing import Sequence

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

__all__ = [
    "RunResult",
    "FLAlgorithm",
    "ClusteredRounds",
    "fedavg_round_flat",
    "cohort_matrix",
    "survivor_mean_loss",
    "survivor_weighted_average",
]


def cohort_matrix(env: FederatedEnv, updates: Sequence) -> np.ndarray:
    """A round's client updates' ``flat`` rows as one ``(m, n_params)``
    matrix.

    Consecutive full rows, in order, of one C-contiguous plane (a
    batched cohort's working plane) come back as a read-only view of it;
    any other list is stacked into a fresh matrix, float64 when a
    corrupted copy is among the rows.  Callers only read the result,
    and the flag makes a write into rows that other updates share
    raise.

    ``env`` is unused; it stays so the benchmark tracer's row counter,
    which reads the updates as the second argument, keeps its binding.
    """
    rows = [u.flat for u in updates]
    plane = rows[0].base if rows else None
    if isinstance(plane, np.ndarray) and plane.ndim == 2 and plane.flags.c_contiguous:
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
            comm=tracker.by_phase() | {"total": tracker.totals()},
            extras=extras
            | {"engine_record": engine.run_record(), "events": engine.events},
        )


class FLAlgorithm(abc.ABC):
    """A federated training strategy."""

    #: Registry/reporting name; subclasses override.
    name: str = "abstract"
    #: The shortest horizon :meth:`run` accepts: 2 for the one-shot
    #: methods, whose first round only clusters.
    min_rounds: int = 1

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

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"{type(self).__name__}(name={self.name!r})"


# ----------------------------------------------------------------------
# The shared strategy
# ----------------------------------------------------------------------
class ClusteredRounds(RoundStrategy):
    """Per-cluster FedAvg over one packed ``(n_clusters, n_params)`` matrix.

    ``matrix[labels[i]]`` is client ``i``'s server model, a row at the
    layout dtype (the constructor takes packed rows).  Broadcasts are
    row payloads in participant order (each cluster's participants share
    one row object, so executors encode it once and the batched executor
    trains the cluster as one lockstep cohort), aggregation folds each
    cluster's survivors into a fresh row, and evaluation consumes the
    matrix directly.  A cluster with no surviving participants this
    round keeps its model.  FedAvg and FedProx are the one-row case;
    ``prox_mu`` rides every task.  A checkpoint holds the matrix and the
    labels; ``prox_mu`` is part of its identity.
    """

    name = "clustered"
    resumable = ("matrix", "labels")
    matrix: np.ndarray
    labels: np.ndarray

    def __init__(
        self, matrix: np.ndarray, labels: np.ndarray, prox_mu: float = 0.0
    ) -> None:
        self.matrix = np.ascontiguousarray(matrix)
        self.labels = np.array(labels, dtype=np.int64)
        self.prox_mu = prox_mu

    def set_label(self, client_id: int, cluster: int) -> None:
        """Re-route one client (newcomer onboarding, straggler rescue)."""
        if not 0 <= cluster < len(self.matrix):
            raise ValueError(
                f"cluster {cluster} outside [0, {len(self.matrix)})"
            )
        self.labels[client_id] = cluster

    def survivors_by_cluster(
        self, survivors: Sequence[ClientUpdate]
    ) -> list[tuple[int, list[ClientUpdate]]]:
        """``(cluster, its survivors in the order given)`` per cluster
        with survivors, clusters ascending."""
        mine_of: dict[int, list[ClientUpdate]] = {}
        for update in survivors:
            mine_of.setdefault(int(self.labels[update.client_id]), []).append(update)
        return sorted(mine_of.items())

    def broadcast_for(
        self, engine: RoundEngine, round_index: int, participants: np.ndarray
    ) -> list[UpdateTask]:
        rows = list(self.matrix)
        return [
            UpdateTask(int(cid), flat=rows[self.labels[cid]], prox_mu=self.prox_mu)
            for cid in participants
        ]

    def aggregate(
        self, engine: RoundEngine, round_index: int, survivors: list[ClientUpdate]
    ) -> float:
        """Fold each cluster's survivors, in the order given, into its row.

        ``matrix`` is rebound, never written in place, so an array passed
        to the constructor or read before the fold keeps its values.
        Returns the mean over clusters of each cluster's
        :func:`survivor_mean_loss` (clusters where nobody trained do not
        count); with one cluster that is the survivors' own mean.
        """
        env = engine.env
        rows = list(self.matrix)
        losses = []
        for g, mine in self.survivors_by_cluster(survivors):
            # One GEMV over the cluster's packed rows (read in place when
            # they are one batched cohort's); weights renormalise over
            # whoever made the deadline, plus any stale arrivals at their
            # discounted weight.  None: only zero-weight work arrived.
            new_row = survivor_weighted_average(env, mine, **engine.robust_kwargs)
            if new_row is not None:
                rows[g] = env.layout.round_trip(new_row)
            cluster_loss = survivor_mean_loss(mine)
            if not np.isnan(cluster_loss):
                losses.append(cluster_loss)
        # Rebinding keeps the fold's fresh rows alive above the round's
        # freed update rows, so the heap is not trimmed under them:
        # writing into the old matrix instead tripled the minor page
        # faults of bench_scenarios' serial engine runs.  One row needs
        # no copy.
        self.matrix = np.stack(rows) if len(rows) > 1 else rows[0][None]
        return float(np.mean(losses)) if losses else float("nan")

    def evaluate(
        self, engine: RoundEngine, round_index: int
    ) -> tuple[float, np.ndarray]:
        # Grouped eval: each row is loaded once and its members' test
        # splits share fused batches.
        return engine.env.evaluate_packed(self.matrix, self.labels)

    def current_n_clusters(self) -> int:
        return len(np.unique(self.labels))

    def identity(self) -> dict:
        return {"prox_mu": float(self.prox_mu)}


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

    ``vector`` is the packed broadcast state (one row on the
    environment's layout); every member receives it as its task payload
    — no state dict exists at any point of the round.  Returns
    ``(aggregated_vector, mean_train_loss, updates)`` where the
    aggregated vector is the float64 average rounded to a row
    (:meth:`repro.nn.state_flat.StateLayout.round_trip`), so carrying it
    into the next round is bit-identical to the dict path's
    unpack → load → repack cycle.  Traffic: every member downloads the
    full model and uploads its full update.
    """
    if len(members) == 0:
        raise ValueError("fedavg_round_flat needs at least one member")
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
