"""Algorithm interface and shared round machinery.

Every method in the paper's Table I — FedAvg, FedProx, CFL, IFCA, PACFL
and FedClust — and the ``local_only`` reference is an
:class:`FLAlgorithm`, and :meth:`FLAlgorithm.run` is written once: it
builds the engine and the history, asks the algorithm for its strategy,
runs a one-shot method's clustering round as round 1 unless the engine
resumes, and hands the rest to :class:`repro.fl.rounds.RoundEngine`,
which owns the per-round lifecycle.  This module also holds the
building blocks the strategies plug in:

* :class:`ClusteredRounds` — per-cluster FedAvg over a packed
  ``(n_clusters, n_params)`` matrix plus one cluster label per client,
  the server state of every algorithm whose clients share models:
  FedAvg and FedProx are its one-row case, IFCA and CFL subclass it to
  re-label or split clusters, and FedClust and PACFL fill it in their
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
from repro.fl.history import RoundRecord, RunHistory
from repro.fl.parallel import UpdateTask
from repro.fl.rounds import (
    RoundEngine,
    RoundStrategy,
    ScenarioConfig,
    aggregation_weights,
)
from repro.fl.simulation import FederatedEnv
from repro.utils.serialization import to_jsonable

__all__ = [
    "RunResult",
    "FLAlgorithm",
    "ClusteredRounds",
    "fedavg_round_flat",
    "cohort_matrix",
    "global_state",
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
    """A federated training method: the strategy it drives the round
    engine with, and for the one-shot methods the clustering round
    before it.  An algorithm's attributes are its settings."""

    #: Registry/reporting name; subclasses override.
    name: str = "abstract"
    #: True for the methods whose round 1 only clusters the clients
    #: (:meth:`cluster`): FedClust and PACFL.
    one_shot: bool = False

    @property
    def min_rounds(self) -> int:
        """The shortest horizon :meth:`run` accepts: a one-shot method
        trains at least one round after its clustering round."""
        return 2 if self.one_shot else 1

    @abc.abstractmethod
    def strategy(self, env: FederatedEnv) -> RoundStrategy:
        """The server state and round hooks the engine drives; a
        one-shot method's :meth:`cluster` fills it in round 1."""

    def cluster(self, engine: RoundEngine, strategy: RoundStrategy) -> int:
        """A one-shot method's clustering round: cluster the clients
        into ``strategy``'s rows and labels and return how many took
        part."""
        raise NotImplementedError(f"{self.name} has no clustering round")

    def extras(self, engine: RoundEngine, strategy: RoundStrategy) -> dict:
        """The method's own entries of ``RunResult.extras``, read after
        the last round."""
        return {}

    def settings(self) -> dict:
        """The algorithm's settings as JSON; a checkpoint's identity
        carries each of them."""
        return to_jsonable(vars(self))

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
        every client, every round.  A one-shot method's round 1 is its
        clustering round, which a resumed run restores from the
        checkpoint instead of running.
        """
        if n_rounds < self.min_rounds:
            raise ValueError(
                f"{self.name} needs n_rounds >= {self.min_rounds}, got {n_rounds}"
            )
        if eval_every < 1:
            raise ValueError(f"eval_every must be >= 1, got {eval_every}")
        history = RunHistory(
            self.name, env.federation.dataset_name, env.seed, settings=self.settings()
        )
        engine = RoundEngine(env, scenario)
        strategy = self.strategy(env)
        first_round = 2 if self.one_shot else 1
        if self.one_shot and not engine.resumes:
            n_participants = self.cluster(engine, strategy)
            mean_acc, _ = strategy.evaluate(engine, 1)
            history.append(
                RoundRecord(
                    round_index=1,
                    mean_train_loss=float("nan"),
                    mean_local_accuracy=mean_acc,
                    n_participants=n_participants,
                    n_clusters=strategy.current_n_clusters(),
                    uploaded_params=env.tracker.total_uploaded,
                    downloaded_params=env.tracker.total_downloaded,
                    # Nothing is folded.  The wall time stays 0.0: only
                    # engine rounds are timed.
                    aggregation_event=False,
                )
            )
        accuracy = engine.run(
            strategy,
            n_rounds - first_round + 1,
            history,
            first_round=first_round,
            eval_every=eval_every,
        )
        return RunResult.from_engine(
            engine, history, accuracy, strategy.labels, **self.extras(engine, strategy)
        )

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
    labels.
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


def global_state(env: FederatedEnv) -> tuple[np.ndarray, np.ndarray]:
    """FedAvg's server state on ``env`` (CFL's too, and the one-shot
    methods' before their clustering round): the initial model as the
    one row of a matrix, and every client labelled 0."""
    return (
        env.layout.pack(env.init_state())[None],
        np.zeros(env.federation.n_clients, dtype=np.int64),
    )


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
