"""CFL — Clustered Federated Learning (Sattler et al., TNNLS 2020).

The iterative baseline the paper criticises for needing many rounds to
form stable clusters.  CFL trains FedAvg-style inside each cluster and
**recursively bipartitions** a cluster when its aggregated update norm is
small (the cluster objective is near-stationary) while individual client
update norms stay large (the clients disagree) — the incongruence
signature of mixed data distributions.  The bipartition splits clients by
the pairwise cosine similarity of their weight updates.

Implementation notes
--------------------
* The split test uses Sattler's two-threshold criterion.  Because raw
  norm scales depend on model size and learning rate, the default mode is
  *relative*: the aggregated-update norm is compared to the largest
  individual update norm in the same cluster/round
  (``mean_rel = ||Σ wᵢΔᵢ|| / maxᵢ||Δᵢ|| < eps1`` signals incongruence),
  and ``maxᵢ||Δᵢ|| > eps2 × scale₀`` (with ``scale₀`` the cluster's
  first-round max norm) checks that clients are still actually moving.
* The bipartition is computed with complete-linkage hierarchical
  clustering (k = 2) on cosine *distance* of updates — the same optimal
  max-cross-similarity split Sattler's reference implementation performs.
* Every round ships **full model updates** for every client, which is
  what makes CFL's communication cost high next to FedClust's one-shot
  partial-weight clustering (Table I / C1 experiment).
* Under scenario policy (partial participation / failures / stragglers)
  a cluster only *considers* splitting in rounds where every member's
  update made the deadline — a bipartition over a partial cohort would
  leave the absentees unassignable.  Aggregation still renormalises
  over whatever subset survived.
* ``delta_window > 1`` relaxes that: each member's most recent update
  delta is cached for up to ``W`` rounds, and the split criterion runs
  on the union of cached deltas once every member is covered — so CFL
  can split clusters under partial participation, where a full-cohort
  round might never occur.  Cached deltas are taken against the cluster
  state of the round that produced them (the windowed approximation).
* The server state is :class:`repro.algorithms.base.ClusteredRounds`'
  matrix and label vector; CFL keeps only its split state.  A round
  decides its splits against the incoming rows, folds every cluster
  through the shared aggregation, then gives each split cluster's right
  half a copy of the folded row as row ``g + 1``, moving every later
  cluster up one.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.algorithms.base import (
    ClusteredRounds,
    FLAlgorithm,
    RunResult,
    cohort_matrix,
)
from repro.cluster.distance import pairwise_cosine_distance
from repro.cluster.hierarchy import cut_by_k, linkage
from repro.fl.client import ClientUpdate
from repro.fl.history import RunHistory
from repro.fl.rounds import RoundEngine, ScenarioConfig, aggregation_weights
from repro.fl.simulation import FederatedEnv
from repro.utils.validation import check_positive

__all__ = ["CFL"]


@dataclass
class _Cluster:
    """CFL's split state for one cluster, aligned with its server row.

    The cluster's model and members are the strategy's ``matrix[g]``
    and ``labels == g``; what CFL adds is ``scale0`` (the max update
    norm at the cluster's first full coverage, the relative criterion's
    baseline), the rounds at which it and its ancestors split, and the
    ``delta_cache`` (windowed-split mode only, ``delta_window > 1``):
    each member's most recent update delta as
    ``client_id → (round, Δ row, sample count)``.  Entries age out of
    the window each round, and the split criterion runs on the union of
    cached deltas once every member is covered.
    """

    scale0: float | None = None  # first coverage's max update norm
    history_of_splits: list[int] = field(default_factory=list)
    delta_cache: dict[int, tuple[int, np.ndarray, float]] = field(
        default_factory=dict
    )


class _CFLRounds(ClusteredRounds):
    """Per-cluster FedAvg plus the recursive bipartition test."""

    name = "cfl"
    resumable = (*ClusteredRounds.resumable, "clusters")
    clusters: list[_Cluster]

    def __init__(self, algo: "CFL", env: FederatedEnv) -> None:
        super().__init__(
            env.layout.pack(env.init_state())[None],
            np.zeros(env.federation.n_clients, dtype=np.int64),
        )
        self.algo = algo
        self.clusters = [_Cluster()]

    def aggregate(
        self, engine: RoundEngine, round_index: int, survivors: list[ClientUpdate]
    ) -> float:
        # Clusters fold their survivors in client-id order, which is
        # their member order.  Splits are decided against the incoming
        # rows, before the fold overwrites them.
        survivors = sorted(survivors, key=lambda u: u.client_id)
        movers: dict[int, np.ndarray] = {}
        for g, mine in self.survivors_by_cluster(survivors):
            right = self._split_off(engine, g, mine, round_index)
            if right is not None:
                movers[g] = right
        loss = super().aggregate(engine, round_index, survivors)
        # A split cluster's halves both start from its folded row: the
        # right half becomes row g + 1 and every later cluster moves up
        # one, so the halves sit where their parent sat.
        for g in sorted(movers, reverse=True):
            self.matrix = np.insert(self.matrix, g + 1, self.matrix[g], axis=0)
            self.labels[self.labels > g] += 1
            self.labels[movers[g]] = g + 1
            parent = self.clusters[g]
            self.clusters[g : g + 1] = [
                _Cluster(parent.scale0, parent.history_of_splits + [round_index])
                for _ in range(2)
            ]
        return loss

    # ------------------------------------------------------------------
    # Split candidates: one-round full cohort vs windowed delta cache
    # ------------------------------------------------------------------
    def _split_off(
        self,
        engine: RoundEngine,
        g: int,
        mine: list[ClientUpdate],
        round_index: int,
    ) -> np.ndarray | None:
        """The members cluster ``g`` splits off to a new row this round,
        or ``None`` when it does not split."""
        members = np.flatnonzero(self.labels == g)
        cluster = self.clusters[g]
        # Update vectors Δ_i = local − incoming: one row-broadcast
        # subtraction over the round's packed cohort, in float64 (the
        # rows widen exactly; a float32 difference would round).
        deltas = np.subtract(
            cohort_matrix(engine.env, mine), self.matrix[g], dtype=np.float64
        )
        if self.algo.delta_window > 1 or engine.is_async:
            # The classic full-house gate assumes one dispatch per
            # round; under async aggregation a buffer almost never
            # holds a whole cluster at once, so the gate would
            # silently disable splits forever.  Async engines route
            # through the windowed criterion with a horizon wide
            # enough to cover one dispatch-to-aggregation cycle.
            sides = self._windowed_split_sides(
                cluster, members, mine, deltas, round_index, engine
            )
        else:
            sides = self._full_house_split_sides(
                cluster, members, mine, deltas, round_index
            )
        return None if sides is None else members[sides[1]]

    def _full_house_split_sides(
        self,
        cluster: _Cluster,
        members: np.ndarray,
        mine: list[ClientUpdate],
        deltas: np.ndarray,
        round_index: int,
    ) -> tuple[np.ndarray, np.ndarray] | None:
        """The classic criterion: split only on full-cohort rounds.

        Splits (and the scale₀ baseline the relative criterion compares
        against) need the full cohort: with absentees the max-norm is
        taken over a subset — a missing client could have carried the
        largest delta — and a bipartition would leave the absentees on
        neither side.
        """
        algo = self.algo
        weights = np.array([u.n_samples for u in mine], dtype=np.float64)
        weights /= weights.sum()
        mean_norm = float(np.linalg.norm(weights @ deltas))
        norms = np.linalg.norm(deltas, axis=1)
        max_norm = float(norms.max())
        full_house = len(mine) == len(members)
        if cluster.scale0 is None and full_house:
            cluster.scale0 = max_norm
        if not full_house or not algo._should_split(
            cluster, len(members), mean_norm, max_norm, round_index
        ):
            return None
        return self._admissible(algo._bipartition(deltas))

    def _effective_window(self, engine: RoundEngine) -> int:
        """The delta-cache horizon in rounds.

        The configured ``delta_window``, widened under async engines to
        cover at least one dispatch-to-aggregation cycle (maximum
        training duration plus the rounds the buffer takes to fill) —
        with the configured window alone, cache entries could age out
        faster than the event stream can ever cover a cluster.
        """
        window = self.algo.delta_window
        async_cfg = engine.scenario.async_config
        if async_cfg is not None:
            _, hi = async_cfg.duration_range
            window = max(window, hi + async_cfg.buffer_size)
        return window

    def _windowed_split_sides(
        self,
        cluster: _Cluster,
        members: np.ndarray,
        mine: list[ClientUpdate],
        deltas: np.ndarray,
        round_index: int,
        engine: RoundEngine,
    ) -> tuple[np.ndarray, np.ndarray] | None:
        """Split on the union of the last ``delta_window`` rounds' deltas.

        Under partial participation a full-cohort round may never happen,
        so each member's most recent Δ is cached for up to ``W`` rounds
        and the split criterion runs once the cache covers every member.
        The cached deltas are taken against the cluster state of the
        round they were produced in — the windowed approximation accepts
        that baseline drift in exchange for split decisions at low ``C``.
        Updates that carry no aggregation weight (zero-budget clients:
        zero steps, zero delta) contribute no signal and are not cached.
        """
        algo = self.algo
        dtype = engine.env.layout.dtype
        update_weights = aggregation_weights(mine)
        for update, row, weight in zip(mine, deltas, update_weights):
            if weight > 0.0:
                # Copy the row out of the round's (cohort × n_params)
                # delta matrix: caching the view would pin the whole
                # matrix alive until the entry ages out — W full cohort
                # matrices per cluster instead of one vector per member.
                # Stored at the layout dtype: a Δ already crossed the
                # network at that precision, and float64 rows cost 2×
                # the memory (~800 MB worst case at 64 × 1.6M × W=8)
                # for split margins the parity test pins either way.
                cluster.delta_cache[update.client_id] = (
                    round_index,
                    row.astype(dtype),
                    float(update.n_samples),
                )
        horizon = round_index - self._effective_window(engine)
        cluster.delta_cache = {
            cid: entry
            for cid, entry in cluster.delta_cache.items()
            if entry[0] > horizon
        }
        if any(cid not in cluster.delta_cache for cid in members):
            return None  # window does not cover the cohort yet
        cached = [cluster.delta_cache[int(cid)] for cid in members]
        delta_mat = np.stack([entry[1] for entry in cached], dtype=np.float64)
        weights = np.array([entry[2] for entry in cached], dtype=np.float64)
        weights /= weights.sum()
        mean_norm = float(np.linalg.norm(weights @ delta_mat))
        max_norm = float(np.linalg.norm(delta_mat, axis=1).max())
        if cluster.scale0 is None:
            cluster.scale0 = max_norm
        if not algo._should_split(
            cluster, len(members), mean_norm, max_norm, round_index
        ):
            return None
        return self._admissible(algo._bipartition(delta_mat))

    def _admissible(
        self, sides: tuple[np.ndarray, np.ndarray]
    ) -> tuple[np.ndarray, np.ndarray] | None:
        """A bipartition both halves of which satisfy the size floor."""
        left, right = sides
        if (
            len(left) >= self.algo.min_cluster_size
            and len(right) >= self.algo.min_cluster_size
        ):
            return left, right
        return None


class CFL(FLAlgorithm):
    """Iterative bipartitioning clustered FL.

    Parameters
    ----------
    eps1:
        Incongruence threshold: split candidates need
        ``||avg update|| / max ||update|| < eps1``.
    eps2:
        Progress threshold: ``max ||update||`` must exceed
        ``eps2 × scale₀``.
    warmup_rounds:
        No splits before this round (clusters must first approach their
        joint stationary point).
    min_cluster_size:
        Never create a cluster smaller than this.
    delta_window:
        ``1`` (default) reproduces the classic criterion: a cluster only
        considers splitting in rounds where every member's update made
        the deadline — which under partial participation may be never.
        With ``W > 1`` the cluster caches each member's most recent
        update delta for up to ``W`` rounds and splits on the union of
        the cached deltas once every member is covered, restoring splits
        at low client fractions.  Each cached row costs one ``n_params``
        vector at the layout dtype (float32 for float32 models) until it
        ages out.
    """

    name = "cfl"

    def __init__(
        self,
        eps1: float = 0.4,
        eps2: float = 0.08,
        warmup_rounds: int = 3,
        min_cluster_size: int = 2,
        delta_window: int = 1,
    ) -> None:
        check_positive("eps1", eps1)
        check_positive("eps2", eps2)
        check_positive("warmup_rounds", warmup_rounds)
        check_positive("min_cluster_size", min_cluster_size)
        check_positive("delta_window", delta_window)
        self.eps1 = eps1
        self.eps2 = eps2
        self.warmup_rounds = warmup_rounds
        self.min_cluster_size = min_cluster_size
        self.delta_window = int(delta_window)

    # ------------------------------------------------------------------
    def _should_split(
        self,
        cluster: _Cluster,
        n_members: int,
        mean_norm: float,
        max_norm: float,
        round_index: int,
    ) -> bool:
        if round_index <= self.warmup_rounds:
            return False
        if n_members < 2 * self.min_cluster_size:
            return False
        if max_norm <= 0:
            return False
        scale0 = cluster.scale0 if cluster.scale0 else max_norm
        return (mean_norm / max_norm) < self.eps1 and max_norm > self.eps2 * scale0

    @staticmethod
    def _bipartition(update_matrix: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Split rows into two groups by cosine-distance complete linkage."""
        d = pairwise_cosine_distance(update_matrix)
        labels = cut_by_k(linkage(d, "complete"), 2)
        return np.flatnonzero(labels == 0), np.flatnonzero(labels == 1)

    # ------------------------------------------------------------------
    def run(
        self,
        env: FederatedEnv,
        n_rounds: int,
        eval_every: int = 1,
        scenario: ScenarioConfig | None = None,
    ) -> RunResult:
        history = RunHistory(self.name, env.federation.dataset_name, env.seed)
        strategy = _CFLRounds(self, env)
        engine = RoundEngine(env, scenario)
        accuracy = engine.run(strategy, n_rounds, history, eval_every=eval_every)
        return RunResult.from_engine(
            engine,
            history,
            accuracy,
            strategy.labels,
            split_rounds=sorted(
                {r for c in strategy.clusters for r in c.history_of_splits}
            ),
        )
