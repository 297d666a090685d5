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
  Absolute thresholds can be supplied instead (``norm_mode="absolute"``).
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
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.algorithms.base import (
    FLAlgorithm,
    RunResult,
    cohort_matrix,
    survivor_mean_loss,
    survivor_weighted_average,
    tasks_for_groups,
)
from repro.cluster.distance import pairwise_cosine_distance
from repro.cluster.hierarchy import cut_by_k, linkage
from repro.fl.client import ClientUpdate
from repro.fl.history import RunHistory
from repro.fl.parallel import UpdateTask
from repro.fl.rounds import (
    RoundEngine,
    RoundStrategy,
    ScenarioConfig,
    aggregation_weights,
)
from repro.fl.simulation import FederatedEnv
from repro.utils.validation import check_in, check_positive

__all__ = ["CFL"]


@dataclass
class _Cluster:
    """Server-side cluster bookkeeping.

    ``state`` is the cluster model as a packed float64 row on the
    environment's layout — CFL rides the flat plane end to end, so the
    broadcast payload, the Δ baseline and the evaluation input are all
    this one buffer.

    ``delta_cache`` (windowed-split mode only, ``delta_window > 1``)
    holds each member's most recent update delta as
    ``client_id → (round, Δ row, sample count)``; entries age out of
    the window each round, and the split criterion runs on the union of
    cached deltas once every member is covered.
    """

    state: np.ndarray
    members: np.ndarray
    scale0: float | None = None  # first coverage's max update norm
    history_of_splits: list[int] = field(default_factory=list)
    delta_cache: dict[int, tuple[int, np.ndarray, float]] = field(
        default_factory=dict
    )


class _CFLRounds(RoundStrategy):
    """Per-cluster FedAvg plus the recursive bipartition test."""

    name = "cfl"

    def __init__(self, algo: "CFL", clusters: list[_Cluster]) -> None:
        self.algo = algo
        self.clusters = clusters

    def broadcast_for(
        self, engine: RoundEngine, round_index: int, participants: np.ndarray
    ) -> list[UpdateTask]:
        return tasks_for_groups(
            engine.env.federation.n_clients,
            participants,
            [(cluster.state, cluster.members) for cluster in self.clusters],
        )

    def aggregate(
        self, engine: RoundEngine, round_index: int, survivors: list[ClientUpdate]
    ) -> float:
        if not survivors:
            return float("nan")
        env = engine.env
        algo = self.algo
        by_client = {u.client_id: u for u in survivors}
        losses = []
        next_clusters: list[_Cluster] = []
        for cluster in self.clusters:
            mine = [by_client[cid] for cid in cluster.members if cid in by_client]
            if not mine:
                next_clusters.append(cluster)  # dark cluster keeps its model
                continue
            incoming = cluster.state
            cohort = cohort_matrix(env, mine)
            averaged = survivor_weighted_average(env, mine, **engine.robust_kwargs)
            new_state = (
                incoming if averaged is None else env.layout.round_trip(averaged)
            )
            cluster_loss = survivor_mean_loss(mine)
            if not np.isnan(cluster_loss):
                losses.append(cluster_loss)
            # Update vectors Δ_i = local − incoming on the flat plane:
            # one row-broadcast subtraction over the round's packed
            # cohort instead of a per-key dict loop.  The subtraction
            # happens in float64 (pack embeds float32 exactly), where
            # the dict path subtracted in float32 first — norms and
            # split margins agree to float32 round-off; the parity test
            # pins the split decisions.
            deltas = cohort - incoming
            if algo.delta_window > 1 or engine.is_async:
                # The classic full-house gate assumes one dispatch per
                # round; under async aggregation a buffer almost never
                # holds a whole cluster at once, so the gate would
                # silently disable splits forever.  Async engines route
                # through the windowed criterion with a horizon wide
                # enough to cover one dispatch-to-aggregation cycle.
                split = self._windowed_split_sides(
                    cluster, mine, deltas, round_index, engine
                )
            else:
                split = self._full_house_split_sides(
                    cluster, mine, deltas, round_index
                )
            if split is not None:
                left, right = split
                for side in (left, right):
                    next_clusters.append(
                        _Cluster(
                            state=new_state.copy(),
                            members=cluster.members[side],
                            scale0=cluster.scale0,
                            history_of_splits=cluster.history_of_splits
                            + [round_index],
                        )
                    )
                continue
            cluster.state = new_state
            next_clusters.append(cluster)
        self.clusters = next_clusters
        return float(np.mean(losses)) if losses else float("nan")

    # ------------------------------------------------------------------
    # Split candidates: one-round full cohort vs windowed delta cache
    # ------------------------------------------------------------------
    def _full_house_split_sides(
        self,
        cluster: _Cluster,
        mine: list[ClientUpdate],
        deltas: np.ndarray,
        round_index: int,
    ) -> tuple[np.ndarray, np.ndarray] | None:
        """The PR-4 criterion: split only on full-cohort rounds.

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
        full_house = len(mine) == len(cluster.members)
        if cluster.scale0 is None and full_house:
            cluster.scale0 = max_norm
        if not full_house or not algo._should_split(
            cluster, mean_norm, max_norm, round_index
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
        wire_dtype = engine.env.layout.wire_dtype
        update_weights = aggregation_weights(mine)
        for update, row, weight in zip(mine, deltas, update_weights):
            if weight > 0.0:
                # Copy the row out of the round's (cohort × n_params)
                # delta matrix: caching the view would pin the whole
                # matrix alive until the entry ages out — W full cohort
                # matrices per cluster instead of one vector per member.
                # Stored at the wire dtype: a Δ already crossed the
                # network at that precision, and float64 rows cost 2×
                # the memory (~800 MB worst case at 64 × 1.6M × W=8)
                # for split margins the parity test pins either way.
                cluster.delta_cache[update.client_id] = (
                    round_index,
                    row.astype(wire_dtype),
                    float(update.n_samples),
                )
        horizon = round_index - self._effective_window(engine)
        cluster.delta_cache = {
            cid: entry
            for cid, entry in cluster.delta_cache.items()
            if entry[0] > horizon
        }
        if any(cid not in cluster.delta_cache for cid in cluster.members):
            return None  # window does not cover the cohort yet
        cached = [cluster.delta_cache[int(cid)] for cid in cluster.members]
        delta_mat = np.stack([entry[1] for entry in cached]).astype(np.float64)
        weights = np.array([entry[2] for entry in cached], dtype=np.float64)
        weights /= weights.sum()
        mean_norm = float(np.linalg.norm(weights @ delta_mat))
        max_norm = float(np.linalg.norm(delta_mat, axis=1).max())
        if cluster.scale0 is None:
            cluster.scale0 = max_norm
        if not algo._should_split(cluster, mean_norm, max_norm, round_index):
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

    def evaluate(
        self, engine: RoundEngine, round_index: int
    ) -> tuple[float, np.ndarray]:
        env = engine.env
        return env.evaluate_packed(
            np.stack([c.state for c in self.clusters]),
            self.labels(env.federation.n_clients),
        )

    def current_n_clusters(self) -> int:
        return len(self.clusters)

    def labels(self, m: int) -> np.ndarray:
        labels = np.full(m, -1, dtype=np.int64)
        for g, cluster in enumerate(self.clusters):
            labels[cluster.members] = g
        assert (labels >= 0).all(), "every client must belong to a cluster"
        return labels

    def checkpoint_payload(
        self, engine: RoundEngine
    ) -> tuple[dict, dict[str, np.ndarray]]:
        # Cluster states are round_trip results (or the packed initial
        # state) — exact at the wire dtype; cached deltas already live
        # at the wire dtype, so storing them there is lossless too.
        wire = engine.env.layout.wire_dtype
        meta_clusters: list[dict] = []
        cache_rows: list[np.ndarray] = []
        for cluster in self.clusters:
            cache_meta = []
            for cid in sorted(cluster.delta_cache):
                produced, row, weight = cluster.delta_cache[cid]
                cache_meta.append(
                    {
                        "client_id": int(cid),
                        "round": int(produced),
                        "weight": float(weight),
                    }
                )
                cache_rows.append(np.asarray(row, dtype=wire))
            meta_clusters.append(
                {
                    "members": [int(c) for c in cluster.members],
                    "scale0": (
                        None if cluster.scale0 is None else float(cluster.scale0)
                    ),
                    "splits": [int(r) for r in cluster.history_of_splits],
                    "cache": cache_meta,
                }
            )
        n_params = engine.env.n_params
        arrays = {
            "states": np.stack([c.state for c in self.clusters]).astype(wire),
            "cache_rows": (
                np.stack(cache_rows)
                if cache_rows
                else np.empty((0, n_params), dtype=wire)
            ),
        }
        return {"clusters": meta_clusters}, arrays

    def restore_payload(
        self, engine: RoundEngine, meta, arrays
    ) -> None:
        states = arrays["states"].astype(np.float64)
        cache_rows = arrays["cache_rows"]
        clusters: list[_Cluster] = []
        cursor = 0
        for g, entry in enumerate(meta["clusters"]):
            cache: dict[int, tuple[int, np.ndarray, float]] = {}
            for item in entry["cache"]:
                cache[int(item["client_id"])] = (
                    int(item["round"]),
                    cache_rows[cursor],
                    float(item["weight"]),
                )
                cursor += 1
            clusters.append(
                _Cluster(
                    state=states[g],
                    members=np.array(entry["members"], dtype=np.int64),
                    scale0=(
                        None if entry["scale0"] is None else float(entry["scale0"])
                    ),
                    history_of_splits=[int(r) for r in entry["splits"]],
                    delta_cache=cache,
                )
            )
        self.clusters = clusters


class CFL(FLAlgorithm):
    """Iterative bipartitioning clustered FL.

    Parameters
    ----------
    eps1:
        Incongruence threshold.  Relative mode: split candidates need
        ``||avg update|| / max ||update|| < eps1``.
    eps2:
        Progress threshold.  Relative mode: ``max ||update||`` must exceed
        ``eps2 × scale₀``.
    warmup_rounds:
        No splits before this round (clusters must first approach their
        joint stationary point).
    min_cluster_size:
        Never create a cluster smaller than this.
    norm_mode:
        ``"relative"`` (default, scale-free) or ``"absolute"``.
    delta_window:
        ``1`` (default) reproduces the classic criterion: a cluster only
        considers splitting in rounds where every member's update made
        the deadline — which under partial participation may be never.
        With ``W > 1`` the cluster caches each member's most recent
        update delta for up to ``W`` rounds and splits on the union of
        the cached deltas once every member is covered, restoring splits
        at low client fractions.  Each cached row costs one ``n_params``
        vector at the layout's wire dtype (float32 for float32 models)
        until it ages out.
    """

    name = "cfl"

    def __init__(
        self,
        eps1: float = 0.4,
        eps2: float = 0.08,
        warmup_rounds: int = 3,
        min_cluster_size: int = 2,
        norm_mode: str = "relative",
        delta_window: int = 1,
    ) -> None:
        check_positive("eps1", eps1)
        check_positive("eps2", eps2)
        check_positive("warmup_rounds", warmup_rounds)
        check_positive("min_cluster_size", min_cluster_size)
        check_in("norm_mode", norm_mode, ("relative", "absolute"))
        check_positive("delta_window", delta_window)
        self.eps1 = eps1
        self.eps2 = eps2
        self.warmup_rounds = warmup_rounds
        self.min_cluster_size = min_cluster_size
        self.norm_mode = norm_mode
        self.delta_window = int(delta_window)

    # ------------------------------------------------------------------
    def _should_split(
        self, cluster: _Cluster, mean_norm: float, max_norm: float, round_index: int
    ) -> bool:
        if round_index <= self.warmup_rounds:
            return False
        if len(cluster.members) < 2 * self.min_cluster_size:
            return False
        if self.norm_mode == "absolute":
            return mean_norm < self.eps1 and max_norm > self.eps2
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
        m = env.federation.n_clients
        history = RunHistory(self.name, env.federation.dataset_name, env.seed)
        strategy = _CFLRounds(
            self,
            [_Cluster(state=env.layout.pack(env.init_state()), members=np.arange(m))],
        )
        engine = RoundEngine(env, self._scenario(scenario))
        accuracy = engine.run(strategy, n_rounds, history, eval_every=eval_every)
        return RunResult.from_engine(
            engine,
            history,
            accuracy,
            strategy.labels(m),
            split_rounds=sorted(
                {r for c in strategy.clusters for r in c.history_of_splits}
            ),
        )
