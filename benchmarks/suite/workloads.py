"""The benchmark's four workloads, their inputs and their correctness checks.

Every hyper-parameter lives here; nothing is read from
``repro.experiments.presets`` or from the older ``benchmarks/bench_*.py``
scripts, so a change to either cannot silently move the benchmark.

A workload is a closed batch job: :func:`setup` builds the federation,
the environment and the algorithm from a seed (timed as ``setup_s``),
and :func:`execute` runs the simulation to completion (timed as
``run_s``).  Each workload leans on different layers (see README.md):

* ``fedclust-lenet5`` — the paper's own path: LeNet-5, one-shot
  clustering round, grouped evaluation of the cluster models.  Conv
  models train on the serial kernel, so batched conv would show here.
* ``fedavg-mlp-shard`` — factored ``BatchedLinear`` lockstep training of
  a 1.58M-parameter MLP, cohort stack + GEMV; no conv, no clustering,
  no padding (every client holds the same number of samples).
* ``ifca-async-hardened`` — orchestration: the async event loop,
  corruption, admission, trimmed-mean aggregation, ragged lockstep
  padding and IFCA's probe forwards.
* ``population-100k`` — per-round engine bookkeeping, sampling and the
  sharded client-state store at 100k clients; tiny in BLAS terms.
"""

from __future__ import annotations

import contextlib
import hashlib
import json
import math
import time
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from repro.algorithms.base import RunResult
from repro.algorithms.fedavg import FedAvg
from repro.algorithms.ifca import IFCA
from repro.algorithms.local_only import _LocalRounds
from repro.core.clustering import ClusteringConfig
from repro.core.fedclust import FedClust, FedClustConfig
from repro.data.dataset import ArrayDataset
from repro.data.federation import ClientData, Federation, build_federation
from repro.fl.config import TrainConfig
from repro.fl.history import RunHistory
from repro.fl.rounds import (
    AsyncConfig,
    CorruptionConfig,
    RoundEngine,
    ScenarioConfig,
)
from repro.fl.simulation import FederatedEnv
from repro.fl.store import StoreConfig

__all__ = [
    "WORKLOADS",
    "Job",
    "Outcome",
    "setup",
    "execute",
    "federation_digest",
    "check_outcome",
]


# ----------------------------------------------------------------------
# Workload configurations (full scale, and the --smoke toy scale)
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class Workload:
    """Scales and checks of one workload (its ``why`` is in BENCHMARK.json)."""

    name: str
    full: dict
    smoke: dict
    #: Lowest acceptable final accuracy on seeds without a pinned value
    #: (``None``: the workload reports no accuracy).
    accuracy_floor: float | None
    #: Largest admissible cluster count (the FedClust silhouette cut's
    #: ``max_clusters``; IFCA's ``k``; 1 for one global model; ``None``
    #: when every client keeps its own model).
    max_clusters: int | None


WORKLOADS: dict[str, Workload] = {
    w.name: w
    for w in (
        Workload(
            name="fedclust-lenet5",
            full=dict(n_clients=10, n_samples=1000, warmup_steps=12, n_rounds=6),
            smoke=dict(n_clients=8, n_samples=400, warmup_steps=3, n_rounds=2),
            accuracy_floor=0.30,
            max_clusters=10,
        ),
        Workload(
            name="fedavg-mlp-shard",
            full=dict(n_clients=12, hidden=512, local_epochs=3, n_rounds=10),
            smoke=dict(n_clients=8, hidden=64, local_epochs=1, n_rounds=2),
            accuracy_floor=0.20,
            max_clusters=1,
        ),
        Workload(
            name="ifca-async-hardened",
            full=dict(n_clients=64, n_rounds=200),
            smoke=dict(n_clients=8, n_rounds=2),
            accuracy_floor=0.10,
            max_clusters=4,
        ),
        Workload(
            name="population-100k",
            full=dict(n_clients=100_000, client_fraction=0.001, n_rounds=60),
            smoke=dict(n_clients=8, client_fraction=0.25, n_rounds=2),
            accuracy_floor=None,
            max_clusters=None,
        ),
    )
}


# ----------------------------------------------------------------------
# Population workload: tiny shared-pool federation + eval-stubbed rounds
# ----------------------------------------------------------------------
_POP_INPUT_SHAPE = (1, 4, 4)
_POP_CLASSES = 4
_POP_POOL = 32
_POP_SAMPLES = 32
_POP_SHARD_SIZE = 32


def tiny_federation(n_clients: int, seed: int) -> Federation:
    """``n_clients`` shells over a shared pool of tiny datasets.

    Client ``cid`` references pool entry ``cid % pool`` for both splits,
    so data memory is O(pool) whatever the population.
    """
    rng = np.random.default_rng(seed)
    pool = []
    for i in range(_POP_POOL):
        images = rng.standard_normal((_POP_SAMPLES, *_POP_INPUT_SHAPE), dtype=np.float32)
        labels = rng.integers(0, _POP_CLASSES, _POP_SAMPLES).astype(np.int64)
        pool.append(ArrayDataset(images, labels, _POP_CLASSES, f"synthpop/{i}"))
    clients = [
        ClientData(cid, pool[cid % _POP_POOL], pool[cid % _POP_POOL])
        for cid in range(n_clients)
    ]
    return Federation(
        clients=clients,
        n_classes=_POP_CLASSES,
        input_shape=_POP_INPUT_SHAPE,
        dataset_name="synthpop",
    )


class NoEvalLocalRounds(_LocalRounds):
    """``local_only`` rounds with the O(population) evaluation stubbed.

    Its Table-I metric loads every client's model, which at 100k clients
    is exactly what this workload must not time.  Broadcast from the
    store, executor training and store write-back stay the real path.
    """

    def evaluate(self, engine, round_index):  # noqa: ARG002
        return float("nan"), np.zeros(1)


# ----------------------------------------------------------------------
# Jobs and outcomes
# ----------------------------------------------------------------------
@dataclass
class Job:
    """A set-up workload, ready to run once."""

    federation: Federation
    env: FederatedEnv
    start: Callable[[], RunResult]


@dataclass
class Outcome:
    """What one run produced, reduced to what the checks and metrics need."""

    run_s: float
    round_walls: list[float]
    final_accuracy: float
    mean_train_loss: float
    uploaded: int
    downloaded: int
    comm_by_phase: dict
    engine_record: dict
    n_clusters: int
    #: Whether every final server row is finite, and their sha256.
    rows_finite: bool
    rows_digest: str
    store_resident_bytes: int = 0
    store_resident_shards: int = 0
    notes: list[str] = field(default_factory=list)

    def signature(self) -> tuple:
        """Everything a run computes, for bit-for-bit comparisons."""
        return (
            repr(self.final_accuracy),
            repr(self.mean_train_loss),
            self.uploaded,
            self.downloaded,
            json.dumps(self.engine_record, sort_keys=True),
            self.n_clusters,
            self.rows_digest,
        )


def _fedclust_job(seed: int, cfg: dict) -> tuple[Federation, FederatedEnv, Callable]:
    # Label skew from two label shards per client rather than the
    # paper's Dirichlet(0.1): equal client sizes keep run time and peak
    # memory independent of the seed, which the benchmark compares
    # across seeds.
    fed = build_federation(
        "cifar10", cfg["n_clients"], cfg["n_samples"], seed,
        partition="shard", shards_per_client=2,
    )
    env = FederatedEnv(
        fed,
        "lenet5",
        train_cfg=TrainConfig(local_epochs=1, batch_size=32, lr=0.03, momentum=0.9),
        seed=seed,
        executor="batched",
    )
    algo = FedClust(
        FedClustConfig(
            warmup_steps=cfg["warmup_steps"],
            warmup_lr=0.01,
            warmup_momentum=0.0,
            warm_start_final_layer=True,
            clustering=ClusteringConfig(
                linkage_method="average", cut="silhouette", max_clusters=10
            ),
        )
    )
    return fed, env, lambda: algo.run(env, cfg["n_rounds"], eval_every=1)


def _fedavg_job(seed: int, cfg: dict) -> tuple[Federation, FederatedEnv, Callable]:
    # 100 samples per client (80 train / 20 test) and two label shards
    # each: equal client sizes, so lockstep never pays for a big client.
    fed = build_federation(
        "cifar10", cfg["n_clients"], 100 * cfg["n_clients"], seed,
        partition="shard", shards_per_client=2,
    )
    env = FederatedEnv(
        fed,
        "mlp",
        model_kwargs={"hidden": (cfg["hidden"],)},
        train_cfg=TrainConfig(
            local_epochs=cfg["local_epochs"], batch_size=32, lr=0.03, momentum=0.9
        ),
        seed=seed,
        executor="batched",
    )
    algo = FedAvg()
    return fed, env, lambda: algo.run(env, cfg["n_rounds"], eval_every=1)


def _ifca_job(seed: int, cfg: dict) -> tuple[Federation, FederatedEnv, Callable]:
    # Four planted label groups of 16 equal-size clients (IFCA's k = 4),
    # ragged through seeded per-(round, client) step budgets of 1-3
    # steps rather than through client sizes, so lockstep pads cohorts
    # by the same amount on every seed.  At most 8 clients in flight:
    # the batched executor keeps a gather slab per distinct cohort size
    # and IFCA's cohort sizes follow its cluster assignment, so with 32
    # in flight peak memory depended on the seed (185-265 MB over ten
    # seeds); with 8 every size up to 8 occurs on every seed.  Every
    # corruption kind here is one admission rejects (non-finite, or a
    # norm above 3x the median), and a third is trimmed from each side
    # of the per-cluster cohorts of ~3 rows that aggregate.
    fed = build_federation(
        "fmnist", cfg["n_clients"], 100 * cfg["n_clients"], seed,
        partition="label_cluster", groups=[[0, 1], [2, 3], [4, 5], [6, 7]],
    )
    env = FederatedEnv(
        fed,
        "mlp",
        model_kwargs={"hidden": (128,)},
        train_cfg=TrainConfig(local_epochs=1, batch_size=32, lr=0.03, momentum=0.9),
        seed=seed,
        executor="batched",
    )
    scenario = ScenarioConfig(
        async_config=AsyncConfig(buffer_size=8, max_concurrency=8, duration_range=(1, 3)),
        staleness_decay=0.9,
        compute_budget=(1, 3),
        corruption=CorruptionConfig(rate=0.1, kinds=("nan", "inf", "noise")),
        norm_bound=3.0,
        robust_agg="trimmed_mean",
        trim_fraction=0.34,
    )
    algo = IFCA(n_clusters=4)
    return fed, env, lambda: algo.run(env, cfg["n_rounds"], eval_every=1, scenario=scenario)


def _population_job(seed: int, cfg: dict) -> tuple[Federation, FederatedEnv, Callable]:
    fed = tiny_federation(cfg["n_clients"], seed)
    env = FederatedEnv(
        fed,
        model_name="mlp",
        model_kwargs={"hidden": (32,)},
        train_cfg=TrainConfig(local_epochs=2, batch_size=8, momentum=0.0, eval_batch_size=64),
        seed=seed,
        store=StoreConfig(kind="sharded", shard_size=_POP_SHARD_SIZE),
    )
    strategy = NoEvalLocalRounds(env)
    engine = RoundEngine(
        env, ScenarioConfig(client_fraction=cfg["client_fraction"], min_clients=1)
    )

    def start() -> RunResult:
        history = RunHistory("local_only", fed.dataset_name, seed)
        mean_acc, per_client = engine.run(strategy, cfg["n_rounds"], history)
        return RunResult(
            history=history,
            final_accuracy=mean_acc,
            accuracy_std=float("nan"),
            per_client_accuracy=per_client,
            comm=env.tracker.by_phase(),
            extras={"engine_record": engine.run_record()},
        )

    return fed, env, start


_BUILDERS = {
    "fedclust-lenet5": _fedclust_job,
    "fedavg-mlp-shard": _fedavg_job,
    "ifca-async-hardened": _ifca_job,
    "population-100k": _population_job,
}


def setup(name: str, seed: int, smoke: bool = False) -> Job:
    """Build one workload's inputs, environment and algorithm."""
    workload = WORKLOADS[name]
    return Job(*_BUILDERS[name](seed, workload.smoke if smoke else workload.full))


@contextlib.contextmanager
def engines_seen():
    """Remember every ``(engine, strategy)`` pair ``RoundEngine.run`` sees.

    The algorithms keep their server state on a strategy object they do
    not return; the correctness checks need its final rows.
    """
    seen: list = []
    original = RoundEngine.__dict__["run"]

    def run(self, strategy, *args, **kwargs):
        seen.append((self, strategy))
        return original(self, strategy, *args, **kwargs)

    RoundEngine.run = run
    try:
        yield seen
    finally:
        RoundEngine.run = original


def _server_rows(engine: RoundEngine, strategy) -> np.ndarray:
    """The strategy's final server state as a 2-D float64 array."""
    if hasattr(strategy, "store"):
        touched = sorted({cid for _, ids in engine.participation_log for cid in ids})
        return strategy.store.rows(touched)
    if hasattr(strategy, "matrix"):
        return np.asarray(strategy.matrix)
    if hasattr(strategy, "states"):
        return np.stack(strategy.states)
    return np.atleast_2d(strategy.vector)


def execute(job: Job) -> Outcome:
    """Run the simulation once; time it and reduce what it produced."""
    with engines_seen() as seen:
        t0 = time.perf_counter()
        result = job.start()
        run_s = time.perf_counter() - t0
    engine, strategy = seen[-1]
    rows = _server_rows(engine, strategy)
    records = result.history.records
    # Engine rounds only: FedClust's clustering round is logged by the
    # algorithm itself, outside the engine, with no wall time.
    walls = [r.wall_seconds for r in records if r.wall_seconds > 0.0]
    losses = [r.mean_train_loss for r in records if not math.isnan(r.mean_train_loss)]
    store = getattr(strategy, "store", None)
    n_clusters = result.extras.get("n_clusters", strategy.current_n_clusters())
    env = job.env
    outcome = Outcome(
        run_s=run_s,
        round_walls=walls,
        final_accuracy=float(result.final_accuracy),
        mean_train_loss=float(np.mean(losses)) if losses else float("nan"),
        uploaded=int(env.tracker.total_uploaded),
        downloaded=int(env.tracker.total_downloaded),
        comm_by_phase=env.tracker.by_phase(),
        engine_record=dict(result.extras["engine_record"]),
        n_clusters=int(n_clusters),
        rows_finite=bool(np.isfinite(rows).all()),
        rows_digest=hashlib.sha256(np.ascontiguousarray(rows).tobytes()).hexdigest(),
    )
    if store is not None:
        outcome.store_resident_bytes = int(store.resident_bytes())
        outcome.store_resident_shards = int(store.n_resident_shards)
    env.close()
    return outcome


# ----------------------------------------------------------------------
# Correctness
# ----------------------------------------------------------------------
def federation_digest(fed: Federation) -> str:
    """sha256 over every client's generated arrays, in client order.

    Datasets shared by reference (the population pool) are hashed once
    and referenced by position afterwards.
    """
    h = hashlib.sha256()
    h.update(repr((fed.n_clients, fed.n_classes, tuple(fed.input_shape))).encode())
    position: dict[int, int] = {}
    for client in fed.clients:
        for ds in (client.train, client.test):
            key = id(ds)
            if key in position:
                h.update(b"@%d" % position[key])
                continue
            position[key] = len(position)
            h.update(ds.images.tobytes())
            h.update(ds.labels.tobytes())
    return h.hexdigest()


def check_outcome(
    name: str, outcome: Outcome, expected: dict | None
) -> list[str]:
    """Correctness failures of one run (empty when it is correct).

    ``expected`` holds the pinned values of this (workload, seed) pair,
    or ``None`` for a seed without pins, where only the invariants are
    checked.  Traffic must match its pin exactly.  The cluster count and
    the accuracy follow floating-point summation order, which a faster
    kernel may change: a cluster count inside its range that differs from
    its pin, or an accuracy that differs but stays above the pin minus
    0.05, is not a failure; a "numerics changed" note is added to
    ``outcome.notes`` instead.
    """
    workload = WORKLOADS[name]
    failures = []
    if not outcome.rows_finite:
        failures.append("server rows hold non-finite values")
    top = workload.max_clusters
    if top is not None and not 1 <= outcome.n_clusters <= top:
        failures.append(
            f"n_clusters {outcome.n_clusters} outside [1, {top}]"
        )
    if not outcome.round_walls:
        failures.append("no engine round recorded a wall time")
    comm = outcome.uploaded + outcome.downloaded
    if workload.accuracy_floor is None:
        if comm != 0:
            failures.append(f"local-only run charged {comm} params of traffic")
    elif comm <= 0:
        failures.append("no traffic was charged")
    if expected is None:
        floor = workload.accuracy_floor
        if floor is not None and not outcome.final_accuracy >= floor:
            failures.append(
                f"final accuracy {outcome.final_accuracy!r} below floor {floor}"
            )
        return failures
    for key in ("uploaded", "downloaded"):
        if getattr(outcome, key) != expected[key]:
            failures.append(
                f"{key} {getattr(outcome, key)} != pinned {expected[key]}"
            )
    if outcome.n_clusters != expected["n_clusters"]:
        outcome.notes.append(
            f"numerics changed: n_clusters {outcome.n_clusters} "
            f"(pinned {expected['n_clusters']})"
        )
    for key in ("final_accuracy", "mean_train_loss"):
        pinned = expected.get(key)
        if pinned is None:
            continue
        got = getattr(outcome, key)
        # Accuracy may only fall by 0.05; train loss may only rise by it.
        bad = got < pinned - 0.05 if key == "final_accuracy" else not got <= pinned + 0.05
        if bad:
            failures.append(f"{key} {got!r} outside 0.05 of pinned {pinned!r}")
        elif got != pinned:
            outcome.notes.append(
                f"numerics changed: {key} {got!r} (pinned {pinned!r})"
            )
    return failures
