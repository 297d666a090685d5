"""Population-scale round benchmark (``BENCH_population.json``).

Demonstrates the O(cohort) round contract of the sharded client-state
store (:mod:`repro.fl.store`): ``local_only`` — the one algorithm whose
state is O(population) — over 100k+ clients at FedAvg fraction
``C = 0.001``, where only the ~100-client cohort's rows are copied out
of the store and only the shards those clients touch are resident.

Two populations are timed at a **fixed cohort size** (100k @ C=0.001 vs
200k @ C=0.0005, both a 100-client cohort): if rounds are O(cohort),
doubling the non-sampled population must not move per-round wall-clock.
Both engines are built once in one process and run one warm-up round
each; then :data:`N_PAIRS` pairs of single rounds alternate between
them, the smaller population first in even pairs and second in odd
ones, and the verdict is the **median per-pair ratio** of the engine's
own per-round ``wall_seconds`` stamps.  A host speed phase (the host
flips between levels ~1.5x apart for seconds at a time) then lands on
both sides of a pair instead of on one whole population.  The record
keeps the per-round wall times and per-pair ratios, peak RSS,
traced-allocation peak, and the store's resident bytes next to the
dense-equivalent footprint — the sharded store holds only the shards
its cohorts touched, while a dense plane doubles with the population.

Client data is O(1) in the population: a small pool of tiny synthetic
datasets is shared **by reference** across all clients (``cid % pool``),
so 100k ``ClientData`` records cost 100k dataclass shells, not 100k
array copies.  Evaluation is overridden to a no-op — ``local_only``'s
Table-I metric is O(population) by construction and is not what this
bench measures.

``--check`` mode is the tier-1 gate: two smaller populations (20k vs
40k, fixed 32-client cohort), timed by the same protocol, must agree on
per-round wall-clock within **10%** (median per-pair ratio, no retry),
and a small dense-vs-sharded run must produce bit-identical store
contents — the store swap is a memory policy, never a numerics change.

Run via ``python benchmarks/bench_population.py`` (full record) or
``python benchmarks/bench_population.py --check`` (CI gate), or through
``scripts/bench.sh``.
"""

from __future__ import annotations

import json
import resource
import sys
import tracemalloc
from pathlib import Path

import numpy as np

from repro.algorithms.local_only import _LocalRounds
from repro.data.dataset import ArrayDataset
from repro.data.federation import ClientData, Federation
from repro.fl.config import TrainConfig
from repro.fl.history import RunHistory
from repro.fl.rounds import RoundEngine, ScenarioConfig
from repro.fl.simulation import FederatedEnv
from repro.fl.store import StoreConfig

# Fixed-cohort pairs: (n_clients, client_fraction) with n * C constant,
# so any wall-clock growth between the two is population overhead.
FULL_PAIR = ((100_000, 0.001), (200_000, 0.0005))
CHECK_PAIR = ((20_000, 0.0016), (40_000, 0.0008))

#: CI gate: doubling the non-sampled population may not grow per-round
#: wall-clock by more than this fraction (median per-pair ratio).
OCOHORT_GATE_FRACTION = 0.10

#: Alternating single-round pairs per timing, after one warm-up round
#: per population.  Odd, so the median is one pair's ratio.
N_PAIRS = 31

# Tiny model/data so the bench measures round mechanics, not GEMMs:
# (1, 4, 4) inputs through an MLP with one 32-unit hidden layer is
# ~676 float32 params — small enough that even a 200k-client *dense*
# plane would fit, which keeps the memory comparison honest (the
# sharded win shown here is structural, not an artefact of an
# impossible baseline).
_INPUT_SHAPE = (1, 4, 4)
_N_CLASSES = 4
_MODEL_KWARGS = {"hidden": (32,)}
_POOL_SIZE = 32
_SAMPLES_PER_CLIENT = 32
_SHARD_SIZE = 32
_SHARDED = StoreConfig(kind="sharded", shard_size=_SHARD_SIZE)


def _tiny_federation(n_clients: int, seed: int = 0) -> Federation:
    """``n_clients`` shells over a shared pool of tiny datasets.

    The pool holds ``_POOL_SIZE`` distinct :class:`ArrayDataset` objects;
    client ``cid`` references pool entry ``cid % _POOL_SIZE`` for both
    splits.  Data memory is O(pool), independent of the population.
    """
    rng = np.random.default_rng(seed)
    pool = []
    for i in range(_POOL_SIZE):
        images = rng.standard_normal(
            (_SAMPLES_PER_CLIENT, *_INPUT_SHAPE), dtype=np.float32
        )
        labels = rng.integers(0, _N_CLASSES, _SAMPLES_PER_CLIENT).astype(np.int64)
        pool.append(
            ArrayDataset(images, labels, _N_CLASSES, f"synthpop/{i}")
        )
    clients = [
        ClientData(cid, pool[cid % _POOL_SIZE], pool[cid % _POOL_SIZE])
        for cid in range(n_clients)
    ]
    return Federation(
        clients=clients,
        n_classes=_N_CLASSES,
        input_shape=_INPUT_SHAPE,
        dataset_name="synthpop",
    )


class _NoEvalLocalRounds(_LocalRounds):
    """``local_only`` rounds with the O(population) evaluation stubbed.

    The Table-I metric loads every client's model — per-client state
    makes it inherently O(population), and it is exactly what this bench
    must *not* time.  Rounds stay the production path end to end
    (broadcast from the store, executor training, store write-back).
    """

    def evaluate(self, engine, round_index):  # noqa: ARG002
        return float("nan"), np.zeros(1)


def _engine(
    n_clients: int, client_fraction: float, store: StoreConfig, seed: int = 0
) -> tuple[RoundEngine, _NoEvalLocalRounds, RunHistory]:
    """A ``local_only`` engine over ``n_clients``, ready for its first round."""
    env = FederatedEnv(
        _tiny_federation(n_clients, seed),
        model_name="mlp",
        model_kwargs=dict(_MODEL_KWARGS),
        train_cfg=TrainConfig(
            local_epochs=2, batch_size=8, momentum=0.0, eval_batch_size=64
        ),
        seed=seed,
        store=store,
    )
    engine = RoundEngine(
        env, ScenarioConfig(client_fraction=client_fraction, min_clients=1)
    )
    return engine, _NoEvalLocalRounds(env), RunHistory("local_only", "synthpop", seed)


def _paired_rounds(pair) -> list[tuple[RoundEngine, _NoEvalLocalRounds, RunHistory]]:
    """Run both populations' engines in alternating single rounds.

    Round 1 of each is the warm-up (executor buffers, first shard
    touches); pair ``i`` then runs round ``i + 2`` of each, the smaller
    population first when ``i`` is even.  Returns the two runs, whose
    histories hold the per-round wall times.
    """
    runs = [_engine(n, c, _SHARDED) for n, c in pair]
    for engine, strategy, history in runs:
        engine.run(strategy, 1, history)
    for i in range(N_PAIRS):
        for engine, strategy, history in runs[:: 1 if i % 2 == 0 else -1]:
            engine.run(strategy, 1, history, first_round=i + 2)
    return runs


def _pair_ratios(runs) -> list[float]:
    """Large-over-small round time of each pair (warm-up rounds left out)."""
    small, large = (
        [r.wall_seconds for r in history.records[1:]] for _, _, history in runs
    )
    return [b / a for a, b in zip(small, large)]


def _traced_peak_mb(n_clients: int, client_fraction: float) -> float:
    """tracemalloc peak of a separate 2-round run.

    Separate because tracemalloc taxes every allocation (~3x on these
    Python-bound rounds) and would poison the timed rounds.
    """
    tracemalloc.start()
    engine, strategy, history = _engine(n_clients, client_fraction, _SHARDED)
    engine.run(strategy, 2, history)
    _, peak = tracemalloc.get_traced_memory()
    tracemalloc.stop()
    return round(peak / (1024.0 * 1024.0), 1)


def _population_record(run, client_fraction: float) -> dict:
    """One population point: its round times and store footprint."""
    engine, strategy, history = run
    n_clients = engine.env.federation.n_clients
    walls = [r.wall_seconds for r in history.records]
    steady = walls[1:]
    p = engine.env.layout.n_params
    return {
        "n_clients": n_clients,
        "client_fraction": client_fraction,
        "cohort_size": int(round(n_clients * client_fraction)),
        "n_rounds": len(walls),
        "wall_seconds_per_round": [round(w, 6) for w in walls],
        "median_round_ms": round(float(np.median(steady)) * 1e3, 3),
        "best_round_ms": round(float(np.min(steady)) * 1e3, 3),
        "store": engine.env.store_config.describe(),
        "n_params": int(p),
        "store_resident_bytes": int(strategy.store.resident_bytes()),
        "n_resident_shards": int(strategy.store.n_resident_shards),
        "n_total_shards": -(-n_clients // _SHARD_SIZE),
        "dense_equivalent_bytes": int(n_clients * p * engine.env.layout.dtype.itemsize),
        "tracemalloc_peak_mb": _traced_peak_mb(n_clients, client_fraction),
    }


def _bit_identity_check(n_clients: int = 200, n_rounds: int = 2) -> bool:
    """Dense vs sharded stores must end a run with identical contents."""
    ids = np.arange(n_clients)
    rows = {}
    for kind in ("dense", "sharded"):
        engine, strategy, history = _engine(
            n_clients, 0.05, StoreConfig(kind=kind, shard_size=7)
        )
        engine.run(strategy, n_rounds, history)
        rows[kind] = strategy.store.rows(ids)
    return bool(np.array_equal(rows["dense"], rows["sharded"]))


def run_population(pair=FULL_PAIR) -> dict:
    """Time both population points in alternation; derive the ratio."""
    runs = _paired_rounds(pair)
    ratios = _pair_ratios(runs)
    ratio = float(np.median(ratios))
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    return {
        "benchmark": "population_scale_rounds",
        "algorithm": "local_only",
        "model": {"name": "mlp", **_MODEL_KWARGS,
                  "input_shape": list(_INPUT_SHAPE)},
        "protocol": (
            f"one warm-up round per population, then {N_PAIRS} alternating "
            "single-round pairs in one process; ratio = median per-pair "
            "large/small round time"
        ),
        "populations": [
            _population_record(run, c) for run, (_, c) in zip(runs, pair)
        ],
        "pair_ratios": [round(r, 4) for r in ratios],
        "doubling_wall_ratio": round(ratio, 4),
        "doubling_wall_growth_pct": round((ratio - 1.0) * 100.0, 2),
        "ocohort_gate_pct": OCOHORT_GATE_FRACTION * 100.0,
        "ocohort_gate_passed": bool(ratio <= 1.0 + OCOHORT_GATE_FRACTION),
        # Both engines live in one process: one peak for the pair.
        "peak_rss_mb": round(peak_rss_mb, 1),
    }


def run_check() -> int:
    """Tier-1 gate: O(cohort) wall-clock + dense/sharded bit-identity.

    Returns a process exit code.  The timing gate is the median of
    :data:`N_PAIRS` alternating per-pair ratios (see the module
    docstring), so it needs no retry.
    """
    failures: list[str] = []

    if _bit_identity_check():
        print("bit-identity: dense == sharded store contents .. ok")
    else:
        failures.append("dense and sharded store runs diverged bit-wise")

    (n1, _), (n2, _) = CHECK_PAIR
    runs = _paired_rounds(CHECK_PAIR)
    ratios = _pair_ratios(runs)
    ratio = float(np.median(ratios))
    small, large = (
        np.median([r.wall_seconds for r in history.records[1:]]) * 1e3
        for _, _, history in runs
    )
    print(
        f"O(cohort): {N_PAIRS} alternating round pairs, median round "
        f"{n1} clients {small:.2f} ms vs {n2} clients {large:.2f} ms; "
        f"per-pair ratios {min(ratios):.3f}-{max(ratios):.3f}, "
        f"median {ratio:.3f}"
    )
    if ratio <= 1.0 + OCOHORT_GATE_FRACTION:
        print(
            f"O(cohort) gate: doubling population grew rounds by "
            f"{(ratio - 1.0) * 100.0:+.1f}% "
            f"(gate < {OCOHORT_GATE_FRACTION * 100.0:.0f}%) .. ok"
        )
    else:
        failures.append(
            f"doubling the non-sampled population grew per-round wall-clock "
            f"by {(ratio - 1.0) * 100.0:.1f}% "
            f"(gate < {OCOHORT_GATE_FRACTION * 100.0:.0f}%)"
        )

    if failures:
        for failure in failures:
            print(f"FAIL: {failure}")
        return 1
    print("population bench check passed")
    return 0


def main() -> int:
    if "--check" in sys.argv[1:]:
        return run_check()
    record = run_population()
    out_path = Path(__file__).resolve().parent.parent / "BENCH_population.json"
    out_path.write_text(json.dumps(record, indent=2) + "\n")
    small, large = record["populations"]
    print(f"wrote {out_path}")
    print(
        f"  {small['n_clients']} clients @ C={small['client_fraction']}: "
        f"{small['median_round_ms']:.2f} ms/round, "
        f"store {small['store_resident_bytes'] / 1e6:.1f} MB resident "
        f"(dense equivalent {small['dense_equivalent_bytes'] / 1e6:.1f} MB)"
    )
    print(
        f"  {large['n_clients']} clients @ C={large['client_fraction']}: "
        f"{large['median_round_ms']:.2f} ms/round, "
        f"store {large['store_resident_bytes'] / 1e6:.1f} MB resident "
        f"(dense equivalent {large['dense_equivalent_bytes'] / 1e6:.1f} MB)"
    )
    print(
        f"  doubling population: {record['doubling_wall_growth_pct']:+.1f}% "
        f"per-round wall-clock (gate < {record['ocohort_gate_pct']:.0f}%: "
        f"{'pass' if record['ocohort_gate_passed'] else 'FAIL'})"
    )
    return 0 if record["ocohort_gate_passed"] else 1


if __name__ == "__main__":
    raise SystemExit(main())
