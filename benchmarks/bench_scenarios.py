"""Round-engine overhead benchmark (``BENCH_scenarios.json``).

The engine refactor replaced the hand-rolled per-algorithm round loops
(PR 3 era) with one shared server loop plus scenario middleware
(:mod:`repro.fl.rounds`).  The middleware must be free when unused:
this benchmark times a full FedAvg training run two ways —

* **baseline**: an inline replica of the pre-engine FedAvg loop over
  the surviving primitive (:func:`repro.algorithms.base.fedavg_round_flat`
  + ``evaluate_packed`` on the same cadence);
* **engine**: :class:`repro.fl.rounds.RoundEngine` driving FedAvg's
  one-row :class:`repro.algorithms.base.ClusteredRounds` under the
  default scenario —

and pins the overhead **< 2 %**.  Wall-clock on a shared host drifts
between speed levels for seconds at a time, so the two loops run as
alternating baseline/engine pairs in one process and the gate reads the
median of the per-pair overheads: a drift moves both halves of a pair.
Both paths produce bit-identical final vectors (recorded as
``bit_identical``).

In practice the engine measures *faster* than the legacy loop shape:
the old loop's ``vector, loss, _ = fedavg_round_flat(...)`` binding
kept the previous round's 64 full updates (state dicts + flat rows)
alive across the next round's cohort ``np.stack``, so the ~200 MB
cohort allocation always hit first-touch page faults; the engine
rebinds its dispatch result before aggregating, the allocator reuses
the warm arena, and the stack runs ~2× faster (profiled: identical
per-op times everywhere else).  The negative ``overhead_pct`` is that
buffer-lifetime win, not a measurement artefact — it is stable across
fresh processes.

A second record exercises the scenario path that did not exist before
the engine: C = 0.2 partial participation, with the engine's sampled
run checked bit-for-bit against an inline ``uniform_sample`` +
``fedavg_round_flat`` loop (the sampling semantics FedAvg's historical
``_participants`` used).  A third runs the v2 middleware stack (stale
folding × compute budgets × an availability trace) twice from fresh
state and records that the composition is deterministic bit-for-bit.

A fourth record covers the async (FedBuff-style) event streams: the
``buffer_size = m, duration = 1`` special case is gated bit-identical
to the synchronous engine, a genuinely-async config (K = 16, bounded
concurrency, durations U[1, 3]) is gated deterministic across fresh
runs, and its **updates-absorbed/sec** throughput is recorded.

A fifth record covers the robust-aggregation choke point (PR 7's
server hardening): ``robust_agg = "none"`` on the non-default C = 0.2
engine path is gated bit-identical to the inline sampled loop (the
robust dispatch with mode "none" IS the classic weighted average, down
to the last bit), and the wall-clock cost of ``trimmed_mean`` over the
plain average in a full run is recorded.  A sixth record gates the
trimming kernel itself (``repro.fl.defense._trimmed_middle_mean``, which
sorts blocks of columns as contiguous lanes) against the strided
``np.sort(axis=0)`` reference it exists to beat, on one cohort-shaped
float32 matrix in alternating pairs: the median time ratio must stay
below :data:`TRIMMED_KERNEL_GATE_RATIO`, and both must give the same
bits.  Timing the kernel against its reference, rather than a trimmed
run against a plain one, keeps the rest of the program out of the
ratio: a faster trainer used to raise a whole-run ceiling by shrinking
its denominator.

Run via ``python benchmarks/bench_scenarios.py`` or ``scripts/bench.sh``.
``--check`` is the CI mode: the bit-identity gates plus the two timing
gates (engine overhead and trimming kernel, each from alternating
pairs), no JSON written, exit status is the verdict.  Beside the
overhead it prints each timed loop's median minor page faults per run
(``getrusage`` ``ru_minflt``): the overhead reading moves with heap
layout, which the fault counts show.
"""

from __future__ import annotations

import json
import resource
import time
from pathlib import Path

import numpy as np

try:  # package import (pytest) vs script import (scripts/bench.sh)
    from benchmarks.bench_eval import _federation_env
except ImportError:  # pragma: no cover - script entry point
    from bench_eval import _federation_env

from repro.algorithms.base import ClusteredRounds, fedavg_round_flat
from repro.fl.config import TrainConfig
from repro.fl.defense import _trimmed_middle_mean
from repro.fl.history import RunHistory
from repro.fl.rounds import AsyncConfig, RoundEngine, ScenarioConfig
from repro.fl.sampling import uniform_sample
from repro.fl.trace import AvailabilityTrace

OVERHEAD_GATE_PCT = 2.0

#: FedAvg rounds per timed run of the engine-overhead gate.
OVERHEAD_ROUNDS = 3

#: The trimming kernel's timed float32 matrix, one round's cohort of 64
#: clients of the ``mlp(128)`` model the runs train, and its trim count,
#: ``trim_fraction = 0.1`` of 64 rows.
TRIMMED_KERNEL_SHAPE = (64, 394_634)
TRIMMED_KERNEL_K = 6

#: Ceiling on the median time ratio of the trimming kernel over the
#: strided ``np.sort(axis=0)`` reference, calibrated at
#: :data:`TRIMMED_KERNEL_SHAPE` and :data:`TRIMMED_KERNEL_K` only.
#: Medians of 9 pairs read 0.69–0.78 (single pairs 0.56–0.90) on a
#: 2-CPU Xeon container; a strided kernel reads ~1.0 and a kernel made
#: twice as slow ~1.4.
TRIMMED_KERNEL_GATE_RATIO = 0.9

#: Alternating pairs per timing gate.
N_PAIRS = 9


def _median_ms(fn, reps: int, warmup: int = 1) -> float:
    for _ in range(warmup):
        fn()
    samples = []
    for _ in range(reps):
        t0 = time.perf_counter()
        fn()
        samples.append((time.perf_counter() - t0) * 1e3)
    return float(np.median(samples))


def _paired_ms(first, second) -> tuple[np.ndarray, np.ndarray]:
    """Time ``first`` then ``second``, :data:`N_PAIRS` times in turn.

    One warm-up call each, then ``N_PAIRS`` back-to-back pairs in this
    process.  Returns ``(ms, minor_faults)``, each of shape
    ``(N_PAIRS, 2)``: column 0 is ``first``, column 1 ``second``.
    """
    first()
    second()
    ms = np.empty((N_PAIRS, 2))
    faults = np.empty((N_PAIRS, 2), dtype=np.int64)
    for i in range(N_PAIRS):
        for j, fn in enumerate((first, second)):
            f0 = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
            t0 = time.perf_counter()
            fn()
            ms[i, j] = (time.perf_counter() - t0) * 1e3
            faults[i, j] = resource.getrusage(resource.RUSAGE_SELF).ru_minflt - f0
    return ms, faults


def _make_env(n_clients: int, samples_per_client: int, local_epochs: int):
    # mlp(128) (~395k params) keeps the per-round cohort stack at
    # ~200 MB: large enough that training dominates, small enough that
    # allocator effects do not drown the orchestration signal.
    env = _federation_env(
        n_clients, samples_per_client, model_name="mlp", model_kwargs={"hidden": (128,)}
    )
    env.train_cfg = TrainConfig(local_epochs=local_epochs, batch_size=32)
    return env


def _global_rounds(env) -> ClusteredRounds:
    """FedAvg's server state: the initial model as the one row, every
    client labelled 0."""
    return ClusteredRounds(
        env.layout.pack(env.init_state())[None],
        np.zeros(env.federation.n_clients, dtype=np.int64),
    )


def _baseline_run(env, n_rounds: int, fraction: float = 1.0) -> np.ndarray:
    """Inline replica of the pre-engine FedAvg loop (PR 3 shape)."""
    m = env.federation.n_clients
    labels = np.zeros(m, dtype=np.int64)
    vector = env.layout.pack(env.init_state())
    for round_index in range(1, n_rounds + 1):
        if fraction >= 1.0:
            participants = np.arange(m)
        else:
            participants = uniform_sample(m, fraction, env.server_rng(round_index))
        vector, _, _ = fedavg_round_flat(env, vector, participants, round_index)
        env.evaluate_packed(vector, labels)
    return vector


def _engine_run(env, n_rounds: int, fraction: float = 1.0) -> np.ndarray:
    strategy = _global_rounds(env)
    engine = RoundEngine(env, ScenarioConfig(client_fraction=fraction))
    engine.run(strategy, n_rounds, RunHistory("bench", "synthetic", 0))
    return strategy.matrix[0]


def _engine_overhead(env) -> dict:
    """Engine vs inline loop in alternating pairs: the timing record."""
    ms, faults = _paired_ms(
        lambda: _baseline_run(env, OVERHEAD_ROUNDS),
        lambda: _engine_run(env, OVERHEAD_ROUNDS),
    )
    per_pair = 100.0 * (ms[:, 1] - ms[:, 0]) / ms[:, 0]
    return {
        "pairs": len(ms),
        "baseline_ms": round(float(np.median(ms[:, 0])), 3),
        "engine_ms": round(float(np.median(ms[:, 1])), 3),
        "baseline_minor_faults": int(np.median(faults[:, 0])),
        "engine_minor_faults": int(np.median(faults[:, 1])),
        "overhead_pct": round(float(np.median(per_pair)), 3),
        "overhead_pct_range": [
            round(float(per_pair.min()), 3), round(float(per_pair.max()), 3)
        ],
        "overhead_gate_pct": OVERHEAD_GATE_PCT,
    }


def run_engine_overhead(
    n_clients: int = 64,
    samples_per_client: int = 40,
    local_epochs: int = 1,
) -> dict:
    """Full-run timing: engine loop vs inline PR 3-style loop."""
    env = _make_env(n_clients, samples_per_client, local_epochs)
    identical = bool(
        np.array_equal(
            _baseline_run(env, OVERHEAD_ROUNDS), _engine_run(env, OVERHEAD_ROUNDS)
        )
    )
    return {
        "n_clients": n_clients,
        "n_params": env.n_params,
        "local_epochs": local_epochs,
        "n_rounds": OVERHEAD_ROUNDS,
        **_engine_overhead(env),
        "bit_identical": identical,
    }


def run_partial_participation(
    n_clients: int = 64,
    samples_per_client: int = 40,
    local_epochs: int = 1,
    n_rounds: int = 3,
    fraction: float = 0.2,
    reps: int = 3,
) -> dict:
    """The C = 0.2 scenario row: engine vs inline sampled loop."""
    env = _make_env(n_clients, samples_per_client, local_epochs)
    baseline_ms = _median_ms(
        lambda: _baseline_run(env, n_rounds, fraction), reps=reps
    )
    engine_ms = _median_ms(lambda: _engine_run(env, n_rounds, fraction), reps=reps)
    identical = bool(
        np.array_equal(
            _baseline_run(env, n_rounds, fraction),
            _engine_run(env, n_rounds, fraction),
        )
    )
    return {
        "client_fraction": fraction,
        "participants_per_round": int(round(fraction * n_clients)),
        "n_clients": n_clients,
        "n_rounds": n_rounds,
        "baseline_ms": round(baseline_ms, 3),
        "engine_ms": round(engine_ms, 3),
        "bit_identical": identical,
    }


def _middleware_scenario(n_clients: int) -> ScenarioConfig:
    """The composed v2 stack: stale folding × budgets × a trace."""
    return ScenarioConfig(
        client_fraction=0.5,
        straggler_rate=0.25,
        staleness_decay=0.5,
        compute_budget=(0, 4),
        trace=AvailabilityTrace({0: [2, 3], 1: [1, 3]}),
        departures={n_clients - 1: 3},
    )


def _middleware_run(env, n_rounds: int) -> tuple[np.ndarray, int]:
    strategy = _global_rounds(env)
    engine = RoundEngine(env, _middleware_scenario(env.federation.n_clients))
    engine.run(strategy, n_rounds, RunHistory("bench", "synthetic", 0))
    return strategy.matrix[0], engine.run_record()["n_stale_folded"]


def run_middleware_v2(
    n_clients: int = 64,
    samples_per_client: int = 40,
    local_epochs: int = 1,
    n_rounds: int = 3,
    reps: int = 3,
) -> dict:
    """The v2 scenario stack: determinism + wall-clock of the composition."""
    env = _make_env(n_clients, samples_per_client, local_epochs)
    ms = _median_ms(lambda: _middleware_run(env, n_rounds), reps=reps)
    first, n_stale = _middleware_run(env, n_rounds)
    second, _ = _middleware_run(env, n_rounds)
    return {
        "scenario": (
            "C=0.5, 25% stragglers folded at decay 0.5, budgets U[0,4] "
            "steps, 2-client trace, 1 departure"
        ),
        "n_clients": n_clients,
        "n_rounds": n_rounds,
        "stale_updates_folded": n_stale,
        "run_ms": round(ms, 3),
        "deterministic": bool(np.array_equal(first, second)),
    }


def _async_scenario(n_clients: int) -> ScenarioConfig:
    """A genuinely-async config: bounded concurrency, spread durations."""
    return ScenarioConfig(
        staleness_decay=0.9,
        async_config=AsyncConfig(
            buffer_size=16,
            max_concurrency=n_clients // 2,
            duration_range=(1, 3),
        ),
    )


def _async_run(
    env, n_rounds: int, scenario: ScenarioConfig
) -> tuple[np.ndarray, RoundEngine]:
    strategy = _global_rounds(env)
    engine = RoundEngine(env, scenario)
    engine.run(strategy, n_rounds, RunHistory("bench", "synthetic", 0))
    return strategy.matrix[0], engine


def run_async_throughput(
    n_clients: int = 64,
    samples_per_client: int = 40,
    local_epochs: int = 1,
    n_rounds: int = 6,
    reps: int = 3,
) -> dict:
    """The async engine: sync-equivalence, determinism, absorb rate."""
    env = _make_env(n_clients, samples_per_client, local_epochs)
    # Gate 1: the K = m, duration = 1 special case IS the sync engine.
    sync_case = ScenarioConfig(
        async_config=AsyncConfig(buffer_size=n_clients, duration_range=1)
    )
    special, _ = _async_run(env, 3, sync_case)
    sync_equivalent = bool(np.array_equal(special, _engine_run(env, 3)))
    # Gate 2 + throughput: a genuinely-async config, twice from fresh
    # state; absorb rate = updates folded per wall-clock second.
    scenario = _async_scenario(n_clients)
    ms = _median_ms(lambda: _async_run(env, n_rounds, scenario), reps=reps)
    first, engine = _async_run(env, n_rounds, scenario)
    second, _ = _async_run(env, n_rounds, scenario)
    return {
        "scenario": (
            f"K=16, M={n_clients // 2}, durations U[1,3], decay 0.9 "
            f"over {n_rounds} server steps"
        ),
        "n_clients": n_clients,
        "n_rounds": n_rounds,
        "aggregation_events": engine.n_aggregation_events,
        "updates_absorbed": engine.n_updates_absorbed,
        "run_ms": round(ms, 3),
        "updates_absorbed_per_sec": round(
            engine.n_updates_absorbed / (ms / 1e3), 3
        ),
        "sync_equivalent": sync_equivalent,
        "deterministic": bool(np.array_equal(first, second)),
    }


def _robust_run(env, n_rounds: int, fraction: float, robust_agg: str) -> np.ndarray:
    strategy = _global_rounds(env)
    engine = RoundEngine(
        env, ScenarioConfig(client_fraction=fraction, robust_agg=robust_agg)
    )
    engine.run(strategy, n_rounds, RunHistory("bench", "synthetic", 0))
    return strategy.matrix[0]


def run_robust_aggregation(
    n_clients: int = 64,
    samples_per_client: int = 40,
    local_epochs: int = 1,
    n_rounds: int = 3,
    fraction: float = 0.2,
    reps: int = 3,
) -> dict:
    """The robust choke point: mode "none" bit-identity + trimmed cost.

    The C = 0.2 fraction keeps the scenario off the default fast path,
    so ``robust_weighted_average(mode="none")`` really runs at the
    aggregation choke point — and must still match the inline sampled
    loop exactly.
    """
    env = _make_env(n_clients, samples_per_client, local_epochs)
    identical = bool(
        np.array_equal(
            _robust_run(env, n_rounds, fraction, "none"),
            _baseline_run(env, n_rounds, fraction),
        )
    )
    none_ms = _median_ms(
        lambda: _robust_run(env, n_rounds, 1.0, "none"), reps=reps
    )
    trimmed_ms = _median_ms(
        lambda: _robust_run(env, n_rounds, 1.0, "trimmed_mean"), reps=reps
    )
    return {
        "n_clients": n_clients,
        "n_rounds": n_rounds,
        "client_fraction_for_gate": fraction,
        "none_bit_identical": identical,
        "none_ms": round(none_ms, 3),
        "trimmed_mean_ms": round(trimmed_ms, 3),
        "trimmed_mean_overhead_pct": round(
            100.0 * (trimmed_ms - none_ms) / none_ms, 3
        ),
    }


def run_trimmed_kernel() -> dict:
    """The trimming kernel against the strided sort, in alternating pairs.

    The reference is the textbook form: sort every column, drop ``k``
    from each end, average the rest in float64.
    """
    n_rows, k = TRIMMED_KERNEL_SHAPE[0], TRIMMED_KERNEL_K
    matrix = np.random.default_rng(0).standard_normal(
        TRIMMED_KERNEL_SHAPE, dtype=np.float32
    )

    def strided() -> np.ndarray:
        return np.sort(matrix, axis=0)[k : n_rows - k].mean(axis=0, dtype=np.float64)

    bit_equal = bool(
        np.array_equal(_trimmed_middle_mean(matrix, k), strided())
    )
    ms, _ = _paired_ms(lambda: _trimmed_middle_mean(matrix, k), strided)
    ratios = ms[:, 0] / ms[:, 1]
    return {
        "shape": list(TRIMMED_KERNEL_SHAPE),
        "dtype": "float32",
        "k": k,
        "pairs": len(ms),
        "kernel_ms": round(float(np.median(ms[:, 0])), 3),
        "strided_sort_ms": round(float(np.median(ms[:, 1])), 3),
        "ratio": round(float(np.median(ratios)), 4),
        "ratio_range": [round(float(ratios.min()), 4), round(float(ratios.max()), 4)],
        "ratio_gate": TRIMMED_KERNEL_GATE_RATIO,
        "bit_equal": bit_equal,
    }


def _timing_failures(overhead: dict, kernel: dict) -> list[str]:
    """The two timing gates' verdicts (empty when both hold)."""
    failures = []
    if overhead["overhead_pct"] >= OVERHEAD_GATE_PCT:
        failures.append(
            f"engine overhead {overhead['overhead_pct']:.2f}% exceeds the "
            f"{OVERHEAD_GATE_PCT}% gate"
        )
    if not kernel["bit_equal"]:
        failures.append("trimming kernel diverged from the strided sort")
    if kernel["ratio"] >= TRIMMED_KERNEL_GATE_RATIO:
        failures.append(
            f"trimming kernel at {kernel['ratio']:.3f}x the strided sort "
            f"exceeds the {TRIMMED_KERNEL_GATE_RATIO}x gate"
        )
    return failures


def run_check() -> int:
    """CI gate: bit-identity, determinism and the two timing gates.

    The timing gates read medians of alternating pairs
    (:func:`_paired_ms`), so a host that changes speed mid-check moves
    both sides of a pair.  Writes no JSON; returns a process exit code.
    """
    env = _make_env(n_clients=64, samples_per_client=40, local_epochs=1)
    failures = []
    if not np.array_equal(_baseline_run(env, 3), _engine_run(env, 3)):
        failures.append("default scenario: engine diverged from inline loop")
    if not np.array_equal(
        _baseline_run(env, 3, 0.2), _engine_run(env, 3, 0.2)
    ):
        failures.append("C=0.2 scenario: engine diverged from inline loop")
    first, _ = _middleware_run(env, 3)
    second, _ = _middleware_run(env, 3)
    if not np.array_equal(first, second):
        failures.append("middleware v2 composition is not deterministic")
    if not np.array_equal(
        _robust_run(env, 3, 0.2, "none"), _baseline_run(env, 3, 0.2)
    ):
        failures.append(
            "robust_agg='none' diverged from the inline sampled loop"
        )
    overhead = _engine_overhead(env)
    lo, hi = overhead["overhead_pct_range"]
    print(
        f"check: baseline {overhead['baseline_ms']:.1f} ms "
        f"({overhead['baseline_minor_faults']} minor faults/run), engine "
        f"{overhead['engine_ms']:.1f} ms ({overhead['engine_minor_faults']} "
        f"minor faults/run), overhead {overhead['overhead_pct']:+.2f}% "
        f"(median of {overhead['pairs']} pairs, {lo:+.2f} to {hi:+.2f}; "
        f"gate < {OVERHEAD_GATE_PCT}%)"
    )
    # The kernel's matrix and sorted copies come after the overhead
    # timing, for the same buffer-lifetime reason as the async gates.
    kernel = run_trimmed_kernel()
    lo, hi = kernel["ratio_range"]
    print(
        f"check: trimming kernel {kernel['kernel_ms']:.1f} ms, strided sort "
        f"{kernel['strided_sort_ms']:.1f} ms, ratio {kernel['ratio']:.3f} "
        f"(median of {kernel['pairs']} pairs, {lo:.3f} to {hi:.3f}; gate < "
        f"{TRIMMED_KERNEL_GATE_RATIO}), bit-equal {kernel['bit_equal']}"
    )
    failures += _timing_failures(overhead, kernel)
    # Async gates come after the overhead timing: an async engine's
    # retained in-flight updates are exactly the buffer-lifetime hazard
    # the headline benchmark documents, and holding them alive across
    # the timed loops would poison the overhead measurement.
    m = env.federation.n_clients
    sync_case = ScenarioConfig(
        async_config=AsyncConfig(buffer_size=m, duration_range=1)
    )
    special, _ = _async_run(env, 3, sync_case)
    if not np.array_equal(special, _engine_run(env, 3)):
        failures.append(
            "async special case (K=m, duration=1) diverged from sync engine"
        )
    async_first, async_engine = _async_run(env, 3, _async_scenario(m))
    absorbed = async_engine.n_updates_absorbed
    events = async_engine.n_aggregation_events
    async_second, _ = _async_run(env, 3, _async_scenario(m))
    if not np.array_equal(async_first, async_second):
        failures.append("async event streams are not deterministic")
    del async_engine, async_first, async_second, special
    async_ms = _median_ms(lambda: _async_run(env, 3, _async_scenario(m)), reps=3)
    print(
        f"check: async absorbed {absorbed} updates in {events} events, "
        f"{absorbed / (async_ms / 1e3):.1f} updates/s"
    )
    for failure in failures:
        print(f"FAIL: {failure}")
    if not failures:
        print("check passed: bit-identical, deterministic, within the gate")
    return 1 if failures else 0


if __name__ == "__main__":
    import argparse

    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument(
        "target",
        nargs="?",
        default=Path(__file__).resolve().parent.parent / "BENCH_scenarios.json",
        help="output JSON path (full mode only)",
    )
    parser.add_argument(
        "--check",
        action="store_true",
        help="CI mode: bit-identity + the timing gates only, no JSON output",
    )
    args = parser.parse_args()
    if args.check:
        raise SystemExit(run_check())
    result = {
        "benchmark": (
            "round engine vs pre-engine inline loops: orchestration overhead "
            "at 64 clients (default scenario), the C=0.2 sampled scenario, "
            "the v2 middleware stack (stale x budget x trace), the async "
            "(FedBuff-style) event streams, the robust-aggregation "
            "choke point (mode-none bit-identity + trimmed-mean cost), and "
            "the trimming kernel against the strided sort"
        )
    }
    headline = run_engine_overhead()
    result["headline"] = headline
    result["partial_participation_c02"] = run_partial_participation()
    result["middleware_v2"] = run_middleware_v2()
    result["async_engine"] = run_async_throughput()
    result["robust_aggregation"] = run_robust_aggregation()
    result["trimmed_kernel"] = run_trimmed_kernel()
    Path(args.target).write_text(json.dumps(result, indent=2) + "\n")
    print(json.dumps(result, indent=2))
    print(f"wrote {args.target}")
    if not headline["bit_identical"]:
        raise SystemExit("engine run diverged from the baseline loop")
    if not result["middleware_v2"]["deterministic"]:
        raise SystemExit("middleware v2 composition is not deterministic")
    if not result["async_engine"]["sync_equivalent"]:
        raise SystemExit("async special case diverged from the sync engine")
    if not result["async_engine"]["deterministic"]:
        raise SystemExit("async event streams are not deterministic")
    if not result["robust_aggregation"]["none_bit_identical"]:
        raise SystemExit(
            "robust_agg='none' diverged from the inline sampled loop"
        )
    failures = _timing_failures(headline, result["trimmed_kernel"])
    if failures:
        raise SystemExit("; ".join(failures))
