"""Cohort training benchmark across the executors (``BENCH_train.json``).

Times one communication round's local training — the dominant cost of
every federated simulation — three ways:

* **serial executor** (:class:`repro.fl.parallel.SerialClientExecutor`):
  the reference kernel, one load → local-SGD loop → snapshot per client;
* **process executor** (:class:`repro.fl.parallel.ProcessClientExecutor`,
  2 workers): the serial kernel in a fork-based pool, bit-identical to
  serial — the one executor that uses a second core without moving a
  bit;
* **batched executor** (:class:`repro.fl.parallel.BatchedClientExecutor`):
  the whole cohort trains in lockstep on the flat plane
  (:mod:`repro.fl.train_flat`), its first linear layer keyed by sample:
  each client's weight is the broadcast base plus one coefficient row
  per distinct scheduled sample (:mod:`repro.nn.batched`).

The record runs at one BLAS thread, or at the count of the first of
``OPENBLAS_NUM_THREADS``, ``OMP_NUM_THREADS`` and ``MKL_NUM_THREADS``
that the environment sets; it sets all three to that count before NumPy
loads and stores it (``blas_threads``): BLAS threads compete with the
process pool's workers for the same cores.

The headline preset is the wide MLP from ``BENCH_eval.json`` (~1.6M
params, ``hidden=(512,)``) at 64 clients × 3 local epochs — the
few-local-epochs regime clustered-FL sweeps live in.  A 2-epoch
secondary shows the shorter-schedule ratio, and ``secondary_lenet5``
records the honest conv story: no batched mirror exists for the im2col
convolution, so every client falls back to the serial kernel and the
batched "speedup" is ~1x by construction (the dispatch counts prove the
routing).

Also recorded: the serial and batched executors' peak traced heap for
one round (Python and NumPy allocations, via :mod:`tracemalloc`; a pool
worker's heap is not traced), and each executor's worst per-client
update deviation from serial (0.0 for the process pool; the fast
correctness gates live in ``tests/test_fl_train_flat.py`` and
``tests/test_fl_parallel.py``; this is the per-PR trajectory record).

Run via ``python benchmarks/bench_train.py`` or ``scripts/bench.sh``.
"""

from __future__ import annotations

import os

# Before NumPy loads: the BLAS thread count is fixed at load time.
_BLAS_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
BLAS_THREADS = next((os.environ[v] for v in _BLAS_VARS if os.environ.get(v)), "1")
for _var in _BLAS_VARS:
    os.environ[_var] = BLAS_THREADS

import json  # noqa: E402
import time  # noqa: E402
import tracemalloc  # noqa: E402
from pathlib import Path  # noqa: E402

import numpy as np  # noqa: E402

try:  # package import (pytest) vs script import (scripts/bench.sh)
    from benchmarks.bench_eval import _federation_env  # noqa: E402
except ImportError:  # pragma: no cover - script entry point
    from bench_eval import _federation_env  # noqa: E402

from repro.fl.config import TrainConfig  # noqa: E402
from repro.fl.parallel import (  # noqa: E402
    BatchedClientExecutor,
    ProcessClientExecutor,
    SerialClientExecutor,
    UpdateTask,
)

#: Process-pool size of the ``process`` rows.
N_WORKERS = 2


def _round_robin_ms(fns: dict, reps: int) -> dict:
    """Median wall time of each ``fns[kind]()``, in milliseconds.

    One warm-up call each, then ``reps`` rounds that call every entry in
    turn, so a host that changes speed mid-run slows every entry alike.
    """
    for fn in fns.values():
        fn()
    samples: dict = {kind: [] for kind in fns}
    for _ in range(reps):
        for kind, fn in fns.items():
            t0 = time.perf_counter()
            fn()
            samples[kind].append((time.perf_counter() - t0) * 1e3)
    return {kind: float(np.median(ms)) for kind, ms in samples.items()}


def _peak_mb(fn) -> float:
    """Peak traced heap of one ``fn()`` call, in MB."""
    tracemalloc.start()
    try:
        fn()
        return tracemalloc.get_traced_memory()[1] / 2**20
    finally:
        tracemalloc.stop()


def _max_abs_diff(reference, updates) -> float:
    """Worst entry-wise gap between two executors' rows, in float64 (a
    float32 subtraction would round it)."""
    return max(
        float(np.abs(np.subtract(r.flat, u.flat, dtype=np.float64)).max())
        for r, u in zip(reference, updates)
    )


def run_executors(
    n_clients: int = 64,
    samples_per_client: int = 40,
    local_epochs: int = 3,
    batch_size: int = 32,
    model_name: str = "mlp",
    model_kwargs: dict | None = None,
    reps: int = 5,
) -> dict:
    """Time one round of cohort training on the serial, process and
    batched executors.

    Every executor receives identical tasks (one shared packed broadcast
    row, the flat payload the in-tree algorithms ship) and the same
    round index, so per-client RNG streams and minibatch schedules are
    identical — the measured difference is purely execution strategy.
    """
    if model_kwargs is None and model_name == "mlp":
        model_kwargs = {"hidden": (512,)}
    env = _federation_env(
        n_clients,
        samples_per_client,
        model_name=model_name,
        model_kwargs=model_kwargs,
    )
    env.train_cfg = TrainConfig(local_epochs=local_epochs, batch_size=batch_size)
    vector = env.layout.pack(env.init_state())
    tasks = [UpdateTask(cid, flat=vector) for cid in range(n_clients)]

    batched = BatchedClientExecutor()
    executors = {
        "serial": SerialClientExecutor(),
        "process": ProcessClientExecutor(N_WORKERS),
        "batched": batched,
    }
    try:
        times = _round_robin_ms(
            {kind: lambda ex=ex: ex.run(env, tasks, 1) for kind, ex in executors.items()},
            reps=reps,
        )
        peak_mb = {
            kind: round(_peak_mb(lambda ex=executors[kind]: ex.run(env, tasks, 1)), 1)
            for kind in ("serial", "batched")
        }
        updates = {kind: ex.run(env, tasks, 1) for kind, ex in executors.items()}
    finally:
        for ex in executors.values():
            ex.close()
    serial_updates = updates["serial"]
    scale = max(float(np.abs(s.flat).max()) for s in serial_updates)

    return {
        "model": f"{model_name}({model_kwargs})" if model_kwargs else model_name,
        "blas_threads": int(BLAS_THREADS),
        "n_clients": n_clients,
        "n_params": env.n_params,
        "train_samples_per_client": int(
            len(env.federation.clients[0].train)
        ),
        "local_epochs": local_epochs,
        "batch_size": batch_size,
        "steps_per_client": int(serial_updates[0].n_batches),
        "process_workers": N_WORKERS,
        "serial_ms": round(times["serial"], 3),
        "process_ms": round(times["process"], 3),
        "batched_ms": round(times["batched"], 3),
        "process_speedup": round(times["serial"] / times["process"], 2),
        "speedup": round(times["serial"] / times["batched"], 2),
        "peak_mb": peak_mb,
        # Worst per-client deviation from serial: the pool runs the
        # serial kernel (0.0); batched float32 models diverge at
        # summation-order level (the tolerance gate is in
        # tests/test_fl_train_flat.py).
        "max_update_abs_diff": {
            kind: _max_abs_diff(serial_updates, updates[kind])
            for kind in ("process", "batched")
        },
        "max_update_abs": float(scale),
        # How the batched executor actually routed the tasks — "serial"
        # counts are transparent fallbacks (conv models).
        "dispatch": dict(batched.last_dispatch),
    }


if __name__ == "__main__":
    import sys

    target = (
        Path(sys.argv[1])
        if len(sys.argv) > 1
        else Path(__file__).resolve().parent.parent / "BENCH_train.json"
    )
    result = {
        "benchmark": (
            "cohort local training: serial per-client loop vs a 2-worker "
            "process pool vs lockstep batched executor (flat plane, "
            "sample-keyed factored first layer)"
        )
    }
    result.update(run_executors())
    # Shorter-schedule secondary: 2 local epochs amortises the round's
    # fixed costs over fewer lockstep steps, so the ratio is lower —
    # recorded so the trajectory shows the schedule dependence.
    short = run_executors(local_epochs=2)
    result["secondary_2_epochs"] = {
        k: short[k]
        for k in (
            "local_epochs",
            "serial_ms",
            "process_ms",
            "batched_ms",
            "process_speedup",
            "speedup",
            "dispatch",
        )
    }
    # Conv counterpoint: LeNet-5 has no batched mirror, so the batched
    # executor routes every client to the serial reference kernel —
    # honest ~1x, with the dispatch counts making the fallback explicit;
    # the process pool is the executor that speeds conv training up.
    conv = run_executors(
        n_clients=32, model_name="lenet5", model_kwargs={}, reps=3
    )
    result["secondary_lenet5"] = {
        k: conv[k]
        for k in (
            "model",
            "blas_threads",
            "serial_ms",
            "process_ms",
            "batched_ms",
            "process_speedup",
            "speedup",
            "peak_mb",
            "max_update_abs_diff",
            "dispatch",
        )
    }
    Path(target).write_text(json.dumps(result, indent=2) + "\n")
    print(json.dumps(result, indent=2))
    print(f"wrote {target}")
