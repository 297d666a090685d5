"""Serial vs batched cohort training benchmark (``BENCH_train.json``).

Times one communication round's local training — the dominant cost of
every federated simulation — two ways:

* **serial executor** (:class:`repro.fl.parallel.SerialClientExecutor`):
  the reference kernel, one load → local-SGD loop → snapshot per client;
* **batched executor** (:class:`repro.fl.parallel.BatchedClientExecutor`):
  the whole cohort trains in lockstep on the flat plane
  (:mod:`repro.fl.train_flat`), its first linear layer keyed by sample:
  each client's weight is the broadcast base plus one coefficient row
  per distinct scheduled sample (:mod:`repro.nn.batched`).

The headline preset is the wide MLP from ``BENCH_eval.json`` (~1.6M
params, ``hidden=(512,)``) at 64 clients × 3 local epochs — the
few-local-epochs regime clustered-FL sweeps live in.  A 2-epoch
secondary shows the shorter-schedule ratio, and ``secondary_lenet5``
records the honest conv story: no batched mirror exists for the im2col
convolution, so every client falls back to the serial kernel and the
batched "speedup" is ~1x by construction (the dispatch counts prove the
routing).

Also recorded: each executor's peak traced heap for one round (Python
and NumPy allocations, via :mod:`tracemalloc`), and the worst
per-client update deviation of the batched executor from serial (the
fast correctness gates live in ``tests/test_fl_train_flat.py``; this is
the per-PR trajectory record).

Run via ``python benchmarks/bench_train.py`` or ``scripts/bench.sh``.
"""

from __future__ import annotations

import json
import time
import tracemalloc
from pathlib import Path

import numpy as np

try:  # package import (pytest) vs script import (scripts/bench.sh)
    from benchmarks.bench_eval import _federation_env
except ImportError:  # pragma: no cover - script entry point
    from bench_eval import _federation_env

from repro.fl.config import TrainConfig
from repro.fl.parallel import (
    BatchedClientExecutor,
    SerialClientExecutor,
    UpdateTask,
)


def _time_ms(fn, reps: int, warmup: int = 1) -> float:
    """Median wall time of ``fn()`` over ``reps`` runs, in milliseconds."""
    for _ in range(warmup):
        fn()
    samples = []
    for _ in range(reps):
        t0 = time.perf_counter()
        fn()
        samples.append((time.perf_counter() - t0) * 1e3)
    return float(np.median(samples))


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


def run_serial_vs_batched(
    n_clients: int = 64,
    samples_per_client: int = 40,
    local_epochs: int = 3,
    batch_size: int = 32,
    model_name: str = "mlp",
    model_kwargs: dict | None = None,
    reps: int = 5,
) -> dict:
    """Time one round of cohort training on the serial and batched
    executors.

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
    executors = {"serial": SerialClientExecutor(), "batched": batched}
    times = {
        kind: _time_ms(lambda ex=ex: ex.run(env, tasks, 1), reps=reps)
        for kind, ex in executors.items()
    }
    peak_mb = {
        kind: round(_peak_mb(lambda ex=ex: ex.run(env, tasks, 1)), 1)
        for kind, ex in executors.items()
    }
    updates = {kind: ex.run(env, tasks, 1) for kind, ex in executors.items()}
    serial_ms, batched_ms = times["serial"], times["batched"]
    serial_updates = updates["serial"]
    scale = max(float(np.abs(s.flat).max()) for s in serial_updates)

    return {
        "model": f"{model_name}({model_kwargs})" if model_kwargs else model_name,
        "n_clients": n_clients,
        "n_params": env.n_params,
        "train_samples_per_client": int(
            len(env.federation.clients[0].train)
        ),
        "local_epochs": local_epochs,
        "batch_size": batch_size,
        "steps_per_client": int(serial_updates[0].n_batches),
        "serial_ms": round(serial_ms, 3),
        "batched_ms": round(batched_ms, 3),
        "speedup": round(serial_ms / batched_ms, 2),
        "peak_mb": peak_mb,
        # Worst per-client deviation between executors (float32 models
        # diverge at summation-order level; the tolerance gate is in
        # tests/test_fl_train_flat.py).
        "max_update_abs_diff": _max_abs_diff(serial_updates, updates["batched"]),
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
            "cohort local training: serial per-client loop vs lockstep "
            "batched executor (flat plane, sample-keyed factored first layer)"
        )
    }
    result.update(run_serial_vs_batched())
    # Shorter-schedule secondary: 2 local epochs amortises the round's
    # fixed costs over fewer lockstep steps, so the ratio is lower —
    # recorded so the trajectory shows the schedule dependence.
    short = run_serial_vs_batched(local_epochs=2)
    result["secondary_2_epochs"] = {
        k: short[k]
        for k in (
            "local_epochs",
            "serial_ms",
            "batched_ms",
            "speedup",
            "dispatch",
        )
    }
    # Conv counterpoint: LeNet-5 has no batched mirror, so the batched
    # executor routes every client to the serial reference kernel —
    # honest ~1x, with the dispatch counts making the fallback explicit.
    conv = run_serial_vs_batched(
        n_clients=32, model_name="lenet5", model_kwargs={}, reps=2
    )
    result["secondary_lenet5"] = {
        k: conv[k]
        for k in (
            "model",
            "serial_ms",
            "batched_ms",
            "speedup",
            "peak_mb",
            "dispatch",
        )
    }
    Path(target).write_text(json.dumps(result, indent=2) + "\n")
    print(json.dumps(result, indent=2))
    print(f"wrote {target}")
