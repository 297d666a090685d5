"""Micro-benchmarks of the substrate's hot kernels.

Not a paper artefact — these watch the performance-critical primitives
(im2col convolution, aggregation, linkage, pairwise distances) so
regressions in the simulator's inner loops are visible in benchmark runs.

Two entry points:

* ``pytest benchmarks/bench_kernels.py`` — pytest-benchmark timings of
  every kernel, including the packed-vs-dict aggregation pair.
* ``python benchmarks/bench_kernels.py`` — standalone run of the
  packed-vs-dict aggregation comparison at paper-ish cohort scale
  (256 clients x ~100k params), writing ``BENCH_kernels.json`` at the
  repo root so the performance trajectory is recorded per PR.
"""

from __future__ import annotations

import json
import time
from pathlib import Path

import numpy as np

try:  # pytest is only needed for the benchmark-suite entry point.
    import pytest
except ImportError:  # pragma: no cover - standalone mode
    pytest = None

from repro.cluster.distance import pairwise_euclidean
from repro.cluster.hierarchy import linkage
from repro.core.weights import packed_weight_matrix, weight_matrix
from repro.fl.aggregation import packed_weighted_average, weighted_average_dict
from repro.nn.layers import Conv2d
from repro.nn.loss import CrossEntropyLoss
from repro.nn.models import lenet5
from repro.nn.state_flat import StateLayout, pack_states, unpack_state


def _resnet_state(rng, width=16, n_blocks=24, side=32, n_classes=10):
    """State of a deep, narrow residual CIFAR CNN: 100 float32 tensors.

    A 3×3 stem conv, ``n_blocks`` blocks of GroupNorm γ/β and a 3×3
    conv, and a linear classifier over the once-pooled map: ~98k params
    spread over many small tensors, the norm-heavy key count modern FL
    models have.  Each conv and linear tensor takes one uniform draw
    per entry from ``rng`` in initialisation order and the norm
    parameters take none, so the generator ends where a real
    initialisation would leave it.
    """
    shapes = {"stem.weight": (width, 3, 3, 3), "stem.bias": (width,)}
    for i in range(1, n_blocks + 1):
        shapes[f"block{i}.body.norm.gamma"] = (width,)
        shapes[f"block{i}.body.norm.beta"] = (width,)
        shapes[f"block{i}.body.conv.weight"] = (width, width, 3, 3)
        shapes[f"block{i}.body.conv.bias"] = (width,)
    shapes["classifier.weight"] = (n_classes, width * (side // 2) ** 2)
    shapes["classifier.bias"] = (n_classes,)
    return {
        key: (
            np.zeros(shape) if ".norm." in key else rng.uniform(size=shape)
        ).astype(np.float32)
        for key, shape in shapes.items()
    }


def _cohort(model_state, n_clients, rng):
    """Random client states shaped like ``model_state``, plus weights."""
    states = [
        {k: rng.standard_normal(v.shape).astype(v.dtype) for k, v in model_state.items()}
        for _ in range(n_clients)
    ]
    weights = rng.integers(1, 100, size=n_clients).astype(np.float64)
    return states, weights


# ----------------------------------------------------------------------
# pytest-benchmark suite
# ----------------------------------------------------------------------
if pytest is not None:

    @pytest.fixture(scope="module")
    def rng():
        return np.random.default_rng(0)

    @pytest.mark.benchmark(group="kernels")
    def test_bench_conv_forward(benchmark, rng):
        layer = Conv2d(3, 16, 5, rng)
        x = rng.standard_normal((32, 3, 32, 32)).astype(np.float32)
        benchmark(layer.forward, x)

    @pytest.mark.benchmark(group="kernels")
    def test_bench_conv_backward(benchmark, rng):
        layer = Conv2d(3, 16, 5, rng)
        x = rng.standard_normal((32, 3, 32, 32)).astype(np.float32)
        out = layer.forward(x)
        grad = rng.standard_normal(out.shape).astype(np.float32)

        def run():
            layer.forward(x)
            layer.backward(grad)

        benchmark(run)

    @pytest.mark.benchmark(group="kernels")
    def test_bench_lenet_train_step(benchmark, rng):
        model = lenet5((3, 32, 32), 10, rng)
        loss = CrossEntropyLoss()
        x = rng.standard_normal((32, 3, 32, 32)).astype(np.float32)
        y = rng.integers(0, 10, size=32)

        def step():
            model.zero_grad()
            loss.forward(model.forward(x), y)
            model.backward(loss.backward(), input_grad=False)

        benchmark(step)

    @pytest.mark.benchmark(group="aggregation")
    def test_bench_weighted_average_dict(benchmark, rng):
        """The legacy per-key dict loop (reference kernel)."""
        model = lenet5((3, 32, 32), 10, rng)
        states, weights = _cohort(model.state_dict(), 20, rng)
        benchmark(weighted_average_dict, states, weights)

    @pytest.mark.benchmark(group="aggregation")
    def test_bench_weighted_average_packed(benchmark, rng):
        """The flat-plane GEMV kernel on a pre-packed cohort."""
        model = lenet5((3, 32, 32), 10, rng)
        states, weights = _cohort(model.state_dict(), 20, rng)
        matrix, _ = pack_states(states)
        benchmark(packed_weighted_average, matrix, weights)

    @pytest.mark.benchmark(group="aggregation")
    def test_bench_pack_states(benchmark, rng):
        """Cost of entering the flat plane from dict states."""
        model = lenet5((3, 32, 32), 10, rng)
        states, _ = _cohort(model.state_dict(), 20, rng)
        layout = StateLayout.from_state(states[0])
        benchmark(pack_states, states, layout)

    @pytest.mark.benchmark(group="aggregation")
    def test_bench_final_layer_dict_flatten(benchmark, rng):
        model = lenet5((3, 32, 32), 10, rng)
        states, _ = _cohort(model.state_dict(), 20, rng)
        keys = ["classifier.weight", "classifier.bias"]
        benchmark(weight_matrix, states, keys)

    @pytest.mark.benchmark(group="aggregation")
    def test_bench_final_layer_packed_slice(benchmark, rng):
        model = lenet5((3, 32, 32), 10, rng)
        states, _ = _cohort(model.state_dict(), 20, rng)
        matrix, layout = pack_states(states)
        keys = ["classifier.weight", "classifier.bias"]
        benchmark(packed_weight_matrix, matrix, layout, keys)

    @pytest.mark.benchmark(group="kernels")
    def test_bench_pairwise_euclidean(benchmark, rng):
        x = rng.standard_normal((100, 900))
        benchmark(pairwise_euclidean, x)

    @pytest.mark.benchmark(group="kernels")
    def test_bench_linkage_average(benchmark, rng):
        d = pairwise_euclidean(rng.standard_normal((100, 16)))
        benchmark(linkage, d, "average")


# ----------------------------------------------------------------------
# Standalone packed-vs-dict record (BENCH_kernels.json)
# ----------------------------------------------------------------------
def _time_ms(fn, reps: int, warmup: int = 2) -> float:
    """Median wall time of ``fn()`` over ``reps`` runs, in milliseconds."""
    for _ in range(warmup):
        fn()
    samples = []
    for _ in range(reps):
        t0 = time.perf_counter()
        fn()
        samples.append((time.perf_counter() - t0) * 1e3)
    return float(np.median(samples))


def run_packed_vs_dict(
    n_clients: int = 256, out_path: str | Path | None = None
) -> dict:
    """Time the dict-loop vs packed aggregation kernels at cohort scale.

    The state is a deep, narrow CIFAR-style ResNet's (~98k params spread
    over 100 parameter tensors, see :func:`_resnet_state`), so the dict
    path pays its real per-key cost.  The packed path times only the
    GEMV: client updates already arrive as packed rows, so no per-call
    packing is charged to it; ``pack_states_ms`` records what entering
    the plane from dicts would cost.  Also checks the packed result
    against the per-key reference loop.
    """
    rng = np.random.default_rng(0)
    template = _resnet_state(rng)
    states, weights = _cohort(template, n_clients, rng)
    matrix, layout = pack_states(states)

    dict_ms = _time_ms(lambda: weighted_average_dict(states, weights), reps=7)
    packed_ms = _time_ms(lambda: packed_weighted_average(matrix, weights), reps=21)
    pack_ms = _time_ms(lambda: pack_states(states, layout), reps=5)

    packed_out = unpack_state(packed_weighted_average(matrix, weights), layout)
    legacy_out = weighted_average_dict(states, weights)
    legacy_max_abs_diff = max(
        float(
            np.max(
                np.abs(
                    packed_out[k].astype(np.float64)
                    - legacy_out[k].astype(np.float64)
                )
            )
        )
        for k in template
    )
    legacy_bit_identical = all(
        np.array_equal(packed_out[k], legacy_out[k]) for k in template
    )

    record = {
        "benchmark": "weighted_average: packed (w @ X GEMV) vs dict (per-key loop)",
        "model": "resnet state (width=16, 24 GroupNorm blocks)",
        "n_clients": n_clients,
        "n_params": layout.n_params,
        "n_tensors": len(layout.keys),
        "dict_ms": round(dict_ms, 3),
        "packed_ms": round(packed_ms, 3),
        "pack_states_ms": round(pack_ms, 3),
        "speedup": round(dict_ms / packed_ms, 2),
        # packed output vs the legacy per-key loop: bitwise equal on
        # this cohort after the cast to parameter dtype; the float64
        # discrepancy before the cast is pure summation-order round-off.
        "legacy_loop_bit_identical": bool(legacy_bit_identical),
        "legacy_loop_max_abs_diff": legacy_max_abs_diff,
    }
    if out_path is not None:
        Path(out_path).write_text(json.dumps(record, indent=2) + "\n")
    return record


if __name__ == "__main__":
    import sys

    target = (
        Path(sys.argv[1])
        if len(sys.argv) > 1
        else Path(__file__).resolve().parent.parent / "BENCH_kernels.json"
    )
    result = run_packed_vs_dict(out_path=target)
    print(json.dumps(result, indent=2))
    print(f"wrote {target}")
