"""Benchmark A2 — weight-selection ablation.

What should clients upload for clustering?  The paper's answer is the
final layer; this bench quantifies the trade-off: the final layer gives
(at least) the cluster recovery of the full model at a fraction of the
upload, while an early conv layer carries far weaker signal — the same
story Fig. 1 tells, now measured end-to-end through the actual
clustering pipeline (the Fig. 1 probe's cuts, at the default average
linkage).
"""

from __future__ import annotations

import pytest

from repro.experiments.fig1 import format_fig1, run_fig1

EXPERIMENT_ID = "A2"


def _a2(experiment_cache, scale):
    if EXPERIMENT_ID not in experiment_cache:
        experiment_cache[EXPERIMENT_ID] = run_fig1(
            dataset="fmnist",
            n_clients=scale.n_clients,
            model_name="lenet5",
            selections=("final_layer", "all", "index:1"),
            scale=scale,
            local_steps=20,
        )
    return experiment_cache[EXPERIMENT_ID]


@pytest.mark.benchmark(group="ablation", min_rounds=1, max_time=1.0, warmup=False)
def test_bench_ablation_weights(benchmark, experiment_cache, scale, capsys):
    result = benchmark.pedantic(
        lambda: _a2(experiment_cache, scale), rounds=1, iterations=1
    )
    with capsys.disabled():
        print()
        print(format_fig1(result))

    final = result.probes["final_layer"]
    full = result.probes["all"]
    conv1 = result.probes["index:1"]

    # Partial upload is a small fraction of the full model...
    assert final.upload < 0.25 * full.upload
    # ...with cluster recovery at least as good as the full upload...
    assert final.cuts["average"].ari >= full.cuts["average"].ari - 1e-9
    assert final.cuts["average"].ari == pytest.approx(1.0)
    # ...while the early conv layer's signature is weaker.
    assert conv1.separability < final.separability
