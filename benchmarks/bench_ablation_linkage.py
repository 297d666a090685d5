"""Benchmark A1 — HC linkage ablation.

The paper does not pin down the linkage; this ablation shows cluster
recovery per linkage on a planted federation, from the Fig. 1 probe's
final-layer cuts.  Average/complete linkage must recover the planted
groups perfectly on this well-separated case.
"""

from __future__ import annotations

import pytest

from repro.experiments.fig1 import format_fig1, run_fig1

EXPERIMENT_ID = "A1"


def _a1(experiment_cache, scale):
    if EXPERIMENT_ID not in experiment_cache:
        experiment_cache[EXPERIMENT_ID] = run_fig1(
            dataset="fmnist",
            n_clients=scale.n_clients,
            model_name="lenet5",
            selections=("final_layer",),
            scale=scale,
            local_steps=20,
        )
    return experiment_cache[EXPERIMENT_ID]


@pytest.mark.benchmark(group="ablation", min_rounds=1, max_time=1.0, warmup=False)
def test_bench_ablation_linkage(benchmark, experiment_cache, scale, capsys):
    result = benchmark.pedantic(
        lambda: _a1(experiment_cache, scale), rounds=1, iterations=1
    )
    with capsys.disabled():
        print()
        print(format_fig1(result))

    cuts = result.probes["final_layer"].cuts
    assert cuts["average"].ari == pytest.approx(1.0)
    assert cuts["complete"].ari == pytest.approx(1.0)
    assert cuts["ward"].ari == pytest.approx(1.0)
