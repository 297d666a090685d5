"""Benchmark A3 — heterogeneity sweep (the paper's future-work axis).

FedClust vs FedAvg across Dirichlet α.  The clustered method's advantage
must be largest under severe skew (small α) and vanish near-IID (large
α), where a single global model is the right answer.
"""

from __future__ import annotations

import pytest

from repro.experiments.table1 import run_alpha_sweep

EXPERIMENT_ID = "A3"


def _a3(experiment_cache, scale):
    if EXPERIMENT_ID not in experiment_cache:
        experiment_cache[EXPERIMENT_ID] = run_alpha_sweep(scale=scale)
    return experiment_cache[EXPERIMENT_ID]


@pytest.mark.benchmark(group="ablation", min_rounds=1, max_time=1.0, warmup=False)
def test_bench_ablation_alpha(benchmark, experiment_cache, scale, capsys):
    result = benchmark.pedantic(
        lambda: _a3(experiment_cache, scale), rounds=1, iterations=1
    )
    with capsys.disabled():
        print()
        print(result.format())

    gains = [c - a for a, c in zip(result.fedavg, result.fedclust)]
    # Severe skew (first alpha): clustering helps clearly.
    assert gains[0] > 0.02, f"no gain under severe skew: {gains}"
    # The advantage shrinks as data approaches IID.
    assert gains[0] > gains[-1], f"gain did not shrink toward IID: {gains}"
    # Near-IID FedClust must not collapse (within 10 points of FedAvg).
    assert result.fedclust[-1] > result.fedavg[-1] - 0.10
