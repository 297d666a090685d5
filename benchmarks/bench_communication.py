"""Benchmark C1 — the abstract's communication-cost claim.

Prints per-method traffic (total, clustering-phase, and traffic needed to
first reach a target accuracy) and asserts:

* FedClust's clustering-phase upload is far below PACFL's (partial
  final-layer weights vs d×p SVD bases), and
* IFCA's total download exceeds FedAvg's (k models per round), while
  FedClust's stays comparable to FedAvg's.
"""

from __future__ import annotations

import pytest

from repro.experiments.table1 import run_communication_study

EXPERIMENT_ID = "C1"


def _c1(experiment_cache, scale):
    if EXPERIMENT_ID not in experiment_cache:
        experiment_cache[EXPERIMENT_ID] = run_communication_study(scale=scale)
    return experiment_cache[EXPERIMENT_ID]


@pytest.mark.benchmark(group="communication", min_rounds=1, max_time=1.0, warmup=False)
def test_bench_communication(benchmark, experiment_cache, scale, capsys):
    result = benchmark.pedantic(
        lambda: _c1(experiment_cache, scale), rounds=1, iterations=1
    )
    with capsys.disabled():
        print()
        print(result.format())

    fedclust = result.row_of("fedclust")
    pacfl = result.row_of("pacfl")
    ifca = result.row_of("ifca")
    fedavg = result.row_of("fedavg")

    # One-shot clustering uploads: final layer ≪ SVD bases.
    assert 0 < fedclust["clustering_upload"] < pacfl["clustering_upload"]
    # IFCA pays k× downloads; FedClust does not.
    assert ifca["total_download"] > 1.5 * fedavg["total_download"]
    assert fedclust["total_download"] <= 1.1 * fedavg["total_download"]
