"""Benchmark F1 — regenerate the paper's Fig. 1 (motivation probe).

Prints the four distance-matrix panels (as terminal heat maps) for the
VGG-16-layout layers the paper shows — Layer 1 (conv), Layer 7 (conv),
Layer 14 (FC), Layer 16 (FC/classifier) — and asserts the paper's
observation: the planted two-group client structure is visible in the
final layer's distances and not in the early convolution's.
"""

from __future__ import annotations

import pytest

from repro.experiments.fig1 import format_fig1, run_fig1

EXPERIMENT_ID = "F1"


def _fig1(experiment_cache, scale):
    if EXPERIMENT_ID not in experiment_cache:
        experiment_cache[EXPERIMENT_ID] = run_fig1(scale=scale)
    return experiment_cache[EXPERIMENT_ID]


@pytest.mark.benchmark(group="fig1", min_rounds=1, max_time=1.0, warmup=False)
def test_bench_fig1(benchmark, experiment_cache, scale, capsys):
    result = benchmark.pedantic(
        lambda: _fig1(experiment_cache, scale), rounds=1, iterations=1
    )
    with capsys.disabled():
        print()
        print(format_fig1(result))

    sep = {
        int(spec.split(":")[1]): probe.separability
        for spec, probe in result.probes.items()
    }
    # The classifier (Layer 16) exposes the group structure...
    assert sep[16] > 1.5, f"final layer separability too low: {sep[16]:.2f}"
    # ...far more clearly than the first convolution (Layer 1)...
    assert sep[16] > 1.5 * sep[1], f"16 vs 1: {sep[16]:.2f} vs {sep[1]:.2f}"
    # ...and the deep FC layers beat the early conv layers generally.
    assert min(sep[14], sep[16]) > max(sep[1], sep[7]), (
        f"FC layers {sep[14]:.2f}/{sep[16]:.2f} should dominate conv layers "
        f"{sep[1]:.2f}/{sep[7]:.2f}"
    )
