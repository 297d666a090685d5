"""Server-side parameter aggregation.

Implements the FedAvg rule — the weighted average of client states by
local sample count — which every algorithm in this reproduction uses
(globally for FedAvg/FedProx, per cluster for CFL/IFCA/PACFL/FedClust).

:func:`packed_weighted_average` is the kernel.  It operates on a cohort
packed into one ``(n_clients, n_params)`` float64 matrix (see
:mod:`repro.nn.state_flat`); the average is a single GEMV ``w @ X``.

:func:`weighted_average_dict` preserves the original per-key loop over
state dicts as a reference kernel; benchmarks
(``benchmarks/bench_kernels.py``) time it against the packed kernel,
and tests cross-check the two numerically.
"""

from __future__ import annotations

from collections import OrderedDict
from typing import Mapping, Sequence

import numpy as np

from repro.nn.state import check_same_keys, state_axpy, state_zeros_like

__all__ = [
    "packed_weighted_average",
    "weighted_average_dict",
]


def _normalized_weights(weights: Sequence[float], n_states: int) -> np.ndarray:
    """Validate and normalise aggregation weights (shared by all paths)."""
    if n_states != len(weights):
        raise ValueError(f"{n_states} states but {len(weights)} weights")
    if not n_states:
        raise ValueError("cannot average zero states")
    w = np.asarray(weights, dtype=np.float64)
    if np.any(w < 0):
        raise ValueError(f"weights must be non-negative, got {w}")
    total = w.sum()
    if total <= 0:
        raise ValueError("weights must sum to a positive value")
    return w / total


def packed_weighted_average(
    matrix: np.ndarray,
    weights: Sequence[float],
) -> np.ndarray:
    """``Σ_i (w_i / Σw) · X[i]`` as one GEMV over a packed cohort.

    ``matrix`` is the ``(n_clients, n_params)`` float64 stack from
    :func:`repro.nn.state_flat.pack_states` (rows may also come straight
    from flat client updates).  Returns the float64 average vector; use
    :func:`repro.nn.state_flat.unpack_state` to view it as a state dict.
    """
    matrix = np.asarray(matrix)
    if matrix.ndim != 2:
        raise ValueError(f"packed cohort must be (n, p), got {matrix.shape}")
    w = _normalized_weights(weights, matrix.shape[0])
    return w @ matrix


def weighted_average_dict(
    states: Sequence[Mapping[str, np.ndarray]],
    weights: Sequence[float],
) -> "OrderedDict[str, np.ndarray]":
    """Reference per-key implementation of the FedAvg rule.

    The pre-flat-plane kernel: a Python loop of per-key AXPYs with a
    float64 accumulator, cast back to the parameter dtype at the end.
    Kept as the baseline that benchmarks and numerical cross-checks
    compare the packed kernel against.
    """
    check_same_keys(list(states))
    w = _normalized_weights(weights, len(states))

    acc = state_zeros_like(states[0])
    # Accumulate in float64 for stability, cast back to parameter dtype.
    acc64 = OrderedDict((k, v.astype(np.float64)) for k, v in acc.items())
    for state, weight in zip(states, w):
        state_axpy(acc64, state, weight)
    return OrderedDict(
        (k, acc64[k].astype(states[0][k].dtype)) for k in acc64
    )

