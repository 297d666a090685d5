"""Server-side parameter aggregation.

Implements the FedAvg rule — the weighted average of client states by
local sample count — which every algorithm in this reproduction uses
(globally for FedAvg/FedProx, per cluster for CFL/IFCA/PACFL/FedClust).

:func:`packed_weighted_average` is the kernel.  It operates on a cohort
packed into one ``(n_clients, n_params)`` matrix of rows at the layout
dtype (see :mod:`repro.nn.state_flat`); the average is a GEMV ``w @ X``
accumulated in float64.  :func:`float64_column_blocks` widens the
cohort a block of columns at a time into one reused float64 buffer, so
no reduction ever holds a float64 copy of the whole cohort.

:func:`weighted_average_dict` preserves the original per-key loop over
state dicts as a reference kernel; benchmarks
(``benchmarks/bench_kernels.py``) time it against the packed kernel,
and tests cross-check the two numerically.
"""

from __future__ import annotations

from collections import OrderedDict
from typing import Iterator, Mapping, Sequence

import numpy as np

from repro.nn.state import check_same_keys, state_axpy, state_zeros_like

__all__ = [
    "float64_column_blocks",
    "packed_weighted_average",
    "weighted_average_dict",
]

#: Columns per float64 block of :func:`float64_column_blocks`.
_BLOCK = 4096


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


def float64_column_blocks(
    matrix: np.ndarray,
) -> Iterator[tuple[int, int, np.ndarray]]:
    """``(lo, hi, block)``: ``matrix[:, lo:hi]`` widened to float64.

    Every block is written into one reused ``(n, ~4096)`` buffer, so a
    reduction over the blocks stays bit-identical to the same reduction
    over ``matrix.astype(float64)`` without ever holding that copy.  A
    last block of one column joins the block before it: NumPy hands a
    one-column GEMV to a dot kernel, which sums in another order.
    """
    n, p = matrix.shape
    buf = np.empty((n, min(p, _BLOCK + 1)))
    lo = 0
    while lo < p:
        hi = p if p - lo <= _BLOCK + 1 else lo + _BLOCK
        block = buf[:, : hi - lo]
        np.copyto(block, matrix[:, lo:hi])
        yield lo, hi, block
        lo = hi


def packed_weighted_average(
    matrix: np.ndarray,
    weights: Sequence[float],
) -> np.ndarray:
    """``Σ_i (w_i / Σw) · X[i]`` as a GEMV over a packed cohort.

    ``matrix`` is the ``(n_clients, n_params)`` stack from
    :func:`repro.nn.state_flat.pack_states` (rows may also come straight
    from flat client updates).  Returns the float64 average vector, the
    GEMV of the float64-widened cohort, taken over column blocks; use
    :meth:`repro.nn.state_flat.StateLayout.round_trip` to round it to a
    row.
    """
    matrix = np.asarray(matrix)
    if matrix.ndim != 2:
        raise ValueError(f"packed cohort must be (n, p), got {matrix.shape}")
    w = _normalized_weights(weights, matrix.shape[0])
    out = np.empty(matrix.shape[1])
    for lo, hi, block in float64_column_blocks(matrix):
        np.matmul(w, block, out=out[lo:hi])
    return out


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

