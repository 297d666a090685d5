"""Partial-weight selection — FedClust's "strategically selected" upload.

The paper's motivation (Fig. 1, §II) is that the **final layer** — the
classifier — implicitly encodes a client's label distribution, while
early convolutional layers encode generic features shared across
distributions.  FedClust therefore uploads only the final layer's
weights for clustering.  This module turns model states into the weight
matrices those decisions operate on, and provides per-layer extraction
for the Fig. 1 probe.
"""

from __future__ import annotations

from typing import Mapping, Sequence

import numpy as np

from repro.nn.models import final_linear_name, parameterized_layers
from repro.nn.module import Module
from repro.nn.state import flatten_state
from repro.nn.state_flat import StateLayout

__all__ = [
    "final_layer_keys",
    "layer_keys",
    "weight_matrix",
    "packed_weight_matrix",
    "layer_index_keys",
]


def final_layer_keys(model: Module) -> list[str]:
    """State-dict keys of the classifier layer (weight + bias)."""
    layer = final_linear_name(model)
    keys = [
        name for name, _ in model.named_parameters() if name.startswith(layer + ".")
    ]
    if not keys:
        raise ValueError(f"no parameters found under final layer {layer!r}")
    return keys


def layer_keys(model: Module, layer_name: str) -> list[str]:
    """State-dict keys of one named layer."""
    keys = [
        name
        for name, _ in model.named_parameters()
        if name.startswith(layer_name + ".")
    ]
    if not keys:
        available = sorted({n.rsplit(".", 1)[0] for n, _ in model.named_parameters()})
        raise ValueError(f"layer {layer_name!r} not found; available: {available}")
    return keys


def layer_index_keys(model: Module, layer_index: int) -> tuple[str, list[str]]:
    """Keys of the ``layer_index``-th (1-based) *weighted* layer.

    Mirrors the paper's Fig. 1 numbering: for the VGG-16 layout, Layer 1
    is the first convolution and Layer 16 the classifier.
    """
    layers = parameterized_layers(model)
    if not 1 <= layer_index <= len(layers):
        raise ValueError(
            f"layer_index {layer_index} out of range [1, {len(layers)}]"
        )
    name, _ = layers[layer_index - 1]
    return name, layer_keys(model, name)


def weight_matrix(
    states: Sequence[Mapping[str, np.ndarray]], keys: Sequence[str]
) -> np.ndarray:
    """Stack ``flatten(state[keys])`` over clients → ``(m, d)`` float64.

    Row ``i`` is client ``i``'s uploaded weight vector; this matrix is the
    direct input to the proximity computation.
    """
    if not states:
        raise ValueError("need at least one state")
    rows = [flatten_state(state, keys) for state in states]
    widths = {r.shape[0] for r in rows}
    if len(widths) != 1:
        raise ValueError(f"inconsistent flattened widths across clients: {widths}")
    return np.stack(rows)


def packed_weight_matrix(
    matrix: np.ndarray, layout: StateLayout, keys: Sequence[str]
) -> np.ndarray:
    """Uploaded-weight matrix as a column selection of a packed cohort.

    ``matrix`` is the ``(m, n_params)`` stack of flat client states (see
    :func:`repro.nn.state_flat.pack_states` — or simply the clients'
    ``ClientUpdate.flat`` rows).  Where :func:`weight_matrix` flattens
    every client's dict per call, this is ``matrix[:, columns]`` — a
    zero-copy view when ``keys`` occupy one contiguous run (true for the
    paper's final-layer selection, registered last in the model).

    Equal to ``weight_matrix([unpack(row) for row in matrix], keys)``
    value for value: packing stores the parameter values flattening
    widens to float64.
    """
    matrix = np.asarray(matrix)
    if matrix.ndim != 2 or matrix.shape[1] != layout.n_params:
        raise ValueError(
            f"packed cohort must be (m, {layout.n_params}), got {matrix.shape}"
        )
    return matrix[:, layout.columns(keys)]
