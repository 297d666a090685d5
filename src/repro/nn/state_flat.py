"""Flat parameter plane: contiguous-buffer client states.

Server-side federated learning is matrix arithmetic in disguise: the
weighted average (Eq. 1), FedProx's proximal anchor, CFL's update norms
and FedClust's partial-weight proximity matrix are all linear-algebra
operations over the *same* cohort of client parameters.  Holding those
parameters as per-key ``OrderedDict``\\ s forces every one of these
operations through an O(n_clients x n_keys) Python loop before any BLAS
kernel can run.  This module provides the alternative representation:

* a :class:`StateLayout` — the key -> (slice, shape) map and the one
  parameter dtype, derived **once** per model architecture, and
* ``pack``/``unpack`` kernels that move a state dict into and out of a
  single contiguous buffer at that dtype, so that a cohort of ``n``
  client states becomes one C-contiguous ``(n_clients, n_params)``
  matrix.

With the cohort in this form the hot paths collapse to single kernels:
aggregation is one GEMV (``w @ X``), FedClust's final-layer extraction
is a column slice (``X[:, layout.columns(keys)]``), and transport ships
one buffer instead of pickling a dict of arrays.

Layout invariants
-----------------
1. **Key order is state order.**  A layout derived from a model's
   ``state_dict()`` lists keys in registration (depth-first) order — the
   same order ``Module.named_parameters`` and the dict API use.  Packing
   and unpacking never reorder.
2. **Offsets are cumulative sizes.**  Key ``k`` owns the half-open column
   range ``[offset_k, offset_k + size_k)``; ranges tile ``[0, n_params)``
   exactly, with no gaps and no overlap, so any key subset maps to a set
   of disjoint column runs (a single ``slice`` when the keys are stored
   adjacently — true for FedClust's final layer, which is registered
   last).
3. **One dtype, and packing is exact.**  Every parameter of a layout
   has the same float dtype (float16/32/64; a state that mixes dtypes
   is rejected when the layout is built), and the buffer is held at
   that dtype, so ``unpack(pack(state)) == state`` *bit for bit*,
   including dtype and shape.  Non-contiguous inputs (views,
   transposes) are packed via C-order ravel; unpacking always returns
   fresh C-contiguous arrays.  Rows stay at this dtype across the FL
   stack; float64 appears only as the accumulator of a reduction
   (aggregation, the robust rules, norms), and
   :meth:`StateLayout.round_trip` is the one narrowing of such a
   float64 result back to a row.
4. **One layout per architecture.**  All states packed with a layout
   must share its key sequence and shapes; :func:`pack_state`
   validates both.  States from the same model always satisfy this.

Client state crosses the FL stack (task payloads, client updates,
aggregation, the client-state store, checkpoints) only in this packed
form; state dicts appear where a model is loaded or saved, and in the
per-key reference kernels (``repro.nn.state``,
``repro.fl.aggregation.weighted_average_dict``) that tests and
benchmarks compare the packed kernels against.
"""

from __future__ import annotations

from collections import OrderedDict
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Iterable, Mapping, Sequence

import numpy as np

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.nn.module import Module

__all__ = [
    "StateLayout",
    "pack_state",
    "pack_states",
    "unpack_state",
    "unpack_keys",
]

#: Parameter dtypes a layout accepts (each widens to float64 exactly).
_FLOAT_DTYPES = tuple(np.dtype(d) for d in (np.float16, np.float32, np.float64))


@dataclass(frozen=True)
class StateLayout:
    """Key -> (slice, shape) map and parameter dtype of one architecture.

    Derived once (per environment / per model) and shared by every pack,
    unpack, slice and transport operation on that architecture's states.
    Immutable and picklable, so process-pool workers can carry it.
    """

    keys: tuple[str, ...]
    shapes: tuple[tuple[int, ...], ...]
    dtype: np.dtype  # every parameter's, and so every packed row's
    offsets: tuple[int, ...]  # len(keys) + 1 cumulative sizes; [-1] == n_params
    _index: dict[str, int] = field(repr=False, compare=False, default_factory=dict)

    # ------------------------------------------------------------------
    # Construction
    # ------------------------------------------------------------------
    @classmethod
    def from_state(cls, state: Mapping[str, np.ndarray]) -> "StateLayout":
        """Derive the layout from a template state dict (its own order).

        Every value must share one float dtype: rows are held at it.
        """
        if not state:
            raise ValueError("cannot derive a layout from an empty state")
        keys = tuple(state)
        arrays = [np.asarray(state[key]) for key in keys]
        dtypes = sorted({str(arr.dtype) for arr in arrays})
        if len(dtypes) != 1:
            raise TypeError(f"a layout holds one parameter dtype, got {dtypes}")
        dtype = arrays[0].dtype
        if dtype not in _FLOAT_DTYPES:
            raise TypeError(
                f"parameters have dtype {dtype}, which does not widen "
                "losslessly into the float64 accumulators"
            )
        offsets = [0]
        for arr in arrays:
            offsets.append(offsets[-1] + int(arr.size))
        layout = cls(keys, tuple(arr.shape for arr in arrays), dtype, tuple(offsets))
        object.__setattr__(layout, "_index", {k: i for i, k in enumerate(keys)})
        return layout

    @classmethod
    def from_model(cls, model: "Module") -> "StateLayout":
        """Derive the layout from a model's current ``state_dict``."""
        return cls.from_state(model.state_dict(copy=False))

    def __post_init__(self) -> None:
        if not self._index:
            object.__setattr__(
                self, "_index", {k: i for i, k in enumerate(self.keys)}
            )

    # ------------------------------------------------------------------
    # Queries
    # ------------------------------------------------------------------
    @property
    def n_params(self) -> int:
        """Total scalar count — the packed vector length."""
        return self.offsets[-1]

    def slice_of(self, key: str) -> slice:
        """Column range of one key in the packed buffer."""
        try:
            i = self._index[key]
        except KeyError:
            raise KeyError(f"key {key!r} not in layout") from None
        return slice(self.offsets[i], self.offsets[i + 1])

    def size_of(self, key: str) -> int:
        """Scalar count of one key."""
        s = self.slice_of(key)
        return s.stop - s.start

    def columns(self, keys: Iterable[str]) -> "slice | np.ndarray":
        """Column selector for a key subset, in the given key order.

        Returns a ``slice`` when the keys occupy one contiguous run in
        their stored order (e.g. FedClust's final-layer keys), so
        ``X[:, columns]`` is a zero-copy view; otherwise an int index
        array (NumPy fancy indexing, which copies).
        """
        slices = [self.slice_of(k) for k in keys]
        if not slices:
            raise ValueError("no keys selected")
        contiguous = all(
            a.stop == b.start for a, b in zip(slices[:-1], slices[1:])
        )
        if contiguous:
            return slice(slices[0].start, slices[-1].stop)
        return np.concatenate(
            [np.arange(s.start, s.stop, dtype=np.intp) for s in slices]
        )

    # ------------------------------------------------------------------
    # Kernels (methods mirror the module-level functions)
    # ------------------------------------------------------------------
    def pack(self, state: Mapping[str, np.ndarray], out: np.ndarray | None = None) -> np.ndarray:
        """Alias for :func:`pack_state` with this layout."""
        return pack_state(state, self, out=out)

    def round_trip(self, vector: np.ndarray) -> np.ndarray:
        """A fresh row at the layout dtype: ``vector`` rounded to it.

        Equivalent to ``pack_state(unpack_state(vector, self), self)``
        without materialising the dict: the result is what a model would
        actually hold after loading ``vector``.  This is the one
        narrowing of a float64 aggregate back to a row; a row already at
        the layout dtype comes back as an exact copy.
        """
        vector = np.asarray(vector)
        if vector.shape != (self.n_params,):
            raise ValueError(
                f"vector has shape {vector.shape}, expected ({self.n_params},)"
            )
        return vector.astype(self.dtype)


def pack_state(
    state: Mapping[str, np.ndarray],
    layout: StateLayout,
    out: np.ndarray | None = None,
) -> np.ndarray:
    """Pack one state dict into a contiguous vector at the layout dtype.

    The state's key sequence and per-key shapes must equal the layout's
    (invariant 4); values are written in C order.  ``out`` lets callers
    fill a preallocated row of a cohort matrix.
    """
    keys = list(state.keys())
    if keys != list(layout.keys):
        raise KeyError(
            "state keys differ from layout: "
            f"{sorted(set(keys) ^ set(layout.keys)) or 'same set, different order'}"
        )
    if out is None:
        out = np.empty(layout.n_params, dtype=layout.dtype)
    elif out.shape != (layout.n_params,) or out.dtype != layout.dtype:
        raise ValueError(
            f"out must be {layout.dtype} of shape ({layout.n_params},), "
            f"got {out.dtype} {out.shape}"
        )
    for key, offset_lo, offset_hi, shape in zip(
        layout.keys, layout.offsets[:-1], layout.offsets[1:], layout.shapes
    ):
        value = np.asarray(state[key])
        # An equal-size shape mismatch (e.g. a transposed tensor) would
        # ravel into the wrong element order and scramble every kernel
        # downstream — reject it like the dict-path broadcasting did.
        if value.shape != shape:
            raise ValueError(
                f"key {key!r} has shape {value.shape}, layout expects {shape}"
            )
        out[offset_lo:offset_hi] = value.reshape(-1)
    return out


def pack_states(
    states: Sequence[Mapping[str, np.ndarray]],
    layout: StateLayout | None = None,
) -> tuple[np.ndarray, StateLayout]:
    """Pack a cohort of states into one ``(n_clients, n_params)`` matrix.

    Row ``i`` is client ``i``'s packed state.  The matrix is at the
    layout dtype and C-contiguous — the direct operand of
    :func:`repro.fl.aggregation.packed_weighted_average` and
    :func:`repro.core.weights.packed_weight_matrix`.
    """
    states = list(states)
    if not states:
        raise ValueError("need at least one state to pack")
    if layout is None:
        layout = StateLayout.from_state(states[0])
    matrix = np.empty((len(states), layout.n_params), dtype=layout.dtype)
    for i, state in enumerate(states):
        pack_state(state, layout, out=matrix[i])
    return matrix, layout


def unpack_state(
    vector: np.ndarray, layout: StateLayout
) -> "OrderedDict[str, np.ndarray]":
    """Unpack a vector into a fresh state dict (original shapes/dtype).

    Exact inverse of :func:`pack_state` for vectors produced by it; for
    a float64 vector each entry is rounded to the parameter dtype,
    exactly as the dict-path aggregation casts its float64 accumulator
    back to the parameter dtype.
    """
    vector = np.asarray(vector)
    if vector.shape != (layout.n_params,):
        raise ValueError(
            f"vector has shape {vector.shape}, expected ({layout.n_params},)"
        )
    out: "OrderedDict[str, np.ndarray]" = OrderedDict()
    for key, lo, hi, shape in zip(
        layout.keys, layout.offsets[:-1], layout.offsets[1:], layout.shapes
    ):
        out[key] = vector[lo:hi].reshape(shape).astype(layout.dtype, copy=True)
    return out


def unpack_keys(
    vector: np.ndarray, layout: StateLayout, keys: Sequence[str]
) -> "OrderedDict[str, np.ndarray]":
    """Unpack a *partial* vector holding only ``keys``' entries.

    ``vector`` is laid out as the concatenation of the selected keys in
    the given order — i.e. a row of ``X[:, layout.columns(keys)]``.
    Used to scatter an aggregated partial result (e.g. FedClust's
    warm-started final layer) back into dict form.
    """
    vector = np.asarray(vector)
    total = sum(layout.size_of(k) for k in keys)
    if vector.shape != (total,):
        raise ValueError(f"vector has shape {vector.shape}, expected ({total},)")
    out: "OrderedDict[str, np.ndarray]" = OrderedDict()
    offset = 0
    for key in keys:
        i = layout._index[key]
        size = layout.offsets[i + 1] - layout.offsets[i]
        out[key] = (
            vector[offset : offset + size]
            .reshape(layout.shapes[i])
            .astype(layout.dtype, copy=True)
        )
        offset += size
    return out
