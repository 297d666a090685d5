"""Batched cohort modules: lockstep training with a leading client axis.

A federated round broadcasts **one** model state to a cohort of clients
and runs the **same** local-SGD schedule on each — the only thing that
differs per client is the data.  The serial trainer
(:func:`repro.fl.client.local_train`) therefore repeats an identical
forward/backward/step pipeline ``n_clients`` times over tiny per-client
batches.  This module provides the vectorised alternative: every tensor
gains a leading ``(n_clients, ...)`` axis and one pipeline trains the
whole cohort in lockstep.

Two weight representations coexist behind one interface:

* **Dense** (:class:`CohortParam`) — per-client weights live as views
  into a contiguous ``(n_clients, n_params)`` working plane at the
  layout dtype (the same layout :mod:`repro.nn.state_flat` defines),
  forward/backward are einsum/``matmul`` batches over the client axis,
  and the optimiser steps directly on the plane.  General: any
  schedule length, any layer mix supported here.
* **Factored** (:class:`FactoredParam`) — for the first parameterised
  layer only, whose input is the raw sample.  Every SGD update it gets
  lies in the span of the samples its client visits this round, so
  each client's weight is ``W0 + Gᵀ X``: the shared broadcast base
  plus one coefficient row per distinct scheduled sample.  ``X W0ᵀ``
  and the Gram matrix ``X Xᵀ`` are computed once per round, a step's
  forward gathers their rows, SGD/momentum/proximal become
  recurrences on ``G``, and the dense per-client weights are
  materialised **once** at round end, into the working plane's
  columns of that weight.  A sample seen in several local
  epochs costs one row, not one per visit, so the representation pays
  while the mean number of distinct samples per client stays below the
  layer's smallest dimension — exactly the few-samples-many-epochs
  regime of federated simulation.

Both representations produce the same numbers as the serial trainer up
to float summation order (gated by the parity suite in
``tests/test_fl_train_flat.py``); the serial path remains the reference
kernel.  After :func:`flush_cohort` the working plane's rows are the
cohort's packed final states, so the plane is also what the cohort
emits.

Supported layers: :class:`~repro.nn.layers.linear.Linear`,
:class:`~repro.nn.layers.activation.ReLU`,
:class:`~repro.nn.layers.flatten.Flatten`, and softmax cross-entropy.
Convolutional models are *not* batchable here — the cohort trainer
falls back to the serial path for them (see
:mod:`repro.fl.train_flat`).
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from repro.nn.layers.activation import ReLU
from repro.nn.layers.flatten import Flatten
from repro.nn.layers.linear import Linear
from repro.nn.loss import softmax_minus_one_hot, target_log_probs
from repro.nn.module import Module, Sequential

__all__ = [
    "CohortParam",
    "FactoredParam",
    "BatchedLinear",
    "BatchedActivation",
    "BatchedFlatten",
    "BatchedSequential",
    "BatchedCrossEntropyLoss",
    "BatchedSGD",
    "BatchedProximalSGD",
    "batchable_layers",
    "factorable_layer",
    "supports_batched",
    "build_batched",
]


# ----------------------------------------------------------------------
# Cohort parameters: dense plane views and factored shared-base weights
# ----------------------------------------------------------------------
class CohortParam:
    """Dense per-client parameter: a ``(n_clients, *shape)`` array.

    ``data`` is a zero-copy view into the cohort's working plane (a
    row-contiguous column slice reshaped per client), so the
    optimiser's in-place update *is* the plane update.  ``grad`` is
    filled by the owning layer's backward each lockstep step.
    """

    __slots__ = ("key", "data", "grad", "anchor")

    def __init__(self, key: str, data: np.ndarray) -> None:
        self.key = key
        self.data = data
        self.grad: np.ndarray | None = None
        #: Proximal anchor — the shared broadcast value (one client's
        #: worth; broadcasting supplies the cohort axis).
        self.anchor: np.ndarray | None = None

    @property
    def n_clients(self) -> int:
        return self.data.shape[0]


class FactoredParam:
    """Sample-keyed first-layer weight: ``W[c] = W0 + G[c]ᵀ X[c]``.

    ``base`` ``W0`` is the shared broadcast weight ``(out, in)``.
    ``samples`` ``X`` is ``(C, N, in)``: client ``c``'s distinct scheduled
    samples fill its first ``counts[c]`` rows and zeros the rest, and
    the last row is zero for every client — a step's padding slots
    (``-1``) point at it.  ``coef`` ``G`` ``(C, N, out)`` holds one
    coefficient row per sample, which the optimiser steps in place of
    any dense weight.  ``Z0 = X W0ᵀ`` and the Gram matrix ``K = X Xᵀ``
    are computed on the round's first forward.
    """

    __slots__ = (
        "key",
        "base",
        "samples",
        "counts",
        "coef",
        "z0",
        "gram",
        "pending",
    )

    def __init__(
        self, key: str, base: np.ndarray, samples: Sequence[np.ndarray]
    ) -> None:
        self.key = key
        self.base = np.ascontiguousarray(base)
        out_f, in_f = self.base.shape
        self.counts = [len(s) for s in samples]
        rows = max(self.counts) + 1
        self.samples = np.zeros((len(samples), rows, in_f), dtype=self.base.dtype)
        for x, s in zip(self.samples, samples):
            x[: len(s)] = s
        self.coef = np.zeros((len(samples), rows, out_f), dtype=self.base.dtype)
        self.z0: np.ndarray | None = None
        self.gram: np.ndarray | None = None
        #: ``(slots, go)`` set by backward; consumed by the optimiser step.
        self.pending: tuple[np.ndarray, np.ndarray] | None = None

    def forward(self, slots: np.ndarray) -> np.ndarray:
        """``x @ W[c].T`` for the step whose inputs are ``X[c][slots[c]]``.

        ``Z0[slots] + K[slots] @ G``: no sample gather and no GEMM
        against ``W0`` after the first call.
        """
        if self.z0 is None:
            c, rows, in_f = self.samples.shape
            self.z0 = np.matmul(
                self.samples.reshape(c * rows, in_f), self.base.T
            ).reshape(c, rows, -1)
            self.gram = np.zeros((c, rows, rows), dtype=self.samples.dtype)
            for x, k, n in zip(self.samples, self.gram, self.counts):
                k[:n, :n] = np.dot(x[:n], x[:n].T)
        ci = np.arange(slots.shape[0])[:, None]
        out = self.z0[ci, slots]
        out += np.matmul(self.gram[ci, slots], self.coef)
        return out

    def materialize(self, out: np.ndarray) -> None:
        """Write dense per-client weights ``(C, out·in)`` into ``out``.

        One ``(out × n) @ (n × in)`` GEMM per client over its ``n``
        distinct samples, paid once per round, into a single reused
        scratch buffer (the ``out`` rows, the working plane's columns of
        this weight, are the only full-cohort weight storage).  A client
        that took no step gets the base unchanged.
        """
        base_flat = self.base.reshape(-1)
        scratch = np.empty(self.base.shape, dtype=self.base.dtype)
        for i, n in enumerate(self.counts):
            if n == 0:
                out[i] = base_flat
                continue
            np.matmul(self.coef[i, :n].T, self.samples[i, :n], out=scratch)
            np.add(scratch.reshape(-1), base_flat, out=out[i])


# ----------------------------------------------------------------------
# Layers
# ----------------------------------------------------------------------
class BatchedLinear:
    """Cohort-batched affine map ``y[c] = x[c] @ W[c].T + b[c]``.

    ``weight`` is either a :class:`CohortParam` holding ``(C, out, in)``
    dense per-client weights or a :class:`FactoredParam`, whose forward
    takes the step's ``(C, B)`` sample slots instead of ``x``; the bias
    is always dense (``(C, out)`` is tiny).  ``needs_input_grad=False``
    on the first parameterised layer of a chain skips the input-gradient
    GEMM entirely, as the serial training backward does.
    """

    def __init__(
        self,
        weight: "CohortParam | FactoredParam",
        bias: CohortParam | None,
        needs_input_grad: bool = True,
    ) -> None:
        self.weight = weight
        self.bias = bias
        self.needs_input_grad = needs_input_grad
        self._input: np.ndarray | None = None

    def forward(self, x: np.ndarray) -> np.ndarray:
        self._input = x
        if isinstance(self.weight, FactoredParam):
            out = self.weight.forward(x)
        else:
            out = np.einsum("cbi,chi->cbh", x, self.weight.data, optimize=True)
        if self.bias is not None:
            out += self.bias.data[:, None, :]
        return out

    def backward(self, go: np.ndarray) -> np.ndarray | None:
        x = self._input
        if x is None:
            raise RuntimeError("backward called before forward")
        self._input = None
        if self.bias is not None:
            self.bias.grad = go.sum(axis=1)
        if isinstance(self.weight, FactoredParam):
            # Always the first layer: no input gradient to return.
            self.weight.pending = (x, go)
            return None
        # Dense: per-client weight-gradient GEMMs.  A Python loop over
        # BLAS slices beats the 3-D matmul gufunc here (transposed first
        # operands defeat its blocking).
        c = go.shape[0]
        w = self.weight.data
        grad = self.weight.grad
        if grad is None or grad.shape != w.shape:
            grad = np.empty_like(w, subok=False)
            if not grad.flags.c_contiguous:
                grad = np.ascontiguousarray(grad)
            self.weight.grad = grad
        for i in range(c):
            np.matmul(go[i].T, x[i], out=grad[i])
        if not self.needs_input_grad:
            return None
        return np.matmul(go, w)

    def params(self) -> list:
        out = [self.weight]
        if self.bias is not None:
            out.append(self.bias)
        return out


class BatchedActivation:
    """ReLU over ``(C, B, ...)`` cohort tensors."""

    def __init__(self) -> None:
        self._mask: np.ndarray | None = None

    def forward(self, x: np.ndarray) -> np.ndarray:
        mask = x > 0
        self._mask = mask
        return np.where(mask, x, 0)

    def backward(self, go: np.ndarray) -> np.ndarray:
        mask = self._mask
        if mask is None:
            raise RuntimeError("backward called before forward")
        self._mask = None
        return np.where(mask, go, 0)

    def params(self) -> list:
        return []


class BatchedFlatten:
    """``(C, B, ...) -> (C, B, prod(...))``."""

    def __init__(self) -> None:
        self._shape: tuple[int, ...] | None = None

    def forward(self, x: np.ndarray) -> np.ndarray:
        self._shape = x.shape
        return x.reshape(x.shape[0], x.shape[1], -1)

    def backward(self, go: np.ndarray) -> np.ndarray:
        if self._shape is None:
            raise RuntimeError("backward called before forward")
        shape, self._shape = self._shape, None
        return go.reshape(shape)

    def params(self) -> list:
        return []


class BatchedCrossEntropyLoss:
    """Softmax cross-entropy with per-row weights for ragged padding.

    ``row_weights[c, b]`` is ``1 / n_real`` for a real sample of client
    ``c``'s current batch and ``0`` for a padding row, which makes the
    per-client loss the serial batch *mean* and zeroes padded rows out
    of the gradient — a padded client's update is untouched by padding.
    The softmax and its gradient are the serial loss's own helpers
    (:func:`repro.nn.loss.target_log_probs`), so both share one formula.
    """

    def __init__(self) -> None:
        self._cache: tuple | None = None

    def forward(
        self, logits: np.ndarray, targets: np.ndarray, row_weights: np.ndarray
    ) -> np.ndarray:
        """Per-client weighted NLL, shape ``(C,)``."""
        picked, state = target_log_probs(logits, targets)
        self._cache = (state, row_weights)
        return -(picked * row_weights).sum(axis=1)

    def backward(self) -> np.ndarray:
        if self._cache is None:
            raise RuntimeError("backward called before forward")
        state, row_weights = self._cache
        self._cache = None
        grad = softmax_minus_one_hot(state)
        grad *= row_weights[:, :, None]
        return grad


class BatchedSequential:
    """Lockstep mirror of a :class:`~repro.nn.module.Sequential` chain.

    Built by :func:`build_batched`; ``forward``/``backward`` mirror the
    serial chain's training pass with the extra client axis, so
    ``backward`` stops at the serial model's ``first_param_index``
    (nothing upstream consumes the input gradient).
    """

    def __init__(self, layers: Sequence, first_param_index: int) -> None:
        self.layers = list(layers)
        self.first_param_index = first_param_index
        #: True when the first parameterised layer is factored: ``forward``
        #: then takes the step's ``(C, B)`` sample slots and skips the
        #: ``Flatten`` layers before that layer.
        self.factored = isinstance(
            getattr(self.layers[first_param_index], "weight", None),
            FactoredParam,
        )

    def forward(self, x: np.ndarray) -> np.ndarray:
        start = self.first_param_index if self.factored else 0
        for layer in self.layers[start:]:
            x = layer.forward(x)
        return x

    def backward(self, go: np.ndarray) -> None:
        for index in range(len(self.layers) - 1, self.first_param_index - 1, -1):
            go = self.layers[index].backward(go)

    def params(self) -> list:
        out = []
        for layer in self.layers:
            out.extend(layer.params())
        return out


# ----------------------------------------------------------------------
# Optimisers
# ----------------------------------------------------------------------
class BatchedSGD:
    """Cohort SGD stepping on dense planes and factored coefficients.

    Matches :class:`repro.nn.optim.SGD` semantics per client, with a
    per-step ``active`` mask so clients whose local schedule has no
    batch at this lockstep position are untouched — their velocity does
    not decay and their weights do not move, exactly as if the step
    never happened (which, for them, it didn't).
    """

    #: Proximal coefficient; 0 for plain SGD.
    mu: float = 0.0

    def __init__(
        self,
        params: Sequence,
        lr: float,
        momentum: float = 0.0,
    ) -> None:
        if lr <= 0:
            raise ValueError(f"lr must be positive, got {lr}")
        if momentum < 0:
            raise ValueError(f"momentum must be >= 0, got {momentum}")
        self.params = list(params)
        self.lr = lr
        self.momentum = momentum
        # Velocity per param: dense planes, and a factored weight's
        # sample coefficients (``H``, shaped like ``G``).
        self._velocity: dict[int, np.ndarray] = {}

    # -- dense -----------------------------------------------------------
    def _step_dense(self, p: CohortParam, rows) -> None:
        g = p.grad
        if g is None:
            raise RuntimeError(f"no gradient for {p.key!r}")
        data = p.data
        if rows is not None:
            # Step-budget / ragged-tail masks: restrict every term to the
            # active rows up front.  Under per-client compute budgets most
            # of a cohort can be frozen for most of the schedule, and the
            # full-plane proximal arithmetic would dominate the step; the
            # selected-row ops are elementwise-identical.
            g = g[rows]
            sel = data[rows]
            if self.mu and p.anchor is not None:
                g = g + self.mu * (sel - p.anchor)
            if self.momentum > 0:
                v = self._velocity.get(id(p))
                if v is None:
                    v = np.zeros_like(data, subok=False)
                    self._velocity[id(p)] = v
                v[rows] = self.momentum * v[rows] + g
                data[rows] -= self.lr * v[rows]
            else:
                data[rows] = sel - self.lr * g
            return
        if self.mu and p.anchor is not None:
            g = g + self.mu * (data - p.anchor)
        if self.momentum > 0:
            v = self._velocity.get(id(p))
            if v is None:
                v = np.zeros_like(data, subok=False)
                self._velocity[id(p)] = v
            v *= self.momentum
            v += g
            data -= self.lr * v
        else:
            data -= self.lr * g

    # -- factored --------------------------------------------------------
    def _step_factored(self, p: FactoredParam, rows) -> None:
        if p.pending is None:
            raise RuntimeError(f"no pending gradient for {p.key!r}")
        slots, go = p.pending
        p.pending = None
        h = self._velocity.get(id(p))
        if h is None:
            h = np.zeros_like(p.coef)
            self._velocity[id(p)] = h
        g = p.coef
        if rows is None:
            sel, ci = slice(None), np.arange(g.shape[0])[:, None]
        else:
            sel, ci, slots, go = rows, rows[:, None], slots[rows], go[rows]
        # v = m·v + g_eff with g_eff = (go-scatter)ᵀX + mu·(W − W0) and
        # W − W0 = GᵀX: the whole recurrence lives on the coefficients.
        h[sel] *= self.momentum
        if self.mu:
            h[sel] += self.mu * g[sel]
        # A client's real slots are distinct within a batch; its padding
        # slots all name the zero row and carry zero gradient rows.
        h[ci, slots] += go
        g[sel] -= self.lr * h[sel]

    def step(self, active: np.ndarray | None = None) -> None:
        """Apply one lockstep SGD step to the clients in ``active``."""
        rows = None
        if active is not None and not bool(np.all(active)):
            rows = np.flatnonzero(active)
            if rows.size == 0:
                return
        for p in self.params:
            if isinstance(p, FactoredParam):
                self._step_factored(p, rows)
            else:
                self._step_dense(p, rows)


class BatchedProximalSGD(BatchedSGD):
    """Cohort FedProx step: adds ``mu·(w − w_broadcast)`` per client.

    The anchor is the shared broadcast state the cohort started from —
    for factored weights that is the base itself (so the pull acts on
    the coefficients alone), for dense params the initial value
    recorded at build time.  Values match
    :meth:`repro.nn.optim.ProximalSGD.set_anchor_flat` exactly.
    """

    def __init__(
        self,
        params: Sequence,
        lr: float,
        mu: float,
        momentum: float = 0.0,
    ) -> None:
        super().__init__(params, lr, momentum=momentum)
        if mu < 0:
            raise ValueError(f"mu must be >= 0, got {mu}")
        self.mu = mu


# ----------------------------------------------------------------------
# Builder
# ----------------------------------------------------------------------
def batchable_layers(model: Module) -> "list[tuple[str, Module]] | None":
    """The model's layer list if every layer has a batched mirror.

    Returns ``None`` when any layer lacks one (convolutions, pooling)
    — the caller should fall back to the serial trainer.
    """
    if not isinstance(model, Sequential):
        return None
    layers = []
    for name in model._order:
        child = model._modules[name]
        if isinstance(child, (Linear, Flatten, ReLU)):
            layers.append((name, child))
        else:
            return None
    return layers


def factorable_layer(model: Module) -> "tuple[str, Linear] | None":
    """``(name, layer)`` of the one ``Linear`` that can be factored.

    Only the first parameterised layer sees raw samples, and only when
    every layer before it is a ``Flatten``.  ``None`` when the model has
    no such layer or no batched mirror.
    """
    for name, child in batchable_layers(model) or ():
        if isinstance(child, Linear):
            return name, child
        if not isinstance(child, Flatten):
            return None
    return None


def supports_batched(model: Module) -> bool:
    """True when every layer of the model has a batched mirror; anything
    else routes to the serial reference kernel."""
    return batchable_layers(model) is not None


def build_batched(
    model: Sequential,
    layout,
    n_clients: int,
    broadcast: np.ndarray,
    factored_keys: "set[str] | frozenset[str]" = frozenset(),
    samples: "Sequence[np.ndarray] | None" = None,
) -> tuple[BatchedSequential, np.ndarray]:
    """Build the lockstep mirror of ``model`` for one cohort.

    ``broadcast`` is the packed state every client starts from (one
    row, on ``layout``).  ``factored_keys`` may name the weight of
    :func:`factorable_layer` (any other key raises ``ValueError``); it
    then gets the sample-keyed :class:`FactoredParam`, and ``samples``
    must give each client's distinct scheduled samples for the round as
    an ``(n_c, in_features)`` matrix.  All other parameters are views
    into a fresh ``(n_clients, n_params)`` working plane at the layout
    dtype.  Returns ``(batched_model, plane)``.

    Plane columns belonging to factored keys stay uninitialised — they
    are only written by :func:`flush_cohort` at round end.
    """
    named = batchable_layers(model)
    if named is None:
        raise ValueError(
            f"model {getattr(model, 'arch', type(model).__name__)!r} has no "
            "batched mirror; use the serial trainer"
        )
    dtype = layout.dtype
    factorable = factorable_layer(model)
    allowed = {f"{factorable[0]}.weight"} if factorable is not None else set()
    if set(factored_keys) - allowed:
        raise ValueError(
            f"cannot factor {sorted(set(factored_keys) - allowed)}: only the "
            "first parameterised layer, reached through Flatten layers "
            "alone, sees raw samples"
        )
    if factored_keys and (samples is None or len(samples) != n_clients):
        raise ValueError("a factored first layer needs every client's samples")
    plane = np.empty((n_clients, layout.n_params), dtype=dtype)

    def view(key: str) -> np.ndarray:
        sl = layout.slice_of(key)
        shape = layout.shapes[layout._index[key]]
        return plane[:, sl].reshape((n_clients,) + shape)

    def dense_param(key: str) -> CohortParam:
        data = view(key)
        sl = layout.slice_of(key)
        data[...] = broadcast[sl].reshape(
            layout.shapes[layout._index[key]]
        ).astype(dtype)
        param = CohortParam(key, data)
        param.anchor = broadcast[sl].reshape(
            layout.shapes[layout._index[key]]
        ).astype(dtype)
        return param

    layers: list = []
    first_param_index = model.first_param_index
    if first_param_index is None:
        raise ValueError("model has no parameterised layer")
    for index, (name, child) in enumerate(named):
        if isinstance(child, Linear):
            wkey = f"{name}.weight"
            if wkey in factored_keys:
                sl = layout.slice_of(wkey)
                base = (
                    broadcast[sl]
                    .reshape(layout.shapes[layout._index[wkey]])
                    .astype(dtype)
                )
                weight: CohortParam | FactoredParam = FactoredParam(
                    wkey, base, samples
                )
            else:
                weight = dense_param(wkey)
            bias = dense_param(f"{name}.bias") if child.has_bias else None
            layers.append(
                BatchedLinear(weight, bias, index != first_param_index)
            )
        elif isinstance(child, ReLU):
            layers.append(BatchedActivation())
        elif isinstance(child, Flatten):
            layers.append(BatchedFlatten())
        else:  # pragma: no cover - batchable_layers already filtered
            raise AssertionError(f"unhandled layer {type(child).__name__}")
    return BatchedSequential(layers, first_param_index), plane


def flush_cohort(
    batched: BatchedSequential,
    layout,
    plane: np.ndarray,
) -> None:
    """Complete ``plane``, the cohort's working plane, with every
    client's final state.

    Dense params already live in it; a factored weight materialises
    ``W0 + Gᵀ X`` into its column slice — the deferred equivalent of
    every per-step weight update the serial trainer applied, and the
    only time the cohort's dense per-client weights exist at all.
    """
    for p in batched.params():
        if isinstance(p, FactoredParam):
            p.materialize(plane[:, layout.slice_of(p.key)])
