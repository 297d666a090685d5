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
  into a contiguous ``(n_clients, n_params)`` working plane (the same
  layout :mod:`repro.nn.state_flat` defines), forward/backward are
  einsum/``matmul`` batches over the client axis, and the optimiser
  steps directly on the plane.  General: any schedule length, any
  layer mix supported here.
* **Factored** (:class:`FactoredParam`) — exploits that a cohort
  *starts* from one shared state: after ``t`` lockstep steps each
  client's weight is ``a·W0 + Σ_j A_j · (go_jᵀ x_j)`` — the shared
  broadcast base plus a low-rank sum of its own SGD-step outer products.
  Forward/backward then ride **one shared full-cohort GEMM** against
  ``W0`` (far better BLAS shapes than per-client slices) plus cheap
  rank-``batch`` corrections, SGD/momentum/weight-decay/proximal become
  scalar-coefficient recurrences per client, and the dense per-client
  weights are materialised **once** at round end.  Profitable while the
  accumulated rank ``steps × batch`` stays below the layer's smallest
  dimension — exactly the few-local-epochs regime of federated
  simulation.

Both representations produce the same numbers as the serial trainer up
to float summation order (gated by the parity suite in
``tests/test_fl_train_flat.py``); the serial path remains the reference
kernel.

Supported layers: :class:`~repro.nn.layers.linear.Linear`, the
elementwise activations (ReLU/LeakyReLU/Tanh/Sigmoid),
:class:`~repro.nn.layers.dropout.Dropout`,
:class:`~repro.nn.layers.flatten.Flatten`, and softmax cross-entropy.
Convolutional models are *not* batchable here — the cohort trainer
falls back to the serial path for them (see
:mod:`repro.fl.train_flat`).
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from repro.nn.functional import log_softmax, one_hot, softmax
from repro.nn.layers.activation import LeakyReLU, ReLU, Sigmoid, Tanh
from repro.nn.layers.dropout import Dropout
from repro.nn.layers.flatten import Flatten
from repro.nn.layers.linear import Linear
from repro.nn.module import Module, Sequential

__all__ = [
    "CohortParam",
    "FactoredParam",
    "BatchedLinear",
    "BatchedActivation",
    "BatchedFlatten",
    "BatchedDropout",
    "BatchedSequential",
    "BatchedCrossEntropyLoss",
    "BatchedSGD",
    "BatchedProximalSGD",
    "batchable_layers",
    "supports_batched",
    "build_batched",
]

#: Activation classes with a pure elementwise backward, keyed by type.
_ACTIVATION_TYPES = (ReLU, LeakyReLU, Tanh, Sigmoid)


# ----------------------------------------------------------------------
# Cohort parameters: dense plane views and factored shared-base weights
# ----------------------------------------------------------------------
class CohortParam:
    """Dense per-client parameter: a ``(n_clients, *shape)`` array.

    ``data`` is typically a zero-copy view into the cohort's working
    plane (a row-contiguous column slice reshaped per client), so the
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

    def flush_into(self, out: np.ndarray) -> None:
        """Write final per-client values into ``out`` ``(C, size)``."""
        np.copyto(out, self.data.reshape(self.data.shape[0], -1))


class FactoredParam:
    """Factored cohort weight: ``W[c] = a[c]·W0 + Σ_j A[j][c]·(go_jᵀ x_j[c])``.

    ``base`` is the shared broadcast weight ``(out, in)``; every lockstep
    step appends one factor ``(x_j, go_j)`` — the layer input and output
    gradient, whose outer product is that step's weight gradient — and
    the optimiser updates the per-client coefficient vectors instead of
    any dense weight.  ``a`` starts at 1 and stays 1 unless weight decay
    bends the base (the scalar recurrence handles it exactly).
    """

    __slots__ = (
        "key",
        "base",
        "base_t",
        "base_coef",
        "factors_x",
        "factors_go",
        "coefs",
        "pending",
        "mu_anchor_is_base",
    )

    def __init__(self, key: str, base: np.ndarray, n_clients: int) -> None:
        self.key = key
        self.base = np.ascontiguousarray(base)
        # Pre-transposed base for the forward's single shared GEMM.
        self.base_t = np.ascontiguousarray(base.T)
        self.base_coef = np.ones(n_clients, dtype=np.float64)
        self.factors_x: list[np.ndarray] = []  # each (C, B_j, in)
        self.factors_go: list[np.ndarray] = []  # each (C, B_j, out)
        self.coefs: list[np.ndarray] = []  # each (C,) float64
        #: Set by backward; consumed by the optimiser step.
        self.pending: tuple[np.ndarray, np.ndarray] | None = None
        self.mu_anchor_is_base = True

    @property
    def n_clients(self) -> int:
        return self.base_coef.shape[0]

    @property
    def n_factors(self) -> int:
        return len(self.coefs)

    def forward_contribution(self, x: np.ndarray) -> np.ndarray:
        """``x @ W[c].T`` for the whole cohort, shared GEMM + corrections."""
        c, b, in_f = x.shape
        out = np.matmul(x.reshape(c * b, in_f), self.base_t).reshape(c, b, -1)
        if not np.all(self.base_coef == 1.0):
            out *= self.base_coef[:, None, None].astype(out.dtype)
        for x_j, go_j, coef in zip(self.factors_x, self.factors_go, self.coefs):
            if not np.any(coef):
                continue
            # (C,B,in)@(C,in,B_j) -> (C,B,B_j): rank-B_j correction.
            s = np.matmul(x, x_j.transpose(0, 2, 1))
            s *= coef[:, None, None].astype(s.dtype)
            out += np.matmul(s, go_j)
        return out

    def input_grad(self, go: np.ndarray) -> np.ndarray:
        """``go @ W[c]`` for the whole cohort, shared GEMM + corrections."""
        c, b, out_f = go.shape
        gi = np.matmul(go.reshape(c * b, out_f), self.base).reshape(c, b, -1)
        if not np.all(self.base_coef == 1.0):
            gi *= self.base_coef[:, None, None].astype(gi.dtype)
        for x_j, go_j, coef in zip(self.factors_x, self.factors_go, self.coefs):
            if not np.any(coef):
                continue
            s = np.matmul(go, go_j.transpose(0, 2, 1))
            s *= coef[:, None, None].astype(s.dtype)
            gi += np.matmul(s, x_j)
        return gi

    def append_factor(self, x: np.ndarray, go: np.ndarray) -> None:
        """Record this step's gradient factor (coefficient starts at 0)."""
        self.factors_x.append(x)
        self.factors_go.append(go)
        self.coefs.append(np.zeros(self.n_clients, dtype=np.float64))

    def materialize(self, out: np.ndarray) -> None:
        """Write dense per-client weights ``(C, out·in)`` into ``out``.

        The scaled output gradients of every step stack along the sample
        axis, so each client's accumulated delta is one
        ``(out, Σ B_j) @ (Σ B_j, in)`` GEMM — the same flops as the
        per-step weight gradients the serial trainer computed, paid once.
        Runs as a per-client loop with a single reused scratch buffer:
        the scratch stays cache-resident and no cohort-sized dense
        intermediate is ever allocated (the float64 ``out`` rows are the
        only full-cohort weight storage).
        """
        c = self.n_clients
        h, in_f = self.base.shape
        live = [j for j, coef in enumerate(self.coefs) if np.any(coef)]
        base_flat = self.base.reshape(-1)
        if not live:
            if np.all(self.base_coef == 1.0):
                out[...] = base_flat
            else:
                np.multiply(
                    self.base_coef[:, None], base_flat, out=out
                )
            return
        if len(live) == 1:
            j = live[0]
            go_cat = self.factors_go[j] * self.coefs[j][:, None, None].astype(
                self.factors_go[j].dtype
            )
            x_cat = self.factors_x[j]
        else:
            go_cat = np.concatenate(
                [
                    self.factors_go[j]
                    * self.coefs[j][:, None, None].astype(self.factors_go[j].dtype)
                    for j in live
                ],
                axis=1,
            )
            x_cat = np.concatenate([self.factors_x[j] for j in live], axis=1)
        scratch = np.empty((h, in_f), dtype=self.base.dtype)
        base_scaled = np.empty_like(base_flat)
        for i in range(c):
            np.matmul(go_cat[i].T, x_cat[i], out=scratch)
            if self.base_coef[i] == 1.0:
                np.add(scratch.reshape(-1), base_flat, out=out[i])
            else:
                np.multiply(
                    base_flat, self.base.dtype.type(self.base_coef[i]),
                    out=base_scaled,
                )
                np.add(scratch.reshape(-1), base_scaled, out=out[i])

    def release(self) -> None:
        """Drop factor storage (after :meth:`materialize`)."""
        self.factors_x.clear()
        self.factors_go.clear()
        self.coefs.clear()


# ----------------------------------------------------------------------
# Layers
# ----------------------------------------------------------------------
class BatchedLinear:
    """Cohort-batched affine map ``y[c] = x[c] @ W[c].T + b[c]``.

    ``weight`` is either a :class:`CohortParam` holding ``(C, out, in)``
    dense per-client weights or a :class:`FactoredParam`; the bias is
    always dense (``(C, out)`` is tiny).  ``needs_input_grad=False`` on
    the first parameterised layer of a chain skips the input-gradient
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
            out = self.weight.forward_contribution(x)
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
            self.weight.pending = (x, go)
            if not self.needs_input_grad:
                return None
            return self.weight.input_grad(go)
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
    """Elementwise activation over ``(C, B, ...)`` cohort tensors."""

    def __init__(self, kind: str, negative_slope: float = 0.01) -> None:
        if kind not in ("relu", "leaky_relu", "tanh", "sigmoid"):
            raise ValueError(f"unsupported activation kind {kind!r}")
        self.kind = kind
        self.negative_slope = negative_slope
        self._cache: np.ndarray | None = None

    def forward(self, x: np.ndarray) -> np.ndarray:
        if self.kind == "relu":
            mask = x > 0
            self._cache = mask
            return np.where(mask, x, 0)
        if self.kind == "leaky_relu":
            mask = x > 0
            self._cache = mask
            return np.where(mask, x, self.negative_slope * x)
        if self.kind == "tanh":
            out = np.tanh(x)
            self._cache = out
            return out
        out = np.empty_like(x)
        pos = x >= 0
        out[pos] = 1.0 / (1.0 + np.exp(-x[pos]))
        ex = np.exp(x[~pos])
        out[~pos] = ex / (1.0 + ex)
        self._cache = out
        return out

    def backward(self, go: np.ndarray) -> np.ndarray:
        cache = self._cache
        if cache is None:
            raise RuntimeError("backward called before forward")
        self._cache = None
        if self.kind == "relu":
            return np.where(cache, go, 0)
        if self.kind == "leaky_relu":
            return np.where(cache, go, self.negative_slope * go)
        if self.kind == "tanh":
            return go * (1.0 - cache**2)
        return go * cache * (1.0 - cache)

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


class BatchedDropout:
    """Inverted dropout over the cohort tensor.

    Draws one mask for the whole ``(C, B, ...)`` tensor from its own
    generator.  Per-client draws cannot reproduce the serial path's
    stream (the serial scratch model's dropout generator is shared
    across clients in execution order), so models with active dropout
    train correctly but not bit-comparably across executors — exactly
    the existing thread/process-executor caveat.
    """

    def __init__(self, p: float, rng: np.random.Generator) -> None:
        if not 0.0 <= p < 1.0:
            raise ValueError(f"dropout probability must be in [0, 1), got {p}")
        self.p = p
        self.rng = rng
        self._mask: np.ndarray | None = None

    def forward(self, x: np.ndarray) -> np.ndarray:
        if self.p == 0.0:
            self._mask = None
            return x
        keep = 1.0 - self.p
        mask = (self.rng.random(x.shape) < keep).astype(x.dtype) / keep
        self._mask = mask
        return x * mask

    def backward(self, go: np.ndarray) -> np.ndarray:
        if self._mask is None:
            return go
        mask, self._mask = self._mask, None
        return go * mask

    def params(self) -> list:
        return []


class BatchedCrossEntropyLoss:
    """Softmax cross-entropy with per-row weights for ragged padding.

    ``row_weights[c, b]`` is ``1 / n_real`` for a real sample of client
    ``c``'s current batch and ``0`` for a padding row, which makes the
    per-client loss the serial batch *mean* and zeroes padded rows out
    of the gradient — a padded client's update is untouched by padding.
    """

    def __init__(self) -> None:
        self._cache: tuple[np.ndarray, np.ndarray, np.ndarray] | None = None

    def forward(
        self, logits: np.ndarray, targets: np.ndarray, row_weights: np.ndarray
    ) -> np.ndarray:
        """Per-client weighted NLL, shape ``(C,)``."""
        log_probs = log_softmax(logits, axis=2)
        picked = np.take_along_axis(log_probs, targets[:, :, None], axis=2)[:, :, 0]
        self._cache = (logits, targets, row_weights)
        return -(picked * row_weights).sum(axis=1)

    def backward(self) -> np.ndarray:
        if self._cache is None:
            raise RuntimeError("backward called before forward")
        logits, targets, row_weights = self._cache
        self._cache = None
        grad = softmax(logits, axis=2)
        grad -= one_hot(
            targets.reshape(-1), logits.shape[2], dtype=grad.dtype
        ).reshape(grad.shape)
        grad *= row_weights[:, :, None]
        return grad.astype(logits.dtype, copy=False)


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

    def forward(self, x: np.ndarray) -> np.ndarray:
        for layer in self.layers:
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

    Matches :class:`repro.nn.optim.SGD` semantics per client (weight
    decay folded into the gradient before the momentum update), with a
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
        weight_decay: float = 0.0,
    ) -> None:
        if lr <= 0:
            raise ValueError(f"lr must be positive, got {lr}")
        if momentum < 0 or weight_decay < 0:
            raise ValueError("momentum and weight_decay must be >= 0")
        self.params = list(params)
        self.lr = lr
        self.momentum = momentum
        self.weight_decay = weight_decay
        self._velocity: dict[int, np.ndarray] = {}
        # Factored velocity state: base coefficient + per-factor coefs.
        self._f_base: dict[int, np.ndarray] = {}
        self._f_coefs: dict[int, list[np.ndarray]] = {}

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
            # full-plane weight-decay/proximal arithmetic would dominate
            # the step; the selected-row ops are elementwise-identical.
            g = g[rows]
            sel = data[rows]
            if self.weight_decay:
                g = g + self.weight_decay * sel
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
        if self.weight_decay:
            g = g + self.weight_decay * data
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
            raise RuntimeError(f"no pending factor for {p.key!r}")
        x, go = p.pending
        p.pending = None
        p.append_factor(x, go)
        m, wd, mu, lr = self.momentum, self.weight_decay, self.mu, self.lr
        vb = self._f_base.get(id(p))
        if vb is None:
            vb = np.zeros_like(p.base_coef)
            self._f_base[id(p)] = vb
        vcs = self._f_coefs.setdefault(id(p), [])
        while len(vcs) < p.n_factors:
            vcs.append(np.zeros_like(p.base_coef))
        a = p.base_coef
        sel = slice(None) if rows is None else rows
        # Velocity coefficients: v = m·v + g_eff where
        # g_eff = F_t + wd·W + mu·(W − W0); W = a·W0 + Σ A_j F_j.
        vb[sel] = m * vb[sel] + wd * a[sel] + mu * (a[sel] - 1.0)
        couple = wd + mu
        for j in range(p.n_factors - 1):
            vcs[j][sel] = m * vcs[j][sel] + couple * p.coefs[j][sel]
        vcs[-1][sel] = 1.0  # the new factor enters with gradient coefficient 1
        # Parameter coefficients: W ← W − lr·v.
        a[sel] -= lr * vb[sel]
        for j in range(p.n_factors):
            p.coefs[j][sel] -= lr * vcs[j][sel]

    def step(self, active: np.ndarray | None = None) -> None:
        """Apply one lockstep SGD step to the clients in ``active``."""
        rows = None
        if active is not None and not bool(np.all(active)):
            rows = np.flatnonzero(active)
            if rows.size == 0:
                for p in self.params:
                    if isinstance(p, FactoredParam) and p.pending is not None:
                        x, go = p.pending
                        p.pending = None
                        p.append_factor(x, go)
                return
        for p in self.params:
            if isinstance(p, FactoredParam):
                self._step_factored(p, rows)
            else:
                self._step_dense(p, rows)


class BatchedProximalSGD(BatchedSGD):
    """Cohort FedProx step: adds ``mu·(w − w_broadcast)`` per client.

    The anchor is the shared broadcast state the cohort started from —
    for factored weights that is the base itself (the ``mu·(a−1)`` term
    of the coefficient recurrence), for dense params the initial value
    recorded at build time.  Values match
    :meth:`repro.nn.optim.ProximalSGD.set_anchor_flat` exactly.
    """

    def __init__(
        self,
        params: Sequence,
        lr: float,
        mu: float,
        momentum: float = 0.0,
        weight_decay: float = 0.0,
    ) -> None:
        super().__init__(params, lr, momentum=momentum, weight_decay=weight_decay)
        if mu < 0:
            raise ValueError(f"mu must be >= 0, got {mu}")
        self.mu = mu


# ----------------------------------------------------------------------
# Builder
# ----------------------------------------------------------------------
def batchable_layers(model: Module) -> "list[tuple[str, Module]] | None":
    """The model's layer list if every layer has a batched mirror.

    Returns ``None`` when any layer lacks one (convolutions, pooling,
    norms) — the caller should fall back to the serial trainer.
    """
    if not isinstance(model, Sequential):
        return None
    layers = []
    for name in model._order:
        child = model._modules[name]
        if isinstance(
            child, (Linear, Flatten, Dropout) + _ACTIVATION_TYPES
        ):
            layers.append((name, child))
        else:
            return None
    return layers


def supports_batched(model: Module) -> bool:
    """True when the cohort trainer can batch this architecture.

    Requires every layer to have a batched mirror *and* a uniform
    parameter dtype (the cohort plane is one array); anything else
    routes to the serial reference kernel.
    """
    if batchable_layers(model) is None:
        return False
    dtypes = {p.data.dtype for p in model.parameters()}
    return len(dtypes) == 1


def build_batched(
    model: Sequential,
    layout,
    n_clients: int,
    broadcast: np.ndarray,
    factored_keys: "set[str] | frozenset[str]" = frozenset(),
    plane: np.ndarray | None = None,
    dropout_rng: np.random.Generator | None = None,
) -> tuple[BatchedSequential, np.ndarray]:
    """Build the lockstep mirror of ``model`` for one cohort.

    ``broadcast`` is the packed float64 state every client starts from
    (one row, on ``layout``).  Weight keys named in ``factored_keys``
    get the shared-base factored representation; all other parameters
    are materialised as views into a ``(n_clients, n_params)`` working
    plane at the model's parameter dtype (allocated here unless the
    caller passes one to reuse).  Returns ``(batched_model, plane)``.

    Dense plane slices belonging to factored keys stay uninitialised —
    they are only written by :func:`flush_cohort` at round end.
    """
    named = batchable_layers(model)
    if named is None:
        raise ValueError(
            f"model {getattr(model, 'arch', type(model).__name__)!r} has no "
            "batched mirror; use the serial trainer"
        )
    dtypes = {np.dtype(d) for d in layout.dtypes}
    if len(dtypes) != 1:
        raise ValueError(
            f"batched cohorts need a uniform parameter dtype, got {sorted(map(str, dtypes))}"
        )
    dtype = dtypes.pop()
    if plane is None:
        plane = np.empty((n_clients, layout.n_params), dtype=dtype)
    elif plane.shape != (n_clients, layout.n_params) or plane.dtype != dtype:
        raise ValueError(
            f"plane must be {dtype} of shape ({n_clients}, {layout.n_params}), "
            f"got {plane.dtype} {plane.shape}"
        )

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
                    wkey, base, n_clients
                )
            else:
                weight = dense_param(wkey)
            bias = dense_param(f"{name}.bias") if child.has_bias else None
            layers.append(
                BatchedLinear(weight, bias, index != first_param_index)
            )
        elif isinstance(child, ReLU):
            layers.append(BatchedActivation("relu"))
        elif isinstance(child, LeakyReLU):
            layers.append(BatchedActivation("leaky_relu", child.negative_slope))
        elif isinstance(child, Tanh):
            layers.append(BatchedActivation("tanh"))
        elif isinstance(child, Sigmoid):
            layers.append(BatchedActivation("sigmoid"))
        elif isinstance(child, Dropout):
            if dropout_rng is None:
                # Never draw from the template layer's generator — the
                # template is the environment's shared scratch model.
                raise ValueError(
                    "model has dropout; the cohort trainer must supply "
                    "dropout_rng"
                )
            layers.append(BatchedDropout(child.p, dropout_rng))
        elif isinstance(child, Flatten):
            layers.append(BatchedFlatten())
        else:  # pragma: no cover - batchable_layers already filtered
            raise AssertionError(f"unhandled layer {type(child).__name__}")
    return BatchedSequential(layers, first_param_index), plane


def flush_cohort(
    batched: BatchedSequential,
    layout,
    out: np.ndarray,
) -> None:
    """Write every client's final state into ``out`` ``(C, n_params)`` float64.

    Dense params copy their plane views (one cast); factored weights
    materialise ``a·W0 + Σ A_j·(go_jᵀ x_j)`` directly into their column
    slice — the deferred equivalent of every per-step weight update the
    serial trainer applied, and the only time the cohort's dense
    per-client weights exist at all.
    """
    for p in batched.params():
        sl = layout.slice_of(p.key)
        target = out[:, sl]
        if isinstance(p, FactoredParam):
            p.materialize(target)
            p.release()
        else:
            p.flush_into(target)
