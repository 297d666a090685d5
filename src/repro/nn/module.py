"""Module system: the base class every layer and model derives from.

This is a deliberately small re-implementation of the familiar
module-tree idiom: attribute assignment registers child modules and
parameters, ``forward``/``backward`` implement manual backpropagation
(each layer caches what it needs during ``forward``), and
``state_dict``/``load_state_dict`` expose named arrays — the currency of
federated aggregation in :mod:`repro.fl`.

Design notes
------------
* **Manual backprop, not autograd.**  Every layer implements an explicit
  ``backward(grad_output) -> grad_input`` that also accumulates parameter
  gradients.  For the fixed feed-forward architectures this library needs
  (LeNet-5, MLPs, VGG-style stacks), this is simpler, faster, and easier
  to verify with numerical gradient checks than a tape-based autograd.
* **Training backward.**  Nothing reads the gradient with respect to a
  training batch, so the trainers call ``backward(grad, input_grad=False)``:
  a :class:`Sequential` then stops at its first parameterised layer, which
  accumulates its parameter gradients and skips its input gradient (for
  the first convolution of a CNN, the costliest part of the backward).
* **Caching contract.**  ``backward`` must be called right after the
  ``forward`` whose intermediate values it consumes.  The training loop in
  :mod:`repro.fl.client` honours this; the tests enforce it.
* **One flat buffer.**  :meth:`Module.flatten_parameters` (which every
  registered model factory calls) moves the tree's parameters into one
  contiguous buffer and their gradients into a second, in
  :class:`~repro.nn.state_flat.StateLayout` order: each
  ``Parameter.data`` and ``.grad`` is then a view at its layout
  offsets, and :attr:`Module.flat_param` is a :class:`Parameter` over
  the two whole buffers.  A packed row loads with one copy
  (:meth:`load_flat`), a row is emitted with one copy of
  ``flat_param.data``, ``zero_grad`` is one fill, and the optimisers
  step ``flat_param`` as one array.  Layers write parameters and
  gradients in place (``data[...] = ``, ``grad +=``); rebinding
  ``Parameter.data`` or ``.grad`` to a new array detaches it from the
  buffer.  A copied model (pickle, ``copy.deepcopy``) copies each view
  separately: build a new model and load the row instead.
"""

from __future__ import annotations

from collections import OrderedDict
from typing import Iterator

import numpy as np

from repro.nn.parameter import Parameter
from repro.nn.state_flat import StateLayout

__all__ = ["Module", "Sequential"]


class Module:
    """Base class for layers and models."""

    def __init__(self) -> None:
        object.__setattr__(self, "_parameters", OrderedDict())
        object.__setattr__(self, "_modules", OrderedDict())
        object.__setattr__(self, "training", True)
        #: The subtree's parameters and gradients as one flat Parameter,
        #: and their layout (see :meth:`flatten_parameters`); ``None``
        #: until the buffer is built.
        object.__setattr__(self, "flat_param", None)
        object.__setattr__(self, "layout", None)

    # ------------------------------------------------------------------
    # Registration via attribute assignment
    # ------------------------------------------------------------------
    def __setattr__(self, name: str, value: object) -> None:
        if isinstance(value, Parameter):
            self._parameters[name] = value
            if not value.name:
                value.name = name
        elif isinstance(value, Module):
            self._modules[name] = value
        object.__setattr__(self, name, value)

    # ------------------------------------------------------------------
    # Forward / backward
    # ------------------------------------------------------------------
    def forward(self, x: np.ndarray) -> np.ndarray:
        """Compute the layer output for input batch ``x``."""
        raise NotImplementedError

    def backward(self, grad_output: np.ndarray) -> np.ndarray:
        """Propagate ``grad_output`` and accumulate parameter gradients.

        Returns the gradient with respect to this module's input.  A
        module that owns parameters also accepts ``input_grad=False``:
        it then only accumulates its parameter gradients and returns
        ``None`` (see :meth:`Sequential.backward`).
        """
        raise NotImplementedError

    def __call__(self, x: np.ndarray) -> np.ndarray:
        return self.forward(x)

    # ------------------------------------------------------------------
    # Train / eval mode
    # ------------------------------------------------------------------
    def train(self) -> "Module":
        """Switch this module (and children) to training mode."""
        object.__setattr__(self, "training", True)
        for child in self._modules.values():
            child.train()
        return self

    def eval(self) -> "Module":
        """Switch this module (and children) to inference mode."""
        object.__setattr__(self, "training", False)
        for child in self._modules.values():
            child.eval()
        return self

    # ------------------------------------------------------------------
    # Parameter access
    # ------------------------------------------------------------------
    def parameters(self) -> list[Parameter]:
        """All parameters in this subtree, depth-first, registration order."""
        return [p for _, p in self.named_parameters()]

    def named_parameters(self, prefix: str = "") -> Iterator[tuple[str, Parameter]]:
        """Yield ``(qualified_name, parameter)`` pairs, depth-first."""
        for name, param in self._parameters.items():
            yield (f"{prefix}{name}", param)
        for child_name, child in self._modules.items():
            yield from child.named_parameters(prefix=f"{prefix}{child_name}.")

    def named_modules(self, prefix: str = "") -> Iterator[tuple[str, "Module"]]:
        """Yield ``(qualified_name, module)`` pairs including self ('' name)."""
        yield (prefix.rstrip("."), self)
        for child_name, child in self._modules.items():
            yield from child.named_modules(prefix=f"{prefix}{child_name}.")

    def zero_grad(self) -> None:
        """Reset every parameter gradient in the subtree (one fill of
        the gradient buffer once :meth:`flatten_parameters` built it)."""
        if self.flat_param is not None:
            self.flat_param.zero_grad()
            return
        for param in self.parameters():
            param.zero_grad()

    def flatten_parameters(self) -> "Module":
        """Move every parameter and gradient into one buffer pair.

        The values are copied, in :class:`StateLayout` order, into one
        contiguous buffer, and each ``Parameter.data`` and ``.grad`` is
        rebound to its view of that buffer and of a zeroed gradient
        buffer; :attr:`flat_param` holds both whole buffers and
        :attr:`layout` the tree's layout.  Every parameter must share
        one dtype.  Model factories call this once, after the tree is
        assembled and named.
        """
        params = self.parameters()
        if not params:
            raise ValueError("a module without parameters has no buffer")
        layout = StateLayout.from_model(self)  # rejects mixed dtypes
        flat = Parameter(np.concatenate([p.data.reshape(-1) for p in params]))
        for param, lo, hi in zip(params, layout.offsets[:-1], layout.offsets[1:]):
            param.data = flat.data[lo:hi].reshape(param.shape)
            param.grad = flat.grad[lo:hi].reshape(param.shape)
        object.__setattr__(self, "flat_param", flat)
        object.__setattr__(self, "layout", layout)
        return self

    def num_parameters(self) -> int:
        """Total scalar parameter count (the unit of communication cost)."""
        return sum(p.size for p in self.parameters())

    # ------------------------------------------------------------------
    # State dicts — the currency of federated aggregation
    # ------------------------------------------------------------------
    def state_dict(self, copy: bool = True) -> "OrderedDict[str, np.ndarray]":
        """Map fully-qualified parameter names to value arrays.

        ``copy=True`` (default) snapshots the values, so the caller can
        mutate the model without aliasing the returned dict — essential for
        federated round bookkeeping (global model vs. local updates).
        """
        out: OrderedDict[str, np.ndarray] = OrderedDict()
        for name, param in self.named_parameters():
            out[name] = param.data.copy() if copy else param.data
        return out

    def load_state_dict(self, state: dict[str, np.ndarray]) -> None:
        """Load values produced by :meth:`state_dict` (strict key match)."""
        own = dict(self.named_parameters())
        missing = own.keys() - state.keys()
        unexpected = state.keys() - own.keys()
        if missing or unexpected:
            raise KeyError(
                f"state dict mismatch: missing={sorted(missing)}, "
                f"unexpected={sorted(unexpected)}"
            )
        for name, param in own.items():
            param.copy_(state[name])

    def load_flat(self, vector: np.ndarray, layout: StateLayout) -> None:
        """Load a packed parameter vector into the buffer: one copy.

        ``vector`` is a flat buffer laid out per ``layout`` — e.g. one
        row of a packed cohort matrix, or a float64 aggregate, which is
        rounded to the parameter dtype.  Bit-identical to
        ``load_state_dict(unpack_state(vector, layout))``.  Needs the
        buffer (:meth:`flatten_parameters`), and ``layout`` must have
        this tree's keys and shapes.
        """
        own = self.layout
        if own is None:
            raise TypeError("load_flat needs the flat buffer: call flatten_parameters()")
        vector = np.asarray(vector)
        if vector.shape != (layout.n_params,):
            raise ValueError(
                f"vector has shape {vector.shape}, expected ({layout.n_params},)"
            )
        if (layout.keys, layout.shapes) != (own.keys, own.shapes):
            raise KeyError(
                f"layout mismatch: missing={sorted(set(own.keys) - set(layout.keys))}, "
                f"unexpected={sorted(set(layout.keys) - set(own.keys))}, "
                "or keys in another order or of other shapes"
            )
        self.flat_param.data[...] = vector

    def finalize_names(self) -> "Module":
        """Stamp fully-qualified names onto every parameter.

        Called by model factories after the tree is assembled so that
        diagnostics and partial-weight selection (``repro.core.weights``)
        see names like ``"classifier.weight"`` rather than bare ``"weight"``.
        """
        for name, param in self.named_parameters():
            param.name = name
        return self

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        child_reprs = ", ".join(
            f"{name}={type(m).__name__}" for name, m in self._modules.items()
        )
        return f"{type(self).__name__}({child_reprs})"


class Sequential(Module):
    """Feed-forward chain of modules.

    Children may be given explicitly as ``(name, module)`` pairs, or
    anonymously (named by index).  ``backward`` replays the chain in
    reverse, matching the manual-backprop caching contract.

    ``first_param_index``, fixed at construction, is the forward-order
    index of the first child that owns parameters (``None`` if none
    does): the training backward and its batched mirror stop there.
    """

    def __init__(self, *layers: Module | tuple[str, Module]) -> None:
        super().__init__()
        self._order: list[str] = []
        for index, item in enumerate(layers):
            if isinstance(item, tuple):
                name, module = item
            else:
                name, module = str(index), item
            if not isinstance(module, Module):
                raise TypeError(f"layer {name!r} is not a Module: {type(module)}")
            if name in self._modules:
                raise ValueError(f"duplicate layer name {name!r}")
            self._modules[name] = module
            object.__setattr__(self, f"_layer_{name}", module)
            self._order.append(name)
        owners = [i for i, module in enumerate(self.layers()) if module.parameters()]
        self.first_param_index: int | None = owners[0] if owners else None

    def __len__(self) -> int:
        return len(self._order)

    def __getitem__(self, key: int | str) -> Module:
        if isinstance(key, int):
            key = self._order[key]
        return self._modules[key]

    def layers(self) -> list[Module]:
        """The child modules in forward order."""
        return [self._modules[name] for name in self._order]

    def forward(self, x: np.ndarray) -> np.ndarray:
        for name in self._order:
            x = self._modules[name].forward(x)
        return x

    def backward(
        self, grad_output: np.ndarray, input_grad: bool = True
    ) -> np.ndarray | None:
        """Replay the chain in reverse; return the input gradient.

        With ``input_grad=False`` the replay stops at
        ``first_param_index`` and returns ``None``; the parameter
        gradients are bit-identical to the full replay's.
        """
        if input_grad:
            for name in reversed(self._order):
                grad_output = self._modules[name].backward(grad_output)
            return grad_output
        stop = self.first_param_index
        if stop is not None:
            for index in range(len(self._order) - 1, stop, -1):
                grad_output = self._modules[self._order[index]].backward(grad_output)
            self._modules[self._order[stop]].backward(grad_output, input_grad=False)
        return None

    def train(self) -> "Sequential":
        object.__setattr__(self, "training", True)
        for name in self._order:
            self._modules[name].train()
        return self

    def eval(self) -> "Sequential":
        object.__setattr__(self, "training", False)
        for name in self._order:
            self._modules[name].eval()
        return self
