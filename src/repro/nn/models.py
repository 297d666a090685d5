"""Model zoo.

All models are built as named :class:`~repro.nn.module.Sequential` chains
so that

* manual backprop is a mechanical reverse traversal,
* parameter names are stable and human-readable
  (``"conv1.weight"``, ``"classifier.bias"``, ...), and
* the *weighted-layer index* used by the paper's Fig. 1 ("Layer 1 (CL)",
  "Layer 16 (FL)") can be resolved generically — see
  :func:`parameterized_layers`.

The paper evaluates LeNet-5 (Table I) and motivates the method with
VGG-16 (Fig. 1).  :func:`vgg16_style` reproduces VGG-16's *layout* —
13 convolutions + 3 fully-connected layers = 16 weighted layers — at a
configurable width so the probe runs in seconds on a CPU.  :func:`mlp`
and :func:`cnn_small` are the small models the benchmarks and the
federated tests train.  Every model is ReLU-activated and max-pooled.
"""

from __future__ import annotations

from typing import Callable, Sequence

import numpy as np

from repro.nn.functional import conv_output_size
from repro.nn.layers import Conv2d, Flatten, Linear, MaxPool2d, ReLU
from repro.nn.module import Module, Sequential

__all__ = [
    "lenet5",
    "mlp",
    "cnn_small",
    "minivgg",
    "vgg16_style",
    "build_model",
    "available_models",
    "parameterized_layers",
    "final_linear_name",
]


def _check_input_shape(input_shape: Sequence[int]) -> tuple[int, int, int]:
    shape = tuple(int(s) for s in input_shape)
    if len(shape) != 3 or min(shape) <= 0:
        raise ValueError(f"input_shape must be (C, H, W) positive, got {input_shape}")
    return shape  # type: ignore[return-value]


def _stamp(model: Sequential, arch: str, input_shape: tuple[int, int, int], n_classes: int) -> Sequential:
    model.arch = arch  # type: ignore[attr-defined]
    model.input_shape = input_shape  # type: ignore[attr-defined]
    model.n_classes = n_classes  # type: ignore[attr-defined]
    # Parameters and gradients become views into one buffer pair in
    # layout order (see repro.nn.module); every model here is one dtype.
    model.finalize_names().flatten_parameters()
    return model


def lenet5(
    input_shape: Sequence[int],
    n_classes: int,
    rng: np.random.Generator,
    dtype: np.dtype | type = np.float32,
) -> Sequential:
    """LeNet-5 (LeCun et al. 1989), the Table I model.

    conv(6,5×5) → pool2 → conv(16,5×5) → pool2 → fc120 → fc84 → classifier.
    28×28 inputs get padding 2 on the first convolution (the classic
    MNIST adaptation); 32×32 inputs need none.
    """
    c, h, w = _check_input_shape(input_shape)
    pad1 = 2 if h < 32 else 0
    h1 = conv_output_size(h, 5, 1, pad1) // 2
    w1 = conv_output_size(w, 5, 1, pad1) // 2
    h2 = conv_output_size(h1, 5, 1, 0) // 2
    w2 = conv_output_size(w1, 5, 1, 0) // 2
    flat = 16 * h2 * w2
    layers: list[tuple[str, Module]] = [
        ("conv1", Conv2d(c, 6, 5, rng, padding=pad1, dtype=dtype)),
        ("act1", ReLU()),
        ("pool1", MaxPool2d(2)),
        ("conv2", Conv2d(6, 16, 5, rng, dtype=dtype)),
        ("act2", ReLU()),
        ("pool2", MaxPool2d(2)),
        ("flatten", Flatten()),
        ("fc1", Linear(flat, 120, rng, dtype=dtype)),
        ("act3", ReLU()),
        ("fc2", Linear(120, 84, rng, dtype=dtype)),
        ("act4", ReLU()),
        ("classifier", Linear(84, n_classes, rng, dtype=dtype)),
    ]
    return _stamp(Sequential(*layers), "lenet5", (c, h, w), n_classes)


def mlp(
    input_shape: Sequence[int],
    n_classes: int,
    rng: np.random.Generator,
    hidden: Sequence[int] = (128, 64),
    dtype: np.dtype | type = np.float32,
) -> Sequential:
    """Flatten → stack of Linear+ReLU → classifier."""
    c, h, w = _check_input_shape(input_shape)
    dims = [c * h * w, *hidden]
    layers: list[tuple[str, Module]] = [("flatten", Flatten())]
    for i in range(len(dims) - 1):
        layers.append((f"fc{i + 1}", Linear(dims[i], dims[i + 1], rng, dtype=dtype)))
        layers.append((f"act{i + 1}", ReLU()))
    layers.append(("classifier", Linear(dims[-1], n_classes, rng, dtype=dtype)))
    return _stamp(Sequential(*layers), "mlp", (c, h, w), n_classes)


def cnn_small(
    input_shape: Sequence[int],
    n_classes: int,
    rng: np.random.Generator,
    width: int = 8,
    fc_dim: int = 32,
    dtype: np.dtype | type = np.float32,
) -> Sequential:
    """Two-conv CNN sized for fast bench-scale federated runs."""
    c, h, w = _check_input_shape(input_shape)
    h1 = conv_output_size(h, 3, 1, 1) // 2
    w1 = conv_output_size(w, 3, 1, 1) // 2
    h2 = conv_output_size(h1, 3, 1, 1) // 2
    w2 = conv_output_size(w1, 3, 1, 1) // 2
    flat = 2 * width * h2 * w2
    layers: list[tuple[str, Module]] = [
        ("conv1", Conv2d(c, width, 3, rng, padding=1, dtype=dtype)),
        ("act1", ReLU()),
        ("pool1", MaxPool2d(2)),
        ("conv2", Conv2d(width, 2 * width, 3, rng, padding=1, dtype=dtype)),
        ("act2", ReLU()),
        ("pool2", MaxPool2d(2)),
        ("flatten", Flatten()),
        ("fc1", Linear(flat, fc_dim, rng, dtype=dtype)),
        ("act3", ReLU()),
        ("classifier", Linear(fc_dim, n_classes, rng, dtype=dtype)),
    ]
    return _stamp(Sequential(*layers), "cnn_small", (c, h, w), n_classes)


def minivgg(
    input_shape: Sequence[int],
    n_classes: int,
    rng: np.random.Generator,
    stage_widths: Sequence[Sequence[int]] = ((8, 8), (16, 16), (32, 32)),
    fc_dims: Sequence[int] = (64,),
    dtype: np.dtype | type = np.float32,
) -> Sequential:
    """VGG-style stack: per stage, (conv3×3-pad1 → ReLU)×k then maxpool2."""
    c, h, w = _check_input_shape(input_shape)
    layers: list[tuple[str, Module]] = []
    in_ch = c
    conv_idx = 0
    for stage, widths in enumerate(stage_widths, start=1):
        for width in widths:
            conv_idx += 1
            layers.append(
                (f"conv{conv_idx}", Conv2d(in_ch, width, 3, rng, padding=1, dtype=dtype))
            )
            layers.append((f"act_c{conv_idx}", ReLU()))
            in_ch = width
        layers.append((f"pool{stage}", MaxPool2d(2)))
        h, w = h // 2, w // 2
        if h == 0 or w == 0:
            raise ValueError(
                f"input {input_shape} too small for {len(stage_widths)} pooling stages"
            )
    layers.append(("flatten", Flatten()))
    dims = [in_ch * h * w, *fc_dims]
    for i in range(len(dims) - 1):
        layers.append((f"fc{i + 1}", Linear(dims[i], dims[i + 1], rng, dtype=dtype)))
        layers.append((f"act_f{i + 1}", ReLU()))
    layers.append(("classifier", Linear(dims[-1], n_classes, rng, dtype=dtype)))
    return _stamp(Sequential(*layers), "minivgg", _check_input_shape(input_shape), n_classes)


def vgg16_style(
    input_shape: Sequence[int],
    n_classes: int,
    rng: np.random.Generator,
    base_width: int = 4,
    fc_width: int = 32,
    dtype: np.dtype | type = np.float32,
) -> Sequential:
    """VGG-16's exact weighted-layer layout at reduced width.

    13 convolutions in stages (2, 2, 3, 3, 3) + 3 fully-connected layers
    = 16 weighted layers, so the paper's Fig. 1 references — Layer 1 (CL),
    Layer 7 (CL), Layer 14 (FL), Layer 16 (FL) — map one-to-one onto
    :func:`parameterized_layers` indices.  ``base_width=4`` scales channel
    counts by 1/16 relative to the real VGG-16 (64 → 4), which preserves
    the depth structure the motivation experiment probes while keeping a
    CPU run in the seconds range.

    Requires spatial input ≥ 32×32 (five pooling halvings).
    """
    c, h, w = _check_input_shape(input_shape)
    if h < 32 or w < 32:
        raise ValueError(f"vgg16_style needs >=32x32 input, got {h}x{w}")
    widths = (
        (base_width, base_width),
        (2 * base_width,) * 2,
        (4 * base_width,) * 3,
        (8 * base_width,) * 3,
        (8 * base_width,) * 3,
    )
    model = minivgg(
        input_shape,
        n_classes,
        rng,
        stage_widths=widths,
        fc_dims=(fc_width, fc_width),
        dtype=dtype,
    )
    model.arch = "vgg16_style"  # type: ignore[attr-defined]
    return model


_REGISTRY: dict[str, Callable[..., Sequential]] = {
    "lenet5": lenet5,
    "mlp": mlp,
    "cnn_small": cnn_small,
    "minivgg": minivgg,
    "vgg16_style": vgg16_style,
}


def available_models() -> list[str]:
    """Names accepted by :func:`build_model`."""
    return sorted(_REGISTRY)


def build_model(
    name: str,
    input_shape: Sequence[int],
    n_classes: int,
    rng: np.random.Generator,
    **kwargs: object,
) -> Sequential:
    """Instantiate a registered architecture by name."""
    if name not in _REGISTRY:
        raise ValueError(f"unknown model {name!r}; options: {available_models()}")
    return _REGISTRY[name](input_shape, n_classes, rng, **kwargs)


def parameterized_layers(model: Module) -> list[tuple[str, Module]]:
    """The weighted layers of ``model`` in forward order.

    Returns ``(qualified_name, module)`` for every module that directly
    owns at least one parameter (convolutions and linears; activations,
    pools and reshapes are skipped).  Index ``i`` in this list is the
    paper's "Layer i+1".
    """
    out = []
    for name, module in model.named_modules():
        if module._parameters:
            out.append((name, module))
    return out


def final_linear_name(model: Module) -> str:
    """Qualified name of the last Linear layer — the classifier.

    This is the layer whose weights FedClust uploads (the paper's
    "strategically selected partial model weights").
    """
    last: str | None = None
    for name, module in model.named_modules():
        if isinstance(module, Linear):
            last = name
    if last is None:
        raise ValueError("model contains no Linear layer")
    return last
