"""From-scratch NumPy deep-learning substrate.

Implements what the FedClust reproduction needs from a deep-learning
framework: a module tree with manual backpropagation, im2col
convolutions, max pooling, ReLU, softmax cross-entropy, SGD (including
the FedProx proximal variant), a model zoo (LeNet-5, MLP, VGG-style
nets), the packed parameter plane client states travel on, and the
batched cohort mirror of the MLP path.
"""

from repro.nn import batched, functional, init, state, state_flat
from repro.nn.layers import Conv2d, Flatten, Linear, MaxPool2d, ReLU
from repro.nn.loss import CrossEntropyLoss
from repro.nn.models import (
    available_models,
    build_model,
    cnn_small,
    final_linear_name,
    lenet5,
    minivgg,
    mlp,
    parameterized_layers,
    vgg16_style,
)
from repro.nn.module import Module, Sequential
from repro.nn.state_flat import (
    StateLayout,
    pack_state,
    pack_states,
    unpack_keys,
    unpack_state,
)
from repro.nn.optim import SGD, ProximalSGD
from repro.nn.parameter import Parameter

__all__ = [
    "batched",
    "functional",
    "init",
    "state",
    "state_flat",
    "StateLayout",
    "pack_state",
    "pack_states",
    "unpack_keys",
    "unpack_state",
    "Conv2d",
    "Flatten",
    "Linear",
    "MaxPool2d",
    "ReLU",
    "CrossEntropyLoss",
    "available_models",
    "build_model",
    "cnn_small",
    "final_linear_name",
    "lenet5",
    "minivgg",
    "mlp",
    "parameterized_layers",
    "vgg16_style",
    "Module",
    "Sequential",
    "SGD",
    "ProximalSGD",
    "Parameter",
]
