"""Layer catalogue."""

from repro.nn.layers.activation import ReLU
from repro.nn.layers.conv import Conv2d
from repro.nn.layers.flatten import Flatten
from repro.nn.layers.linear import Linear
from repro.nn.layers.pool import MaxPool2d

__all__ = [
    "ReLU",
    "Conv2d",
    "Flatten",
    "Linear",
    "MaxPool2d",
]
