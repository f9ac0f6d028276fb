"""From-scratch NumPy neural-network library used as the FL model substrate.

The paper trains a Wide ResNet with PyTorch; this package provides the
equivalent building blocks with explicit forward/backward passes so the
whole reproduction runs offline on CPU with only NumPy.

Public surface:

- :class:`Module`, :class:`Sequential`, :class:`Parameter` — module system
  with parameter registration, train/eval modes, and per-parameter freezing.
- Layers: :class:`Linear`, :class:`Conv2d`, :class:`BatchNorm2d`,
  :class:`ReLU`, :class:`MaxPool2d`, :class:`GlobalAvgPool2d`,
  :class:`Flatten`, :class:`BasicBlock`.
- Models: :class:`MLP`, :class:`SmallConvNet`, :class:`WideResNet`.
- Training: :class:`CrossEntropyLoss`, :class:`SGD`.
- Utilities: ``functional`` (softmax/entropy), ``profiling`` (FLOPs),
  ``serialization`` (state dicts), ``fused`` (zero-allocation head-solver
  kernels over cached features).
"""

from repro.nn.module import Module, Parameter, Sequential
from repro.nn.linear import Linear
from repro.nn.conv import Conv2d
from repro.nn.norm import BatchNorm2d
from repro.nn.activations import ReLU
from repro.nn.pooling import GlobalAvgPool2d, MaxPool2d
from repro.nn.flatten import Flatten
from repro.nn.residual import BasicBlock
from repro.nn.mlp import MLP
from repro.nn.cnn import SmallConvNet
from repro.nn.wrn import WideResNet
from repro.nn.losses import CrossEntropyLoss
from repro.nn.optim import SGD
from repro.nn.fused import head_ops

__all__ = [
    "Module",
    "Parameter",
    "Sequential",
    "Linear",
    "Conv2d",
    "BatchNorm2d",
    "ReLU",
    "MaxPool2d",
    "GlobalAvgPool2d",
    "Flatten",
    "BasicBlock",
    "MLP",
    "SmallConvNet",
    "WideResNet",
    "CrossEntropyLoss",
    "head_ops",
    "SGD",
]
