"""From-scratch NumPy neural-network library used as the FL model substrate.

The paper trains a Wide ResNet with PyTorch; this package provides the
equivalent building blocks with explicit forward/backward passes so the
whole reproduction runs offline on CPU with only NumPy.

Public surface:

- :class:`Module`, :class:`Sequential`, :class:`Parameter` — module system
  with parameter registration, train/eval modes, and per-parameter freezing.
- Layers: :class:`Linear`, :class:`Conv2d`, :class:`BatchNorm1d`,
  :class:`BatchNorm2d`, :class:`ReLU`, :class:`Tanh`, :class:`LeakyReLU`,
  :class:`MaxPool2d`, :class:`AvgPool2d`, :class:`GlobalAvgPool2d`,
  :class:`Flatten`, :class:`Dropout`, :class:`BasicBlock`.
- Models: :class:`MLP`, :class:`SmallConvNet`, :class:`WideResNet`.
- Training: :class:`CrossEntropyLoss`, :class:`SGD`, LR schedules.
- Utilities: ``functional`` (softmax/entropy), ``profiling`` (FLOPs),
  ``serialization`` (state dicts), ``gradcheck`` (numerical gradients),
  ``fused`` (zero-allocation head-solver kernels over cached features).
"""

from repro.nn.module import Module, Parameter, Sequential
from repro.nn.linear import Linear
from repro.nn.conv import Conv2d
from repro.nn.norm import BatchNorm1d, BatchNorm2d
from repro.nn.activations import LeakyReLU, ReLU, Tanh
from repro.nn.pooling import AvgPool2d, GlobalAvgPool2d, MaxPool2d
from repro.nn.flatten import Flatten
from repro.nn.dropout import Dropout
from repro.nn.residual import BasicBlock
from repro.nn.mlp import MLP
from repro.nn.cnn import SmallConvNet
from repro.nn.wrn import WideResNet
from repro.nn.losses import CrossEntropyLoss
from repro.nn.optim import SGD, ConstantLR, CosineLR, StepLR
from repro.nn.fused import head_ops

__all__ = [
    "Module",
    "Parameter",
    "Sequential",
    "Linear",
    "Conv2d",
    "BatchNorm1d",
    "BatchNorm2d",
    "ReLU",
    "Tanh",
    "LeakyReLU",
    "MaxPool2d",
    "AvgPool2d",
    "GlobalAvgPool2d",
    "Flatten",
    "Dropout",
    "BasicBlock",
    "MLP",
    "SmallConvNet",
    "WideResNet",
    "CrossEntropyLoss",
    "head_ops",
    "SGD",
    "ConstantLR",
    "CosineLR",
    "StepLR",
]
