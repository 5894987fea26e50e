"""Forward-mode automatic differentiation on dual numbers.

A scalar ``Dual`` ring, lifted elementary functions, two forward-mode
gradient rules for perceptrons and small MLPs, independent oracles to
check them against, and a training/benchmark harness.
"""

from .dual import Dual, NonFinite
from .model import (
    Gradient,
    Layer,
    Mlp,
    MlpGradient,
    Perceptron,
    Sample,
    SingularSeed,
    forward_dual_ones,
    grad_ones,
    grad_seeded,
    loss,
)
from .oracle import GradReport, compare, grad_backprop, grad_finite_diff
from .trainer import Dataset, TrainConfig, TrainLog, builtin_dataset, sgd_step, train

__all__ = [
    "Dual",
    "Dataset",
    "GradReport",
    "Gradient",
    "Layer",
    "Mlp",
    "MlpGradient",
    "NonFinite",
    "Perceptron",
    "Sample",
    "SingularSeed",
    "TrainConfig",
    "TrainLog",
    "builtin_dataset",
    "compare",
    "forward_dual_ones",
    "grad_backprop",
    "grad_finite_diff",
    "grad_ones",
    "grad_seeded",
    "loss",
    "sgd_step",
    "train",
]

__version__ = "0.1.0"
