"""Layer norm and GELU as they were first written: compositions of Tensor
operations, one autograd node per operation.

`signweave.neuralkit.layer_norm` and `gelu` are single nodes with a
closed-form backward. Tests compare them with these: the forward bit for bit,
the gradients within the rounding of their dtype.
"""
from __future__ import annotations

from signweave.neuralkit import Tensor
from signweave.neuralkit.nn import SQRT_2_OVER_PI


def composed_gelu(x: Tensor) -> Tensor:
    inner = (x + (x**3) * 0.044715) * SQRT_2_OVER_PI
    return x * 0.5 * (inner.tanh() + 1.0)


def composed_layer_norm(x: Tensor, gamma: Tensor, beta: Tensor, eps: float = 1e-5) -> Tensor:
    mu = x.mean(axis=-1, keepdims=True)
    centered = x - mu
    var = (centered**2).mean(axis=-1, keepdims=True)
    return centered / (var + eps).sqrt() * gamma + beta
