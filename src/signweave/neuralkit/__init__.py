"""Minimal differentiable-computation kernel backing the learned components."""
from .tensor import (Tensor, as_tensor, clamp, concat, is_grad_enabled, maximum_const, no_grad,
                     softmax, stack, tensor, where)
from .nn import (
    ParameterSet,
    dense,
    gelu,
    init_dense,
    init_layer_norm,
    layer_norm,
    rope_apply,
    scaled_dot_attention,
    sinusoidal_embedding,
)
from .optim import AdamW, check_finite_loss, cosine_lr
from .checkpoint import load_checkpoint, restore_into, save_checkpoint

__all__ = [
    "AdamW",
    "ParameterSet",
    "Tensor",
    "as_tensor",
    "check_finite_loss",
    "clamp",
    "concat",
    "cosine_lr",
    "dense",
    "gelu",
    "init_dense",
    "init_layer_norm",
    "is_grad_enabled",
    "layer_norm",
    "load_checkpoint",
    "maximum_const",
    "no_grad",
    "restore_into",
    "rope_apply",
    "save_checkpoint",
    "scaled_dot_attention",
    "sinusoidal_embedding",
    "softmax",
    "stack",
    "tensor",
    "where",
]
