"""Fused kernels as they were first written: compositions of Tensor
operations and narrower nodes.

`signweave.neuralkit.layer_norm` and `gelu` are single nodes with a
closed-form backward, and `segment_attention` is one node for a whole
multi-head rotary attention sublayer in row layout. Tests compare them with
these: the forward bit for bit, the gradients within the rounding of their
dtype.
"""
from __future__ import annotations

import numpy as np

from signweave.neuralkit import Tensor, rope_apply
from signweave.neuralkit.nn import SQRT_2_OVER_PI


def composed_gelu(x: Tensor) -> Tensor:
    inner = (x + (x**3) * 0.044715) * SQRT_2_OVER_PI
    return x * 0.5 * (inner.tanh() + 1.0)


def composed_layer_norm(x: Tensor, gamma: Tensor, beta: Tensor, eps: float = 1e-5) -> Tensor:
    mu = x.mean(axis=-1, keepdims=True)
    centered = x - mu
    var = (centered**2).mean(axis=-1, keepdims=True)
    return centered / (var + eps).sqrt() * gamma + beta


def headwise_segment_attention(q: Tensor, k: Tensor, v: Tensor, q_offsets: np.ndarray,
                               k_offsets: np.ndarray) -> Tensor:
    """Attention inside packed segments over head-major (H, N, d) arrays, one
    node with a closed-form backward and a copy of each segment's result."""
    scale = q.dtype.type(1.0 / np.sqrt(q.shape[-1]))
    out_data = np.empty(q.shape[:-1] + v.shape[-1:], dtype=q.dtype)
    spans, probs = [], []
    for q0, q1, k0, k1 in zip(q_offsets[:-1], q_offsets[1:], k_offsets[:-1], k_offsets[1:]):
        if q1 == q0:
            continue
        scores = (q.data[..., q0:q1, :] @ np.swapaxes(k.data[..., k0:k1, :], -1, -2)) * scale
        exps = np.exp(scores - scores.max(axis=-1, keepdims=True))
        p = exps / exps.sum(axis=-1, keepdims=True)
        out_data[..., q0:q1, :] = p @ v.data[..., k0:k1, :]
        spans.append((q0, q1, k0, k1))
        probs.append(p)

    def backward(g):
        dq, dk, dv = np.zeros_like(q.data), np.zeros_like(k.data), np.zeros_like(v.data)
        for (q0, q1, k0, k1), p in zip(spans, probs):
            gs = g[..., q0:q1, :]
            dv[..., k0:k1, :] = np.swapaxes(p, -1, -2) @ gs
            dp = gs @ np.swapaxes(v.data[..., k0:k1, :], -1, -2)
            ds = p * (dp - (dp * p).sum(axis=-1, keepdims=True))
            ds *= scale
            dq[..., q0:q1, :] = ds @ k.data[..., k0:k1, :]
            dk[..., k0:k1, :] = np.swapaxes(ds, -1, -2) @ q.data[..., q0:q1, :]
        for t, grad in ((q, dq), (k, dk), (v, dv)):
            if t.requires_grad:
                t._accumulate(grad)

    return Tensor._make(out_data, (q, k, v), backward)


def split_heads(x: Tensor, heads: int) -> Tensor:
    """(N, H*d) rows -> (H, N, d), as a copying reshape and transpose."""
    return x.reshape(x.shape[0], heads, x.shape[1] // heads).transpose(1, 0, 2)


def merge_heads(x: Tensor) -> Tensor:
    """(H, N, d) -> (N, H*d) rows."""
    return x.transpose(1, 0, 2).reshape(x.shape[1], x.shape[0] * x.shape[2])


def composed_segment_attention(q: Tensor, k: Tensor, v: Tensor, heads: int, q_offsets: np.ndarray,
                               k_offsets: np.ndarray, positions: np.ndarray,
                               key_positions: np.ndarray | None = None) -> Tensor:
    """The denoiser's attention chain before it was one node: split heads,
    `rope_apply` on the queries (and the keys when given their positions),
    head-major segment attention, merge heads."""
    q = rope_apply(split_heads(q, heads), positions)
    k = split_heads(k, heads)
    if key_positions is not None:
        k = rope_apply(k, key_positions)
    return merge_heads(headwise_segment_attention(q, k, split_heads(v, heads), q_offsets, k_offsets))
