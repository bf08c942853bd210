"""Network kernels built on the autodiff tensor: dense, norm, attention, RoPE."""
from __future__ import annotations

import math
from functools import lru_cache

import numpy as np

from .tensor import Tensor, softmax

SQRT_2_OVER_PI = float(np.sqrt(2.0 / np.pi))


def dense(x: Tensor, weight: Tensor, bias: Tensor | None = None) -> Tensor:
    if len(x.shape) > 2:
        # one flat GEMM instead of a batched matmul loop
        lead = x.shape[:-1]
        out = x.reshape(-1, x.shape[-1]) @ weight
        out = out.reshape(*lead, weight.shape[-1])
    else:
        out = x @ weight
    if bias is not None:
        out = out + bias
    return out


def gelu(x: Tensor) -> Tensor:
    """tanh-approximation GELU as one autograd node.

    The forward repeats the composed Tensor expression operation by operation
    (constants in x's dtype), so its values are bit-identical to it."""
    a = x.data
    c = a.dtype.type  # Tensor arithmetic casts its constants to the operand's dtype
    th = np.tanh((a + (a * a * a) * c(0.044715)) * c(SQRT_2_OVER_PI))
    out_data = (a * c(0.5)) * (th + c(1.0))

    def backward(g):
        d_inner = (1.0 - th * th) * (SQRT_2_OVER_PI * (1.0 + 3.0 * 0.044715 * (a * a)))
        x._accumulate(g * (0.5 * (th + 1.0) + 0.5 * a * d_inner))

    return Tensor._make(out_data, (x,), backward)


def layer_norm(x: Tensor, gamma: Tensor, beta: Tensor, eps: float = 1e-5) -> Tensor:
    """Layer norm over the last axis as one autograd node (Ba et al. 2016).

    The forward repeats the composed Tensor expression operation by operation:
    each mean is a sum times 1/n, as `Tensor.mean` computes it, so the values
    are bit-identical to it. The backward is the closed form
    dx = (dxhat - mean(dxhat) - xhat * mean(dxhat * xhat)) / std."""
    a = x.data
    inv_n = a.dtype.type(1.0 / a.shape[-1])
    centered = a - a.sum(axis=-1, keepdims=True) * inv_n
    var = (centered * centered).sum(axis=-1, keepdims=True) * inv_n
    std = np.sqrt(var + a.dtype.type(eps))
    xhat = centered / std
    out_data = xhat * gamma.data + beta.data

    def backward(g):
        if gamma.requires_grad:
            gamma._accumulate(g * xhat)
        if beta.requires_grad:
            beta._accumulate(g)
        if x.requires_grad:
            dxhat = g * gamma.data
            mean_d = dxhat.sum(axis=-1, keepdims=True) * inv_n
            mean_dx = (dxhat * xhat).sum(axis=-1, keepdims=True) * inv_n
            x._accumulate((dxhat - mean_d - xhat * mean_dx) / std)

    return Tensor._make(out_data, (x, gamma, beta), backward)


@lru_cache(maxsize=32)
def _rope_tables(n: int, d: int, dtype: np.dtype, base: float) -> tuple[np.ndarray, np.ndarray]:
    """Read-only (n, d) tables for positions 0..n-1: each pair's cosine twice,
    and its sine as (-sin, +sin), so that rotation is x*C + pairswap(x)*S."""
    freqs = 1.0 / (base ** (np.arange(0, d, 2, dtype=np.float64) / d))
    angles = np.arange(n, dtype=np.float64)[:, None] * freqs[None, :]
    cos = np.cos(angles).astype(dtype)
    sin = np.sin(angles).astype(dtype)
    c = np.repeat(cos, 2, axis=-1)
    s = np.stack([-sin, sin], axis=-1).reshape(n, d)
    c.setflags(write=False)
    s.setflags(write=False)
    return c, s


def _pairswap(x: np.ndarray) -> np.ndarray:
    """Swap each (even, odd) pair along the last axis."""
    return x.reshape(*x.shape[:-1], x.shape[-1] // 2, 2)[..., ::-1].reshape(x.shape)


def rope_apply(x: Tensor, positions: np.ndarray, base: float = 10000.0) -> Tensor:
    """Rotary position embedding over the last axis (pairs of even/odd dims).

    x has shape (..., T, d) with d even; positions are T non-negative integers.
    """
    d = x.shape[-1]
    if d % 2 != 0:
        raise ValueError("rope requires an even feature dimension")
    positions = np.asarray(positions)
    if positions.size and (positions.dtype.kind not in "iu" or positions.min() < 0):
        raise ValueError("rope positions must be non-negative integers")
    n = int(positions.max()) + 1 if positions.size else 0
    # a power-of-two table length keeps few tables across ragged lengths
    cos, sin = _rope_tables(1 << max(n - 1, 0).bit_length(), d, x.dtype, float(base))
    c, s = cos[positions], sin[positions]

    def backward(g):
        x._accumulate(g * c + _pairswap(g * s))

    return Tensor._make(x.data * c + _pairswap(x.data) * s, (x,), backward)


def scaled_dot_attention(
    q: Tensor,
    k: Tensor,
    v: Tensor,
    causal: bool = False,
    key_padding_mask: np.ndarray | None = None,
) -> Tensor:
    """Attention over shapes (..., T_q, d) x (..., T_k, d) -> (..., T_q, d_v).

    key_padding_mask is a boolean array over T_k, True for valid keys, that
    broadcasts against the (..., T_q, T_k) scores, e.g. (B, 1, 1, T_k).
    """
    d = q.shape[-1]
    scores = (q @ k.swapaxes(-1, -2)) * (1.0 / np.sqrt(d))
    # masked keys as a boolean that broadcasts against the scores: (T_q, T_k)
    # when causal, otherwise the key padding mask as given
    masked = None
    if causal:
        t_q, t_k = scores.shape[-2], scores.shape[-1]
        masked = np.triu(np.ones((t_q, t_k), dtype=bool), k=1)
    if key_padding_mask is not None:
        invalid = ~np.asarray(key_padding_mask, dtype=bool)
        masked = invalid if masked is None else masked | invalid
    if masked is not None and masked.any():
        # built in the scores' dtype, so fp32 attention stays fp32
        bias = np.where(masked, scores.dtype.type(-1e9), scores.dtype.type(0.0))
        scores = scores + Tensor(bias)
    attn = softmax(scores, axis=-1)
    return attn @ v


def segment_offsets(lengths) -> np.ndarray:
    """Row offsets of segments laid end to end in a flat (N, F) array:
    segment s holds rows offsets[s]:offsets[s + 1], and offsets[-1] = N."""
    offsets = np.zeros(len(lengths) + 1, dtype=np.intp)
    np.cumsum(lengths, out=offsets[1:])
    return offsets


def segment_positions(offsets: np.ndarray) -> np.ndarray:
    """Each row's position inside its segment, restarting at 0 per segment."""
    return np.arange(offsets[-1]) - np.repeat(offsets[:-1], np.diff(offsets))


def segment_attention(q: Tensor, k: Tensor, v: Tensor, q_offsets: np.ndarray,
                      k_offsets: np.ndarray) -> Tensor:
    """Attention inside the segments of packed rows, as one autograd node.

    Shapes are (..., N_q, d) x (..., N_k, d) -> (..., N_q, d_v). Query rows
    q_offsets[s]:q_offsets[s + 1] attend to key rows k_offsets[s]:k_offsets[s + 1]
    only, so nothing is padded and no segment sees another (Dao 2023; Krell et
    al. 2021). Each segment's forward repeats `scaled_dot_attention`'s ops;
    the backward is the closed form, in the inputs' dtype:
    dS = P * (dP - rowsum(dP * P)) * scale, with dP = g V^T.
    """
    if len(q_offsets) != len(k_offsets):
        raise ValueError("query and key offsets must name the same segments")
    if (q_offsets[0] != 0 or k_offsets[0] != 0 or q_offsets[-1] != q.shape[-2]
            or k_offsets[-1] != k.shape[-2] or np.any(np.diff(q_offsets) < 0)
            or np.any(np.diff(k_offsets) < 0)):
        raise ValueError("segment offsets must rise from 0 to the row counts")
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
        dq = np.zeros_like(q.data)
        dk = np.zeros_like(k.data)
        dv = np.zeros_like(v.data)
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


class ParameterSet:
    """Named parameter tensors with gradient slots and EMA shadow copies."""

    def __init__(self, dtype=np.float32, ema_decay: float = 0.9999):
        if not 0.0 <= ema_decay < 1.0:
            raise ValueError("ema decay must lie in [0, 1)")
        self.dtype = dtype
        self.ema_decay = ema_decay
        self._params: dict[str, Tensor] = {}
        self._ema: dict[str, np.ndarray] = {}

    def add(self, name: str, value: np.ndarray) -> Tensor:
        if name in self._params:
            raise KeyError(f"duplicate parameter {name}")
        t = Tensor(np.asarray(value, dtype=self.dtype), requires_grad=True)
        t.name = name
        self._params[name] = t
        self._ema[name] = t.data.copy()
        return t

    def __getitem__(self, name: str) -> Tensor:
        return self._params[name]

    def __contains__(self, name: str) -> bool:
        return name in self._params

    def names(self) -> list[str]:
        return list(self._params)

    def tensors(self) -> list[Tensor]:
        return list(self._params.values())

    def zero_grad(self) -> None:
        for t in self._params.values():
            t.grad = None

    def ema_update(self, decay: float | None = None) -> None:
        d = self.ema_decay if decay is None else decay
        for name, t in self._params.items():
            shadow = self._ema[name]
            shadow *= d
            shadow += (1.0 - d) * t.data

    def ema_value(self, name: str) -> np.ndarray:
        return self._ema[name]

    def swap_in_ema(self) -> dict[str, np.ndarray]:
        """Replace live values with EMA values; returns the originals."""
        saved = {}
        for name, t in self._params.items():
            saved[name] = t.data
            t.data = self._ema[name].copy()
        return saved

    def restore(self, saved: dict[str, np.ndarray]) -> None:
        for name, data in saved.items():
            self._params[name].data = data

    def global_grad_norm(self) -> float:
        """L2 norm over every gradient, each tensor's sum of squares taken in
        its own dtype and added up as a Python float."""
        total = 0.0
        for t in self._params.values():
            if t.grad is not None:
                total += float(np.vdot(t.grad, t.grad))
        return math.sqrt(total)

    def clip_grad_norm(self, max_norm: float) -> float:
        norm = self.global_grad_norm()
        if norm > max_norm and norm > 0:
            scale = max_norm / norm
            for t in self._params.values():
                if t.grad is not None:
                    t.grad = t.grad * scale  # reassign: the buffer may be shared
        return norm


def init_dense(params: ParameterSet, name: str, fan_in: int, fan_out: int,
               rng: np.random.Generator | None, scale: float | None = None,
               zero: bool = False) -> tuple[Tensor, Tensor]:
    """Weight + bias pair; zero=True gives an identity-output head.

    rng=None draws nothing and gives a zero weight, for a model whose
    parameters a checkpoint restore is about to overwrite."""
    if zero or rng is None:
        w = np.zeros((fan_in, fan_out), dtype=params.dtype)
    else:
        std = scale if scale is not None else 1.0 / np.sqrt(fan_in)
        w = rng.normal(0.0, std, size=(fan_in, fan_out))
    weight = params.add(f"{name}.weight", w)
    bias = params.add(f"{name}.bias", np.zeros(fan_out))
    return weight, bias


def init_layer_norm(params: ParameterSet, name: str, dim: int) -> tuple[Tensor, Tensor]:
    gamma = params.add(f"{name}.gamma", np.ones(dim))
    beta = params.add(f"{name}.beta", np.zeros(dim))
    return gamma, beta


def sinusoidal_embedding(values: np.ndarray, dim: int, max_period: float = 10000.0) -> np.ndarray:
    """Classic sinusoidal embedding of scalar positions/timesteps, shape (N, dim)."""
    values = np.atleast_1d(np.asarray(values, dtype=np.float64))
    half = dim // 2
    freqs = np.exp(-np.log(max_period) * np.arange(half) / half)
    args = values[:, None] * freqs[None, :]
    emb = np.concatenate([np.cos(args), np.sin(args)], axis=-1)
    if dim % 2 == 1:
        emb = np.concatenate([emb, np.zeros((emb.shape[0], 1))], axis=-1)
    return emb
