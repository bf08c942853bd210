"""Network kernels built on the autodiff tensor: dense, norm, attention, RoPE."""
from __future__ import annotations

import math
from functools import lru_cache
from typing import NamedTuple

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
def _rope_tables(n: int, d: int, heads: int, dtype: np.dtype, base: float) -> tuple[np.ndarray, np.ndarray]:
    """Read-only (n, heads * d) tables for positions 0..n-1, one d-wide copy
    per head: each pair's cosine twice, and its sine as (-sin, +sin), so that
    rotation is x*C + pairswap(x)*S."""
    freqs = 1.0 / (base ** (np.arange(0, d, 2, dtype=np.float64) / d))
    angles = np.arange(n, dtype=np.float64)[:, None] * freqs[None, :]
    cos = np.cos(angles).astype(dtype)
    sin = np.sin(angles).astype(dtype)
    c = np.tile(np.repeat(cos, 2, axis=-1), heads)
    s = np.tile(np.stack([-sin, sin], axis=-1).reshape(n, d), heads)
    c.setflags(write=False)
    s.setflags(write=False)
    return c, s


def _pairswap(x: np.ndarray) -> np.ndarray:
    """Swap each (even, odd) pair along the last axis."""
    out = np.empty_like(x)
    out[..., 0::2] = x[..., 1::2]
    out[..., 1::2] = x[..., 0::2]
    return out


class RopeTable(NamedTuple):
    """Rotary table rows for rows of `heads` d-wide heads side by side:
    (N, heads * d) cosines C and signed sines S, so that rotating a row x is
    x*C + pairswap(x)*S."""

    cos: np.ndarray
    sin: np.ndarray
    heads: int


def rope_table(positions: np.ndarray, d: int, dtype, heads: int = 1, base: float = 10000.0) -> RopeTable:
    """The rows for `positions` of a d-wide rotary embedding (Su et al. 2021)
    repeated for `heads` heads."""
    if d % 2 != 0:
        raise ValueError("rope requires an even feature dimension")
    positions = np.asarray(positions)
    if positions.size and (positions.dtype.kind not in "iu" or positions.min() < 0):
        raise ValueError("rope positions must be non-negative integers")
    n = int(positions.max()) + 1 if positions.size else 0
    # a power-of-two table length keeps few tables across ragged lengths
    cos, sin = _rope_tables(1 << max(n - 1, 0).bit_length(), d, heads, np.dtype(dtype), float(base))
    return RopeTable(cos[positions], sin[positions], heads)


def _rotate(a: np.ndarray, c: np.ndarray, s: np.ndarray) -> np.ndarray:
    return a * c + _pairswap(a) * s


def _rotate_back(g: np.ndarray, c: np.ndarray, s: np.ndarray) -> np.ndarray:
    """The gradient of `_rotate` for the upstream g."""
    return g * c + _pairswap(g * s)


def rope_rotate(x: Tensor, table: RopeTable) -> Tensor:
    """x (..., N, H*d) rotated row by row by a `rope_table` of N rows and H
    heads. The heads sit side by side in a row, as a dense layer writes
    them, so nothing is reshaped around the rotation."""
    c, s, _ = table
    if x.shape[-2:] != c.shape:
        raise ValueError(f"a rope table of {c.shape} does not fit rows of {x.shape}")

    def backward(g):
        x._accumulate(_rotate_back(g, c, s))

    return Tensor._make(_rotate(x.data, c, s), (x,), backward)


def rope_apply(x: Tensor, positions: np.ndarray, base: float = 10000.0) -> Tensor:
    """Rotary position embedding over the last axis (pairs of even/odd dims).

    x has shape (..., T, d) with d even; positions are T non-negative integers.
    """
    return rope_rotate(x, rope_table(positions, x.shape[-1], x.dtype, base=base))


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


def _heads(a: np.ndarray, heads: int) -> np.ndarray:
    """Rows (N, H*d) seen as (H, N, d), without a copy."""
    return a.reshape(a.shape[0], heads, a.shape[1] // heads).transpose(1, 0, 2)


def segment_attention(q: Tensor, k: Tensor | None, v: Tensor | None, q_offsets: np.ndarray,
                      k_offsets: np.ndarray, rope: RopeTable, key_rope: RopeTable | None = None,
                      rows: np.ndarray | None = None) -> Tensor:
    """Multi-head rotary attention inside the segments of packed rows, as one
    autograd node in row layout.

    q, k and v are (N_q, H*d), (N_k, H*d) and (N_k, H*d_v), each of the H =
    rope.heads heads' columns side by side as a dense layer writes them; the
    output is
    (N_q, H*d_v) in the same layout, so no head is split or merged by a copy.
    With k = v = None, q is a self-attention projection (N_k, 3*H*d) holding
    the queries, keys and values side by side, and `rows` (ascending) picks
    its query rows, all of them when None. Query rows
    q_offsets[s]:q_offsets[s + 1] attend to key rows
    k_offsets[s]:k_offsets[s + 1] only, so nothing is padded and no segment
    sees another (Dao 2023; Krell et al. 2021).

    The queries are rotated by `rope`, the `rope_table` rows of their
    positions; the keys by `key_rope`, or not at all when None, for keys
    rotated already. Each segment's forward repeats
    `scaled_dot_attention`'s ops in place: scores, max, exp, sum, divide. The
    backward is the closed form, in the inputs' dtype:
    dS = P * (dP - rowsum(dP * P)) * scale with dP = g V^T, and each rotation
    turns back as g*C + pairswap(g*S).
    """
    packed = k is None
    if packed != (v is None) or (rows is not None and not packed):
        raise ValueError("give keys and values both, or neither and a packed projection")
    if rows is not None and np.any(np.diff(rows) <= 0):
        raise ValueError("query rows must rise")
    if packed:
        source = q.data
        width = source.shape[-1] // 3
        qa = source[:, :width] if rows is None else source[rows, :width]
        ka, va = source[:, width : 2 * width], source[:, 2 * width :]
    else:
        qa, ka, va = q.data, k.data, v.data
    if len(q_offsets) != len(k_offsets):
        raise ValueError("query and key offsets must name the same segments")
    if (q_offsets[0] != 0 or k_offsets[0] != 0 or q_offsets[-1] != qa.shape[0]
            or k_offsets[-1] != ka.shape[0] or np.any(np.diff(q_offsets) < 0)
            or np.any(np.diff(k_offsets) < 0)):
        raise ValueError("segment offsets must rise from 0 to the row counts")
    c, s, heads = rope
    if c.shape != qa.shape or ka.shape[-1] != qa.shape[-1] or (
            key_rope is not None and (key_rope.cos.shape != ka.shape or key_rope.heads != heads)):
        raise ValueError(f"rope tables of {c.shape} do not fit queries of {qa.shape} and keys of {ka.shape}")
    qr = _rotate(qa, c, s)
    kr = ka if key_rope is None else _rotate(ka, key_rope.cos, key_rope.sin)
    qh, kh, vh = _heads(qr, heads), _heads(kr, heads), _heads(va, heads)
    # (H, d, N_k): the score GEMMs read the keys fastest in this layout
    kt = np.ascontiguousarray(kh.transpose(0, 2, 1))
    scale = qa.dtype.type(1.0 / np.sqrt(qa.shape[-1] // heads))
    out_data = np.empty((qa.shape[0], va.shape[-1]), dtype=qa.dtype)
    out_heads = _heads(out_data, heads)
    spans, probs = [], []
    for q0, q1, k0, k1 in zip(q_offsets[:-1], q_offsets[1:], k_offsets[:-1], k_offsets[1:]):
        if q1 == q0:
            continue
        p = qh[:, q0:q1] @ kt[:, :, k0:k1]
        p *= scale
        # a maximum is exact whichever way it is found; fmax skips max's NaN
        # bookkeeping (a NaN score still makes its whole row NaN)
        p -= np.fmax.reduce(p, axis=-1, keepdims=True)
        np.exp(p, out=p)
        p /= p.sum(axis=-1, keepdims=True)
        np.matmul(p, vh[:, k0:k1], out=out_heads[:, q0:q1])
        spans.append((q0, q1, k0, k1))
        probs.append(p)

    def backward(g):
        grad = np.zeros_like(source) if packed else None
        dqr = np.empty_like(qr)  # every query row lies in a segment
        dkr = np.zeros_like(kr)  # key rows that no query sees get no gradient
        dv = grad[:, 2 * width :] if packed else np.zeros_like(va)
        gh, dqh, dkh, dvh = _heads(g, heads), _heads(dqr, heads), _heads(dkr, heads), _heads(dv, heads)
        for (q0, q1, k0, k1), p in zip(spans, probs):
            gs = gh[:, q0:q1]
            np.matmul(p.transpose(0, 2, 1), gs, out=dvh[:, k0:k1])
            dp = gs @ vh[:, k0:k1].transpose(0, 2, 1)
            ds = p * (dp - (dp * p).sum(axis=-1, keepdims=True))
            ds *= scale
            np.matmul(ds, kh[:, k0:k1], out=dqh[:, q0:q1])
            np.matmul(ds.transpose(0, 2, 1), qh[:, q0:q1], out=dkh[:, k0:k1])
        dq = _rotate_back(dqr, c, s)
        dk = dkr if key_rope is None else _rotate_back(dkr, key_rope.cos, key_rope.sin)
        if packed:
            grad[slice(None) if rows is None else rows, :width] = dq
            grad[:, width : 2 * width] = dk
            q._accumulate(grad)
            return
        for t, t_grad in ((q, dq), (k, dk), (v, dv)):
            if t.requires_grad:
                t._accumulate(t_grad)

    return Tensor._make(out_data, (q,) if packed else (q, k, v), backward)


class ParameterSet:
    """Named parameter tensors with gradient slots and, unless `ema_decay` is
    None, EMA shadow copies. A set without shadows has no `ema_update`,
    `ema_value` or `swap_in_ema`, and its checkpoint holds no EMA records."""

    def __init__(self, dtype=np.float32, ema_decay: float | None = 0.9999):
        if ema_decay is not None and not 0.0 <= ema_decay < 1.0:
            raise ValueError("ema decay must lie in [0, 1)")
        self.dtype = dtype
        self.ema_decay = ema_decay
        self.keeps_ema = ema_decay is not None
        self._params: dict[str, Tensor] = {}
        self._ema: dict[str, np.ndarray] = {}

    def add(self, name: str, value: np.ndarray) -> Tensor:
        if name in self._params:
            raise KeyError(f"duplicate parameter {name}")
        t = Tensor(np.asarray(value, dtype=self.dtype), requires_grad=True)
        t.name = name
        self._params[name] = t
        if self.keeps_ema:
            # a `placeholder` is its own shadow until `restore_into` replaces both
            is_placeholder = not t.data.flags.writeable and not any(t.data.strides)
            self._ema[name] = t.data if is_placeholder else t.data.copy()
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

    def _need_ema(self) -> None:
        if not self.keeps_ema:
            raise ValueError("this parameter set keeps no EMA shadows (ema_decay=None)")

    def ema_update(self, decay: float | None = None) -> None:
        self._need_ema()
        d = self.ema_decay if decay is None else decay
        for name, t in self._params.items():
            shadow = self._ema[name]
            shadow *= d
            shadow += (1.0 - d) * t.data

    def ema_value(self, name: str) -> np.ndarray:
        self._need_ema()
        return self._ema[name]

    def swap_in_ema(self) -> dict[str, np.ndarray]:
        """Replace live values with EMA values; returns the originals."""
        self._need_ema()
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


def placeholder(shape: tuple[int, ...], dtype) -> np.ndarray:
    """Read-only zeros of `shape` that own no memory: the value of a
    parameter that a checkpoint restore (`restore_into`) is about to replace.
    Every element is the one zero of an immutable buffer (all strides 0),
    which is a few times cheaper to make than `np.broadcast_to`."""
    dtype = np.dtype(dtype)
    return np.ndarray(shape, dtype, buffer=bytes(dtype.itemsize), strides=(0,) * len(shape))


def init_dense(params: ParameterSet, name: str, fan_in: int, fan_out: int,
               rng: np.random.Generator | None, scale: float | None = None,
               zero: bool = False) -> tuple[Tensor, Tensor]:
    """Weight + bias pair; zero=True gives an identity-output head.

    rng=None draws nothing and gives placeholders, for a model whose
    parameters a checkpoint restore is about to replace."""
    if rng is None:
        w, b = placeholder((fan_in, fan_out), params.dtype), placeholder((fan_out,), params.dtype)
    else:
        if zero:
            w = np.zeros((fan_in, fan_out), dtype=params.dtype)
        else:
            std = scale if scale is not None else 1.0 / np.sqrt(fan_in)
            w = rng.normal(0.0, std, size=(fan_in, fan_out))
        b = np.zeros(fan_out)
    return params.add(f"{name}.weight", w), params.add(f"{name}.bias", b)


def init_layer_norm(params: ParameterSet, name: str, dim: int,
                    rng: np.random.Generator | None) -> tuple[Tensor, Tensor]:
    """Gain and shift, ones and zeros. A layer norm draws nothing; rng=None
    marks a model built for a checkpoint restore, as in `init_dense`, and
    gives placeholders."""
    if rng is None:
        return (params.add(f"{name}.gamma", placeholder((dim,), params.dtype)),
                params.add(f"{name}.beta", placeholder((dim,), params.dtype)))
    return params.add(f"{name}.gamma", np.ones(dim)), params.add(f"{name}.beta", np.zeros(dim))


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
