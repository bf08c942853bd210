"""The rotary position embedding as it was first written: even/odd slices,
rotated and interleaved back with stack and reshape.

`signweave.neuralkit.rope_apply` computes it as x*C + pairswap(x)*S from
cached tables; tests compare the two, forward and backward, bit for bit.
"""
from __future__ import annotations

import numpy as np

from signweave.neuralkit import Tensor, stack


def slice_rope(x: Tensor, positions: np.ndarray, base: float = 10000.0) -> Tensor:
    d = x.shape[-1]
    freqs = 1.0 / (base ** (np.arange(0, d, 2, dtype=np.float64) / d))
    angles = np.asarray(positions, dtype=np.float64)[:, None] * freqs[None, :]
    cos = np.cos(angles).astype(x.dtype)
    sin = np.sin(angles).astype(x.dtype)

    even = x[..., 0::2]
    odd = x[..., 1::2]
    cos_t, sin_t = Tensor(cos), Tensor(sin)
    r_even = even * cos_t - odd * sin_t
    r_odd = even * sin_t + odd * cos_t
    paired = stack([r_even, r_odd], axis=-1)
    return paired.reshape(*x.shape)
