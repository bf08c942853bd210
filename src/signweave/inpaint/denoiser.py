"""Conditional Transformer denoiser predicting clean motion from a noisy target.

The noisy target stream is decoded with RoPE self-attention and cross-attention
over conditioning tokens projected from the clean duration-adjusted input; the
output is produced by part-specific heads (a deeper one for the hands).
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .. import neuralkit as nk
from ..neuralkit import ParameterSet, Tensor
from ..motion import PartLayout


@dataclass(frozen=True)
class DenoiserConfig:
    motion_dim: int = 206
    latent: int = 64
    layers: int = 2
    heads: int = 4
    ffn: int = 128
    hand_head_depth: int = 2
    dtype: type = np.float32


def _group_slices(layout: PartLayout) -> dict[str, tuple[int, int]]:
    """Contiguous (start, stop) slice per coarse group, in feature order."""
    slices = {}
    for group in ("body", "face", "hand"):
        idx = layout.group_indices(group)
        if not np.array_equal(idx, np.arange(idx[0], idx[-1] + 1)):
            raise ValueError(f"group {group} is not contiguous in this layout")
        slices[group] = (int(idx[0]), int(idx[-1]) + 1)
    ordered = sorted(slices.items(), key=lambda kv: kv[1][0])
    if [k for k, _ in ordered] != ["body", "face", "hand"]:
        raise ValueError("expected body/face/hand group order along the feature axis")
    return slices


class Denoiser:
    """seed=None builds zero parameters without drawing them, for
    `restore_into` to fill from a checkpoint."""

    def __init__(self, cfg: DenoiserConfig = DenoiserConfig(), layout: PartLayout | None = None,
                 seed: int | None = 0):
        self.cfg = cfg
        self.layout = layout if layout is not None else PartLayout.base()
        if self.layout.dim != cfg.motion_dim:
            raise ValueError("layout dim does not match motion_dim")
        self.group_slices = _group_slices(self.layout)
        self.params = ParameterSet(dtype=cfg.dtype)
        rng = None if seed is None else np.random.default_rng(seed)
        h = cfg.latent
        p = self.params
        self._in_proj = nk.init_dense(p, "in_proj", cfg.motion_dim, h, rng)
        self._cond_proj = nk.init_dense(p, "cond_proj", cfg.motion_dim, h, rng)
        self._mask_embed = p.add("mask_embed", np.zeros((2, h)) if rng is None
                                 else rng.normal(0.0, 0.02, size=(2, h)))
        self._t1 = nk.init_dense(p, "time.0", h, h, rng)
        self._t2 = nk.init_dense(p, "time.1", h, h, rng)
        self._blocks = []
        for i in range(cfg.layers):
            blk = {
                "ln1": nk.init_layer_norm(p, f"blk{i}.ln1", h),
                "qkv": nk.init_dense(p, f"blk{i}.qkv", h, 3 * h, rng),
                "self_out": nk.init_dense(p, f"blk{i}.self_out", h, h, rng),
                "ln_x": nk.init_layer_norm(p, f"blk{i}.ln_x", h),
                "q": nk.init_dense(p, f"blk{i}.q", h, h, rng),
                "kv": nk.init_dense(p, f"blk{i}.kv", h, 2 * h, rng),
                "cross_out": nk.init_dense(p, f"blk{i}.cross_out", h, h, rng),
                "ln2": nk.init_layer_norm(p, f"blk{i}.ln2", h),
                "ff1": nk.init_dense(p, f"blk{i}.ff1", h, cfg.ffn, rng),
                "ff2": nk.init_dense(p, f"blk{i}.ff2", cfg.ffn, h, rng),
            }
            self._blocks.append(blk)
        self._ln_final = nk.init_layer_norm(p, "ln_final", h)
        self._heads = {}
        for group, (lo, hi) in self.group_slices.items():
            depth = cfg.hand_head_depth if group == "hand" else 1
            layers = []
            for d in range(depth - 1):
                layers.append(nk.init_dense(p, f"head.{group}.{d}", h, h, rng))
            # the output is the conditioning plus the heads' correction, so the
            # zero-initialized heads start from the copy solution and learn
            # only the refinement
            layers.append(nk.init_dense(p, f"head.{group}.out", h, hi - lo, rng, zero=True))
            self._heads[group] = layers
        self._cond_cache = None

    def _conditioning(self, cond: np.ndarray, mask: np.ndarray, lengths: tuple[int, ...],
                      rope: nk.RopeTable) -> tuple[list, Tensor, Tensor]:
        """What the pairs contribute whatever the noise level: each block's
        cross-attention keys (rotated by `rope`, the pairs' rope table) and
        values over the conditioning frames, in row layout, the mask
        embedding, and the residual.

        Outside inference mode it is built afresh for autograd. Under
        `nk.no_grad` it is kept for the last (cond, mask, lengths) and reused
        while every parameter array is the same object: optimizer steps, EMA
        swaps and restores, and `restore_into` all assign new arrays.
        """
        cond = np.asarray(cond)
        mask_idx = (np.asarray(mask) > 0.5).astype(int)
        inference = not nk.is_grad_enabled()
        if inference:
            state = tuple(t.data for t in self.params.tensors())
            if self._cond_cache is not None:
                c, m, n, s, built = self._cond_cache
                if (n == lengths and np.array_equal(c, cond) and np.array_equal(m, mask_idx)
                        and all(a is b for a, b in zip(s, state))):
                    return built

        cfg = self.cfg
        dtype = self.params.dtype
        memory = nk.dense(nk.tensor(np.asarray(cond, dtype=dtype)), *self._cond_proj)
        cross_kv = []
        for blk in self._blocks:
            kv = nk.dense(memory, *blk["kv"])
            # the conditioning stream is duration-aligned with the target, so
            # rotary positions let cross-attention localize boundary frames
            cross_kv.append((nk.rope_rotate(kv[:, : cfg.latent], rope), kv[:, cfg.latent :]))
        built = (cross_kv, self._mask_embed[mask_idx], Tensor(np.asarray(cond, dtype=dtype)))
        if inference:
            # holding the parameter arrays keeps their ids from being reused
            self._cond_cache = (cond.copy(), mask_idx, lengths, state, built)
        return built

    def forward(
        self,
        x_t: np.ndarray,
        t: int | list[int],
        cond: np.ndarray,
        mask: np.ndarray,
        rows: np.ndarray | None = None,
        lengths: list[int] | tuple[int, ...] | None = None,
    ) -> Tensor:
        """Clean-motion prediction, (N, D), or (len(rows), D) for the given rows.

        x_t, cond and mask may hold several pairs laid end to end, of
        `lengths` frames each (one pair when None). Dense layers, norms, GELU
        and the heads run once over all rows; attention stays inside each
        pair, whose RoPE positions restart at 0. `t` is one timestep for every
        pair or a sequence of one per pair.

        Each attention sublayer is one `nk.segment_attention` node in row
        layout: self-attention takes the packed query-key-value projection and
        rotates its queries and keys from one RoPE table gathered per forward;
        cross-attention rotates its queries and reads the keys `_conditioning`
        rotated once per conditioning. Training and `predict_rows` run this
        same path.

        With `rows` (ascending indices into the N frames), the last block's
        queries, its FFN, the final norm and the heads run on those rows only;
        keys and values still cover every frame. Training and `predict_rows`
        both pass the rows inside the mask, the only ones the loss and DDIM
        composition read.
        """
        cfg = self.cfg
        dtype = self.params.dtype
        lengths = (x_t.shape[0],) if lengths is None else tuple(int(n) for n in lengths)
        offsets = nk.segment_offsets(lengths)
        if offsets[-1] != x_t.shape[0]:
            raise ValueError(f"pair lengths {lengths} do not add up to {x_t.shape[0]} frames")
        positions = nk.segment_positions(offsets)
        rope = nk.rope_table(positions, cfg.latent // cfg.heads, dtype, heads=cfg.heads)
        cross_kv, mask_emb, residual = self._conditioning(cond, mask, lengths, rope)

        tok = nk.dense(nk.tensor(np.asarray(x_t, dtype=dtype)), *self._in_proj)
        steps = np.atleast_1d(np.asarray(t, dtype=np.float64))
        if len(steps) not in (1, len(lengths)):
            raise ValueError(f"{len(steps)} timesteps for {len(lengths)} pairs")
        t_emb = nk.tensor(nk.sinusoidal_embedding(steps, cfg.latent).astype(dtype))
        t_emb = nk.dense(nk.gelu(nk.dense(t_emb, *self._t1)), *self._t2)
        if len(steps) > 1:
            t_emb = t_emb[np.repeat(np.arange(len(steps)), lengths)]
        x = tok + t_emb + mask_emb

        q_offsets, q_rope, q_rows = offsets, rope, None
        last = len(self._blocks) - 1
        for i, (blk, (cross_k, cross_v)) in enumerate(zip(self._blocks, cross_kv)):
            normed = nk.layer_norm(x, *blk["ln1"])
            qkv = nk.dense(normed, *blk["qkv"])
            if i == last and rows is not None:
                x, q_rows = x[rows], rows
                q_offsets = np.searchsorted(rows, offsets)
                q_rope = nk.rope_table(positions[rows], cfg.latent // cfg.heads, dtype, heads=cfg.heads)
            attn = nk.segment_attention(qkv, None, None, q_offsets, offsets, q_rope, key_rope=rope, rows=q_rows)
            x = x + nk.dense(attn, *blk["self_out"])

            normed = nk.layer_norm(x, *blk["ln_x"])
            cross = nk.segment_attention(nk.dense(normed, *blk["q"]), cross_k, cross_v, q_offsets, offsets, q_rope)
            x = x + nk.dense(cross, *blk["cross_out"])

            normed = nk.layer_norm(x, *blk["ln2"])
            x = x + nk.dense(nk.gelu(nk.dense(normed, *blk["ff1"])), *blk["ff2"])

        x = nk.layer_norm(x, *self._ln_final)
        outputs = []
        for group in ("body", "face", "hand"):
            h = x
            layers = self._heads[group]
            for w, b in layers[:-1]:
                h = nk.gelu(nk.dense(h, w, b))
            outputs.append(nk.dense(h, *layers[-1]))
        return nk.concat(outputs, axis=-1) + (residual if rows is None else residual[rows])

    def predict_rows(self, x_t: np.ndarray, t: int, cond: np.ndarray, mask) -> tuple[np.ndarray, np.ndarray]:
        """Inference-mode clean-motion prediction of the rows inside the mask
        (values > 0.5), the ones DDIM composition keeps: their indices and
        their predictions as a float64 array.

        `mask` is the mask values, or a mask object (`InpaintMask`,
        `PackedMask`) whose `values` and `lengths` say where each pair of a
        packed x_t starts.
        """
        values = np.asarray(getattr(mask, "values", mask))
        rows = np.flatnonzero(values > 0.5)
        with nk.no_grad():
            pred = self.forward(x_t, t, cond, values, rows=rows, lengths=getattr(mask, "lengths", None)).data
        return rows, pred.astype(np.float64, copy=False)

    def predict_x0(self, x_t: np.ndarray, t: int, cond: np.ndarray, mask) -> np.ndarray:
        """`predict_rows` as a plain float64 array of every row: the rows
        outside the mask are returned as `cond`."""
        rows, pred = self.predict_rows(x_t, t, cond, mask)
        out = np.array(cond, dtype=np.float64)
        out[rows] = pred
        return out
