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
from .masks import BoundaryMask


@dataclass(frozen=True)
class DenoiserConfig:
    latent: int = 64
    layers: int = 2
    heads: int = 4
    ffn: int = 128
    hand_head_depth: int = 2
    dtype: type = np.float32


@dataclass(frozen=True)
class Conditioning:
    """The pairs' share of a denoiser forward (`Denoiser.condition`): their
    mask, the RoPE table of its in-pair positions, each block's rotated
    cross-attention keys and values in row layout, the mask embedding, and
    the residual."""

    mask: BoundaryMask
    rope: nk.RopeTable
    cross_kv: list[tuple[Tensor, Tensor]]
    mask_emb: Tensor
    residual: Tensor


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
    """seed=None builds read-only zero placeholders without drawing them,
    for `restore_into` to replace from a checkpoint."""

    def __init__(self, cfg: DenoiserConfig = DenoiserConfig(), layout: PartLayout | None = None,
                 seed: int | None = 0):
        self.cfg = cfg
        self.layout = layout if layout is not None else PartLayout.base()
        self.group_slices = _group_slices(self.layout)
        self.params = ParameterSet(dtype=cfg.dtype)
        rng = None if seed is None else np.random.default_rng(seed)
        h = cfg.latent
        p = self.params
        self._in_proj = nk.init_dense(p, "in_proj", self.layout.dim, h, rng)
        self._cond_proj = nk.init_dense(p, "cond_proj", self.layout.dim, h, rng)
        self._mask_embed = p.add("mask_embed", nk.placeholder((2, h), p.dtype) if rng is None
                                 else rng.normal(0.0, 0.02, size=(2, h)))
        self._t1 = nk.init_dense(p, "time.0", h, h, rng)
        self._t2 = nk.init_dense(p, "time.1", h, h, rng)
        self._blocks = []
        for i in range(cfg.layers):
            blk = {
                "ln1": nk.init_layer_norm(p, f"blk{i}.ln1", h, rng),
                "qkv": nk.init_dense(p, f"blk{i}.qkv", h, 3 * h, rng),
                "self_out": nk.init_dense(p, f"blk{i}.self_out", h, h, rng),
                "ln_x": nk.init_layer_norm(p, f"blk{i}.ln_x", h, rng),
                "q": nk.init_dense(p, f"blk{i}.q", h, h, rng),
                "kv": nk.init_dense(p, f"blk{i}.kv", h, 2 * h, rng),
                "cross_out": nk.init_dense(p, f"blk{i}.cross_out", h, h, rng),
                "ln2": nk.init_layer_norm(p, f"blk{i}.ln2", h, rng),
                "ff1": nk.init_dense(p, f"blk{i}.ff1", h, cfg.ffn, rng),
                "ff2": nk.init_dense(p, f"blk{i}.ff2", cfg.ffn, h, rng),
            }
            self._blocks.append(blk)
        self._ln_final = nk.init_layer_norm(p, "ln_final", h, rng)
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

    def condition(self, cond: np.ndarray, mask: BoundaryMask) -> Conditioning:
        """What the pairs of `cond`, laid end to end as `mask` lays them out,
        give every forward, whatever the noise level; each pair's RoPE
        positions restart at 0.

        It is built from the parameters as they are now, with autograd unless
        under `nk.no_grad`. Training builds one per step (`packed_step_loss`)
        and DDIM one per run (`sampler`); nothing keeps it beyond that.
        """
        cfg = self.cfg
        dtype = self.params.dtype
        cond = np.asarray(cond, dtype=dtype)
        if mask.offsets[-1] != cond.shape[0]:
            raise ValueError(f"pair lengths {mask.lengths} do not add up to {cond.shape[0]} frames")
        rope = nk.rope_table(mask.positions, cfg.latent // cfg.heads, dtype, heads=cfg.heads)
        memory = nk.dense(nk.tensor(cond), *self._cond_proj)
        cross_kv = []
        for blk in self._blocks:
            kv = nk.dense(memory, *blk["kv"])
            # the conditioning stream is duration-aligned with the target, so
            # rotary positions let cross-attention localize boundary frames
            cross_kv.append((nk.rope_rotate(kv[:, : cfg.latent], rope), kv[:, cfg.latent :]))
        mask_emb = self._mask_embed[(mask.values > 0.5).astype(int)]
        return Conditioning(mask, rope, cross_kv, mask_emb, Tensor(cond))

    def forward(self, x_t: np.ndarray, t: int | list[int], c: Conditioning,
                rows: np.ndarray | None = None) -> Tensor:
        """Clean-motion prediction, (N, D), or (len(rows), D) for the given
        rows, of x_t under the conditioning `c` of its pairs (`condition`).

        Dense layers, norms, GELU and the heads run once over all rows;
        attention stays inside each pair. `t` is one timestep for every pair
        or a sequence of one per pair. Each attention sublayer is one
        `nk.segment_attention` node in row layout: self-attention takes the
        packed query-key-value projection and rotates its queries and keys
        from the conditioning's RoPE table; cross-attention rotates its
        queries and reads the keys the conditioning rotated.

        With `rows` (ascending indices into the N frames), the last block's
        queries, its FFN, the final norm and the heads run on those rows only;
        keys and values still cover every frame. Training and `sampler` both
        pass `c.mask.rows`, the only rows the loss and DDIM composition read.
        """
        cfg = self.cfg
        dtype = self.params.dtype
        lengths, offsets, positions = c.mask.lengths, c.mask.offsets, c.mask.positions
        if x_t.shape[0] != offsets[-1]:
            raise ValueError(f"pair lengths {lengths} do not add up to {x_t.shape[0]} frames")
        tok = nk.dense(nk.tensor(np.asarray(x_t, dtype=dtype)), *self._in_proj)
        steps = np.atleast_1d(np.asarray(t, dtype=np.float64))
        if len(steps) not in (1, len(lengths)):
            raise ValueError(f"{len(steps)} timesteps for {len(lengths)} pairs")
        t_emb = nk.tensor(nk.sinusoidal_embedding(steps, cfg.latent).astype(dtype))
        t_emb = nk.dense(nk.gelu(nk.dense(t_emb, *self._t1)), *self._t2)
        if len(steps) > 1:
            t_emb = t_emb[np.repeat(np.arange(len(steps)), lengths)]
        x = tok + t_emb + c.mask_emb

        q_offsets, q_rope, q_rows = offsets, c.rope, None
        last = len(self._blocks) - 1
        for i, (blk, (cross_k, cross_v)) in enumerate(zip(self._blocks, c.cross_kv)):
            normed = nk.layer_norm(x, *blk["ln1"])
            qkv = nk.dense(normed, *blk["qkv"])
            if i == last and rows is not None:
                x, q_rows = x[rows], rows
                q_offsets = np.searchsorted(rows, offsets)
                q_rope = nk.rope_table(positions[rows], cfg.latent // cfg.heads, dtype, heads=cfg.heads)
            attn = nk.segment_attention(qkv, None, None, q_offsets, offsets, q_rope, key_rope=c.rope, rows=q_rows)
            x = x + nk.dense(attn, *blk["self_out"])

            normed = nk.layer_norm(x, *blk["ln_x"])
            query = nk.dense(normed, *blk["q"])
            cross = nk.segment_attention(query, cross_k, cross_v, q_offsets, offsets, q_rope)
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
        return nk.concat(outputs, axis=-1) + (c.residual if rows is None else c.residual[rows])

    def sampler(self, cond: np.ndarray, mask: BoundaryMask):
        """DDIM's view of the denoiser for one run over `cond` under `mask`:
        `predict(x_t, t)`, the clean-motion prediction of `mask.rows`, the
        only rows DDIM composition keeps, in inference mode as a float64
        array. The conditioning is built here, once, from the parameters as
        they are now; build a new sampler after they change.
        """
        with nk.no_grad():
            c = self.condition(cond, mask)

        def predict(x_t: np.ndarray, t: int) -> np.ndarray:
            with nk.no_grad():
                return self.forward(x_t, t, c, rows=mask.rows).data.astype(np.float64, copy=False)

        return predict
