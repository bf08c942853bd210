"""The denoiser as it was first written, for tests to compare against.

`full_row_step_loss` is the training objective before it was packed: the full
pair is predicted, and the loss masks out every frame outside the boundary
mask. `signweave.inpaint.sample_step_loss` predicts and scores only the frames
inside the mask.

`ComposedDenoiser` runs a `Denoiser`'s parameters through the forward built
from composed ops: heads split and merged by copies, `rope_apply` per call and
head-major segment attention (`nn_oracles.composed_segment_attention`), with
the keys and values cut out of the packed projections as slices.
`Denoiser.forward` runs each attention sublayer as one node in row layout.

`loop_train_inpainter` is `signweave.inpaint.train_inpainter` as it was
before it ran on `neuralkit.fit`: its own AdamW step loop, with the
non-finite loss check it called inlined.
"""
from __future__ import annotations

import numpy as np

from nn_oracles import composed_segment_attention
from signweave import neuralkit as nk
from signweave.inpaint import (DiffusionSchedule, InpaintTrainConfig, LossConfig, batch_loss, combined_loss,
                               make_boundary_mask, min_snr_weight, q_sample)
from signweave.neuralkit.optim import GRAD_CLIP


def full_row_step_loss(item, denoiser, schedule, loss_cfg, t, radius, noise, part_weights):
    mask = make_boundary_mask(item.boundary_index, item.x0.shape[0] - item.boundary_index, radius)
    x_t = q_sample(item.x0, t, noise, schedule)
    x0_hat = denoiser.forward(x_t, t, denoiser.condition(item.x_tilde, mask))
    w_t = min_snr_weight(t, schedule, loss_cfg.min_snr_gamma)
    return combined_loss(x0_hat, item.x0, mask.values, part_weights, w_t, loss_cfg)


def loop_train_inpainter(pairs, denoiser, schedule=None, cfg=InpaintTrainConfig(), loss_cfg=LossConfig()):
    """Seeded single-coordinator training; returns the per-step loss history.

    A non-finite loss raises a ValueError naming the step and the batch.
    The parameters are left without gradients."""
    if schedule is None:
        schedule = DiffusionSchedule()
    rng = np.random.default_rng(cfg.seed)
    opt = nk.AdamW(denoiser.params, lr=cfg.lr, weight_decay=cfg.weight_decay)
    history = []
    n = len(pairs)
    denoiser.params.zero_grad()
    for step in range(cfg.steps):
        idx = rng.integers(0, n, size=min(cfg.batch_size, n))
        batch = [pairs[i] for i in idx]
        loss = batch_loss(batch, denoiser, schedule, loss_cfg, rng, (cfg.radius_min, cfg.radius_max))
        if not np.all(np.isfinite(loss.data)):
            raise ValueError(f"non-finite loss {loss.item()} at step {step} "
                             f"(batch indices {np.asarray(idx).tolist()})")
        loss.backward()
        denoiser.params.clip_grad_norm(GRAD_CLIP)
        opt.step(lr=nk.cosine_lr(step, cfg.steps, cfg.lr))
        denoiser.params.zero_grad()  # the step has used them: no gradient outlives it
        denoiser.params.ema_update(cfg.ema_decay)
        history.append(loss.item())
    return history


class ComposedDenoiser:
    """`Denoiser.condition` and `Denoiser.forward` from composed ops, over the
    parameters of `denoiser`. Its conditioning holds the projected memory;
    each block projects the keys and values from it inside the forward."""

    def __init__(self, denoiser):
        self.denoiser = denoiser
        self.layout = denoiser.layout

    def condition(self, cond, mask):
        d = self.denoiser
        dtype = d.params.dtype
        memory = nk.dense(nk.tensor(np.asarray(cond, dtype=dtype)), *d._cond_proj)
        mask_emb = d._mask_embed[(mask.values > 0.5).astype(int)]
        residual = nk.Tensor(np.asarray(cond, dtype=dtype))
        return mask.lengths, mask.offsets, mask.positions, memory, mask_emb, residual

    def forward(self, x_t, t, c, rows=None):
        d = self.denoiser
        dtype, latent, heads = d.params.dtype, d.cfg.latent, d.cfg.heads
        lengths, offsets, positions, memory, mask_emb, residual = c

        tok = nk.dense(nk.tensor(np.asarray(x_t, dtype=dtype)), *d._in_proj)
        steps = np.atleast_1d(np.asarray(t, dtype=np.float64))
        t_emb = nk.tensor(nk.sinusoidal_embedding(steps, latent).astype(dtype))
        t_emb = nk.dense(nk.gelu(nk.dense(t_emb, *d._t1)), *d._t2)
        if len(steps) > 1:
            t_emb = t_emb[np.repeat(np.arange(len(steps)), lengths)]
        x = tok + t_emb + mask_emb

        q_offsets, q_positions = offsets, positions
        last = len(d._blocks) - 1
        for i, blk in enumerate(d._blocks):
            normed = nk.layer_norm(x, *blk["ln1"])
            qkv = nk.dense(normed, *blk["qkv"])
            k, v = qkv[:, latent : 2 * latent], qkv[:, 2 * latent :]
            if i == last and rows is not None:
                x, qkv, q_positions = x[rows], qkv[rows], positions[rows]
                q_offsets = np.searchsorted(rows, offsets)
            attn = composed_segment_attention(qkv[:, :latent], k, v, heads, q_offsets, offsets,
                                              q_positions, positions)
            x = x + nk.dense(attn, *blk["self_out"])

            normed = nk.layer_norm(x, *blk["ln_x"])
            kv = nk.dense(memory, *blk["kv"])
            cross = composed_segment_attention(nk.dense(normed, *blk["q"]), kv[:, :latent], kv[:, latent:],
                                               heads, q_offsets, offsets, q_positions, positions)
            x = x + nk.dense(cross, *blk["cross_out"])

            normed = nk.layer_norm(x, *blk["ln2"])
            x = x + nk.dense(nk.gelu(nk.dense(normed, *blk["ff1"])), *blk["ff2"])

        x = nk.layer_norm(x, *d._ln_final)
        outputs = []
        for group in ("body", "face", "hand"):
            h = x
            layers = d._heads[group]
            for w, b in layers[:-1]:
                h = nk.gelu(nk.dense(h, w, b))
            outputs.append(nk.dense(h, *layers[-1]))
        return nk.concat(outputs, axis=-1) + (residual if rows is None else residual[rows])
